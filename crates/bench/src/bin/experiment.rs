//! Runs rows of the experiment table (`megh_bench::experiments`): every
//! arm of the row on every setup over seeds 1–8, paired by seed
//! (`megh_sim::sweep::run_row`).
//!
//! Prints a markdown table per row (mean ± sd per metric, Δ ± SE against
//! Megh, ms per decision) and writes `results/<row>.json`, which is
//! byte-identical for any `--threads`; the series rows (`table2`,
//! `table3`, `fig4`, `fig5`) also write `results/<row>{a,b,c,d}_*.csv`
//! from seed 1.
//!
//! Usage: `cargo run -p megh-bench --release --bin experiment --
//! NAME|all|list [--threads T]`

use std::process::ExitCode;
use std::time::Instant;

use megh_bench::ensure_results_dir;
use megh_bench::experiments::{format_convergence, table, write_outputs, SEEDS};
use megh_sim::sweep::{format_row, run_row, Row};

const USAGE: &str = "usage: experiment NAME|all|list [--threads T]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Command {
    target: String,
    threads: Option<usize>,
}

/// Parses `NAME|all|list [--threads T]`, naming any offending value.
fn parse(args: &[String]) -> Result<Command, String> {
    let mut target = None;
    let mut threads = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let (key, inline) = match flag.split_once('=') {
                Some((key, value)) => (key, Some(value)),
                None => (flag, None),
            };
            if key != "threads" {
                return Err(format!("unknown option --{key}"));
            }
            let value = inline.or_else(|| args.next().map(String::as_str));
            let value = value.ok_or("option --threads needs a value")?;
            match value.parse::<usize>() {
                Ok(t) if t > 0 => threads = Some(t),
                _ => return Err(format!("--threads {value:?} is not a positive integer")),
            }
        } else if target.is_some() {
            return Err(format!("unexpected argument {arg:?}"));
        } else {
            target = Some(arg.clone());
        }
    }
    let target = target.ok_or("missing experiment name")?;
    let known = table().iter().any(|row| row.name == target);
    if !(known || target == "all" || target == "list") {
        return Err(format!(
            "unknown experiment {target:?} (`experiment list` names them)"
        ));
    }
    Ok(Command { target, threads })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if command.target == "list" {
        for row in table() {
            println!("{:<26} {}", row.name, row.title);
        }
        return ExitCode::SUCCESS;
    }
    let rows: Vec<Row> = table()
        .into_iter()
        .filter(|row| command.target == "all" || row.name == command.target)
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = command.threads.unwrap_or(cores.min(SEEDS.len()));
    let dir = match ensure_results_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for row in &rows {
        let started = Instant::now();
        let written = run_row(row, &SEEDS, threads)
            .map_err(|e| e.to_string())
            .and_then(|run| {
                print!("{}{}", format_row(&run), format_convergence(&run));
                write_outputs(row, &run, &dir).map_err(|e| e.to_string())
            });
        if let Err(e) = written {
            eprintln!("error: {}: {e}", row.name);
            return ExitCode::FAILURE;
        }
        eprintln!(
            "{}: {:.1} s on {threads} thread(s), wrote results/{}.json",
            row.name,
            started.elapsed().as_secs_f64(),
            row.name
        );
        println!();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        parse(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn accepts_names_all_and_list_with_threads() {
        for (line, target, threads) in [
            ("table2", "table2", None),
            ("fig8", "fig8", None),
            ("all --threads 2", "all", Some(2)),
            ("--threads=3 list", "list", Some(3)),
            (
                "ablation-oversubscription",
                "ablation-oversubscription",
                None,
            ),
        ] {
            let expected = Command {
                target: target.to_string(),
                threads,
            };
            assert_eq!(parse_line(line), Ok(expected), "{line}");
        }
    }

    #[test]
    fn rejects_and_names_bad_input() {
        for (line, named) in [
            ("", "missing experiment name"),
            ("table9", "\"table9\""),
            ("table2 --seeds 3", "--seeds"),
            ("table2 --full", "--full"),
            ("table2 --threads abc", "\"abc\""),
            ("table2 --threads 0", "\"0\""),
            ("table2 --threads", "needs a value"),
            ("table2 fig8", "\"fig8\""),
            ("fig2", "\"fig2\""),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains(named), "{line}: {err}");
        }
    }
}
