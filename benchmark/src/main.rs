//! The repository's benchmark: end-to-end and per-layer numbers for the
//! simulator path and the daemon path, measured from outside through
//! the crates' public API. See `README.md` beside `Cargo.toml`.

#![forbid(unsafe_code)]

mod check;
mod floor;
mod metrics;
mod probes;
mod seeds;
mod serve;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{result_line, Report};
use serve::ServeSpec;
use sim::SimSpec;

/// Largest share of the untraced wall that tracing may add.
pub const MAX_TRACE_OVERHEAD: f64 = 0.05;

/// Measured seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

pub enum Kind {
    Sim(SimSpec),
    Serve(ServeSpec),
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (mirrored in
    /// `BENCHMARK.json`).
    pub why: &'static str,
    /// What `ops_per_s` counts.
    pub op: &'static str,
    pub kind: Kind,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_wide",
        why: "Table 2 fleet (800 hosts x 1052 VMs, 30 days): wide fleet, young Q-table, so simulator and trace work dominate and agent work shows only partly",
        op: "simulated steps",
        kind: Kind::Sim(SimSpec {
            hosts: 800,
            vms: 1052,
            days: 30,
            seeded_days: 3,
            decide_share: (0.0, 0.40),
        }),
    },
    Workload {
        name: "sim_long",
        why: "Figs 4-5 fleet (100 hosts x 150 VMs, 60 days): narrow fleet, populated Q-table, so the agent's decide dominates and the simulator is bypassed",
        op: "simulated steps",
        kind: Kind::Sim(SimSpec {
            hosts: 100,
            vms: 150,
            days: 60,
            seeded_days: 6,
            decide_share: (0.80, 1.0),
        }),
    },
    Workload {
        name: "serve_decide",
        why: "daemon on a 30-day-trained agent, one closed-loop connection sending only decides: the read path (transport, wire, snapshot, sampling) with the writer idle",
        op: "decide requests",
        kind: Kind::Serve(ServeSpec::Decide { requests: 4_000 }),
    },
    Workload {
        name: "serve_cycle",
        why: "same daemon, cycles of 16 observes + sync + 16 decides: writes beside reads (queueing, batched update, publish), so a read-path gain that costs the write path shows",
        op: "observe/sync/decide cycles",
        kind: Kind::Serve(ServeSpec::Cycle { cycles: 128 }),
    },
];

/// Arguments of one workload run.
pub struct RunArgs {
    pub seed: u64,
    /// Measured time to accumulate, in whole passes.
    pub seconds: f64,
    pub trace: bool,
}

/// The benchmark's own scratch directory, `results/` beside its
/// manifest (git-ignored): checkpoints while a daemon runs, span files.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

const USAGE: &str = "\
usage: megh-benchmark run   [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
       megh-benchmark check [--runs N] [--seconds S]

run    measures one workload (default: all, each in its own child
       process) and prints every metric with its unit and sample count;
       the last line of a single-workload run is the result object.
       --trace 1 adds a traced pass beside every untraced one, prints
       the per-layer metrics and writes results/<workload>.spans.json.
check  runs two sets of N (default 5) runs of every workload and fails
       when the sets disagree or a metric is unsteady.";

/// `--name value` pairs after the subcommand.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`--{name} {value}`: not a valid value"))
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let mut workload = "all".to_string();
    let mut run = RunArgs {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    for (name, value) in parse_flags(args, &["workload", "seed", "seconds", "trace"])? {
        match name.as_str() {
            "workload" => workload = value,
            "seed" => run.seed = parsed(&name, &value)?,
            "seconds" => run.seconds = parsed(&name, &value)?,
            _ => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace {value}`: want 0 or 1")),
                }
            }
        }
    }
    if !(run.seconds > 0.0 && run.seconds.is_finite()) {
        return Err("`--seconds` must be positive".to_string());
    }
    if workload == "all" {
        return run_all(&run);
    }
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload `{workload}` (have: {}, all)",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    run_one(workload, &run)
}

/// Every workload in its own child process, so that `peak_rss_mb` is
/// per workload. `Ok(false)` when any child failed.
fn run_all(run: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut ok = true;
    for workload in WORKLOADS.iter() {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", workload.name])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("running {}: {e}", workload.name))?;
        ok &= status.success();
        println!();
    }
    Ok(ok)
}

fn run_one(workload: &Workload, run: &RunArgs) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} (seed {}, {} s measured, trace {}, {cores} cores)",
        workload.name,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    println!("  {}", workload.why);
    println!("  ops_per_s counts {}", workload.op);
    let mut report: Report = match &workload.kind {
        Kind::Sim(spec) => sim::run(spec, run)?,
        Kind::Serve(spec) => serve::run(*spec, run)?,
    };
    let rss = peak_rss_mb().ok_or("reading VmHWM from /proc/self/status failed")?;
    report.e2e("peak_rss_mb", rss, 1);

    if run.trace {
        let path = scratch_dir()?.join(format!("{}.spans.json", workload.name));
        std::fs::write(&path, spans::to_json(&report.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  {} spans -> {}", report.spans.len(), path.display());
        print_rows(
            "end-to-end (informative; measured beside traced passes)",
            &report.table(false),
        );
    }
    let rows = report.table(run.trace);
    print_rows(if run.trace { "per-layer" } else { "end-to-end" }, &rows);
    let per_pass: Vec<String> = report
        .pass_ops_per_s
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    println!(
        "  ops_per_s of each untraced pass as a whole: {} (undisturbed pass: {:.4} s)",
        per_pass.join(" "),
        report.floor_wall_s
    );
    for (name, summary) in &report.timings {
        println!("  timing {name}: {summary}");
    }
    println!(
        "  failed_frac {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        println!("  CHECK FAILED: {failure}");
    }
    let correct = report.correct();
    println!("  checks: {}", if correct { "pass" } else { "FAIL" });
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, &rows)
    );
    Ok(correct)
}

/// Prints the measured rows; metrics of layers the workload does not
/// exercise (no samples, value 0) are only counted.
fn print_rows(title: &str, rows: &[(&'static str, &'static str, f64, usize)]) {
    println!("  {title}:");
    for (name, unit, value, samples) in rows.iter().filter(|r| r.3 > 0) {
        println!("    {name:<36} {value:>16.6} {unit:<6} n={samples}");
    }
    let idle = rows.iter().filter(|r| r.3 == 0).count();
    if idle > 0 {
        println!("    ({idle} metrics of layers this workload does not exercise read 0)");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "check" => check::check_command(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
