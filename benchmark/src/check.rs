//! `check`: is the benchmark steady enough to judge a change with?
//!
//! Runs every workload in two sets of N fresh processes and applies the
//! PR driver's acceptance rule to each end-to-end metric: the spread of
//! a set (interquartile range over median) must stay within the
//! metric's bound — `setup_s` excepted — and the second set's median
//! must not be worse than the first's by more than the bound.

use std::process::Command;

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;
use crate::{parse_flags, parsed, WORKLOADS};

/// A spread above this share of the bound gets a warning: the builder's
/// target is a third of the bound.
const SPREAD_TARGET: f64 = 1.0 / 3.0;

/// One run of one workload in a child process; its end-to-end metrics
/// in table order.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) failed:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().unwrap_or("");
    let result: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    END_TO_END
        .iter()
        .map(|def| {
            result["metrics"][def.name]["value"]
                .as_f64()
                .ok_or_else(|| format!("{workload}: result has no {}", def.name))
        })
        .collect()
}

pub fn check_command(args: &[String]) -> Result<bool, String> {
    let mut runs = 5usize;
    let mut seconds = crate::DEFAULT_SECONDS;
    for (name, value) in parse_flags(args, &["runs", "seconds"])? {
        match name.as_str() {
            "runs" => runs = parsed(&name, &value)?,
            _ => seconds = parsed(&name, &value)?,
        }
    }
    if runs < 2 {
        return Err("`--runs` must be at least 2 (quartiles need two values)".to_string());
    }

    let mut ok = true;
    for workload in WORKLOADS.iter() {
        // sets[set][metric][run]; every run has another seed.
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for (set, per_metric) in sets.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = (set * runs + run + 1) as u64;
                let values = child_run(workload.name, seed, seconds)?;
                for (column, value) in per_metric.iter_mut().zip(values) {
                    column.push(value);
                }
            }
        }
        println!("workload {} ({runs} runs per set)", workload.name);
        for (m, def) in END_TO_END.iter().enumerate() {
            let mut medians = [0.0; 2];
            let mut verdict = String::new();
            for (set, per_metric) in sets.iter().enumerate() {
                let [q1, q2, q3] = quartiles(&per_metric[m]).expect("at least two runs per set");
                medians[set] = q2;
                let spread = (q3 - q1) / q2;
                println!(
                    "    {:<16} set {}  q1 {q1:>14.4}  median {q2:>14.4}  q3 {q3:>14.4} {:<4} spread {:>6.2} % (bound {:.0} %, {} is better)",
                    def.name,
                    set + 1,
                    def.unit,
                    spread * 100.0,
                    def.bound * 100.0,
                    def.better.as_str(),
                );
                if def.name != "setup_s" && spread > def.bound {
                    verdict.push_str(" UNSTEADY");
                    ok = false;
                } else if def.name != "setup_s" && spread > def.bound * SPREAD_TARGET {
                    verdict.push_str(" (spread above a third of the bound)");
                }
            }
            let worse = match def.better {
                Better::Lower => (medians[1] - medians[0]) / medians[0],
                Better::Higher => (medians[0] - medians[1]) / medians[0],
            };
            if worse > def.bound {
                verdict.push_str(" SETS DISAGREE");
                ok = false;
            }
            println!(
                "    {:<16} set 2 worse than set 1 by {:>6.2} %{verdict}",
                def.name,
                worse * 100.0
            );
        }
    }
    println!("check: {}", if ok { "pass" } else { "FAIL" });
    Ok(ok)
}
