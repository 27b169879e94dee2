//! Figure 1: workload characterisation.
//!
//! (a) PlanetLab workload dynamics — across-VM mean ± std per step;
//! (b) Google Cluster task-duration histogram on a log axis.
//!
//! Runs the paper's fleets (1 052 PlanetLab VMs, 2 000 Google VMs, one
//! week) and takes no argument; any argument exits 2, naming it.
//!
//! Usage: `cargo run -p megh-bench --release --bin fig1_workloads`

use std::process::ExitCode;

use megh_bench::{ensure_results_dir, write_csv};
use megh_trace::{CullenFrey, DurationStats, GoogleConfig, PlanetLabConfig, TraceStats};

/// PlanetLab VMs of the `table2-full` row.
const PLANETLAB_VMS: usize = 1052;
/// Google VMs of the `table3-full` row.
const GOOGLE_VMS: usize = 2000;
/// Simulated days of both rows.
const DAYS: usize = 7;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unexpected argument {arg:?} (fig1_workloads takes none)");
        return ExitCode::from(2);
    }
    let dir = ensure_results_dir().expect("results dir");

    // (a) PlanetLab dynamics.
    let planetlab = PlanetLabConfig::new(PLANETLAB_VMS, 42).generate(DAYS);
    let stats = TraceStats::compute(&planetlab);
    println!("Figure 1(a) — PlanetLab-like workload dynamics");
    println!(
        "  VMs: {}, steps: {}",
        planetlab.n_vms(),
        planetlab.n_steps()
    );
    println!(
        "  overall mean {:.1} %, std {:.1} %, range [{:.1}, {:.1}] %",
        stats.overall_mean, stats.overall_std, stats.overall_min, stats.overall_max
    );
    // §6.2's Cullen–Frey check: no standard parametric fit.
    if let Some(cf) = CullenFrey::of_trace(&planetlab) {
        println!(
            "  Cullen–Frey: skew² {:.2}, kurtosis {:.2} — matches a standard distribution: {}",
            cf.skewness_squared,
            cf.kurtosis,
            cf.matches_a_standard_distribution(0.5)
        );
    }
    let rows = stats
        .per_step_mean
        .iter()
        .zip(&stats.per_step_std)
        .enumerate()
        .map(|(t, (&m, &s))| vec![t as f64, m, s]);
    write_csv(
        dir.join("fig1a_planetlab_dynamics.csv"),
        &["step", "mean", "std"],
        rows,
    )
    .expect("write fig1a");

    // (b) Google task durations.
    let google_cfg = GoogleConfig::new(GOOGLE_VMS, 43);
    let durations = google_cfg.sample_task_durations(20_000);
    let hist = DurationStats::from_durations(&durations, 4);
    println!("Figure 1(b) — Google-Cluster-like task durations");
    println!(
        "  min {:.1} s, max {:.0} s, spanning {:.1} decades",
        hist.min_seconds,
        hist.max_seconds,
        hist.decades_spanned()
    );
    let rows = hist
        .bucket_edges_log10
        .iter()
        .zip(&hist.counts)
        .map(|(&edge, &count)| vec![edge, count as f64]);
    write_csv(
        dir.join("fig1b_google_durations.csv"),
        &["log10_seconds", "count"],
        rows,
    )
    .expect("write fig1b");

    println!("wrote results/fig1a_planetlab_dynamics.csv, results/fig1b_google_durations.csv");
    ExitCode::SUCCESS
}
