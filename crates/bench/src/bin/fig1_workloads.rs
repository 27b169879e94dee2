//! Figure 1: workload characterisation.
//!
//! (a) PlanetLab workload dynamics — across-VM mean ± std per step;
//! (b) Google Cluster task-duration histogram on a log axis.
//!
//! Usage: `cargo run -p megh-bench --release --bin fig1_workloads [--full]`

use megh_bench::{ensure_results_dir, scale_from_args, write_csv, Scale};
use megh_trace::{CullenFrey, DurationStats, GoogleConfig, PlanetLabConfig, TraceStats};

fn main() {
    // VM counts of the Tables 2–3 rows (`experiment table2|table3`, or
    // the `-full` rows).
    let (n_pl, n_g, days) = match scale_from_args() {
        Scale::Reduced => (210, 400, 7),
        Scale::Full => (1052, 2000, 7),
    };
    let dir = ensure_results_dir().expect("results dir");

    // (a) PlanetLab dynamics.
    let planetlab = PlanetLabConfig::new(n_pl, 42).generate(days);
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
    let google_cfg = GoogleConfig::new(n_g, 43);
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
}
