//! Extension experiment: periodicity-aware Megh (the paper's §7
//! future-work direction) against plain Megh on the diurnal
//! PlanetLab-like workload.
//!
//! Usage: `cargo run -p megh-bench --release --bin ext_periodic [--full]`

use megh_bench::{
    ensure_results_dir, format_table, planetlab_experiment, run_megh, run_scheduler,
    scale_from_args, write_json, Scale,
};
use megh_core::{MeghConfig, PeriodicMeghAgent};
use megh_sim::{DataCenterConfig, InitialPlacement, SummaryReport};
use megh_trace::DiurnalConfig;

fn run_family(
    label: &str,
    config: &DataCenterConfig,
    trace: &megh_trace::WorkloadTrace,
) -> Vec<SummaryReport> {
    let (n, m) = (config.vms.len(), config.pms.len());
    let mut reports = Vec::new();
    reports.push(run_megh(config, trace, 42).expect("valid setup").report());
    eprintln!("  [{label}] Megh done");
    for phases in [2usize, 4, 8] {
        let mut cfg = MeghConfig::paper_defaults(n, m);
        cfg.seed = 42;
        let agent = PeriodicMeghAgent::new(cfg, phases);
        let outcome = run_scheduler(config, trace, agent).expect("valid setup");
        let report = outcome.report();
        eprintln!(
            "  [{label}] {} done: {:.1} USD",
            report.scheduler, report.total_cost_usd
        );
        reports.push(report);
    }
    reports
}

fn main() {
    let scale = scale_from_args();

    // (a) The paper's PlanetLab workload: bursts are aperiodic, so the
    // phase split mostly adds noise (EXPERIMENTS.md).
    let (config, trace) = planetlab_experiment(scale, 42);
    eprintln!(
        "ext_periodic: {} hosts, {} VMs, {} steps",
        config.pms.len(),
        config.vms.len(),
        trace.n_steps()
    );
    let planetlab_reports = run_family("planetlab", &config, &trace);
    println!(
        "{}",
        format_table(
            "Extension — periodicity-aware Megh (PlanetLab, aperiodic bursts)",
            &planetlab_reports
        )
    );

    // (b) A strongly diurnal enterprise workload — the §7 setting where
    // phase conditioning has something real to learn.
    let (m, n, days) = match scale {
        Scale::Reduced => (60usize, 80usize, 7usize),
        Scale::Full => (300, 400, 7),
    };
    let mut diurnal_config = DataCenterConfig::paper_planetlab(m, n);
    diurnal_config.initial_placement = InitialPlacement::DemandPacked;
    let diurnal_trace = DiurnalConfig::new(n, 42).generate(days);
    let diurnal_reports = run_family("diurnal", &diurnal_config, &diurnal_trace);
    println!(
        "{}",
        format_table(
            "Extension — periodicity-aware Megh (diurnal enterprise workload)",
            &diurnal_reports
        )
    );

    let dir = ensure_results_dir().expect("results dir");
    write_json(dir.join("ext_periodic_planetlab.json"), &planetlab_reports).expect("write results");
    write_json(dir.join("ext_periodic_diurnal.json"), &diurnal_reports).expect("write results");
    println!("wrote results/ext_periodic_{{planetlab,diurnal}}.json");
}
