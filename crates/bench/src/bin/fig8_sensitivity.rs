//! Figure 8: sensitivity of Megh's per-step cost to the exploration
//! parameters Temp₀ and ε.
//!
//! The paper varies Temp₀ over 0.5–10 (step 0.5) with ε = 0.001, and ε
//! over 30 log-spaced values in [10⁻³, 10⁰] with Temp₀ = 1, running 25
//! repeats per value on PlanetLab. The default here uses a smaller fleet
//! and 5 repeats; `--full` restores the paper's grids.
//!
//! Usage: `cargo run -p megh-bench --release --bin fig8_sensitivity [--full]`

use megh_bench::{ensure_results_dir, scale_from_args, write_csv, Scale};
use megh_core::{MeghAgent, MeghConfig};
use megh_linalg::quantile;
use megh_sim::{DataCenterConfig, InitialPlacement, Simulation};
use megh_trace::PlanetLabConfig;

fn per_step_cost(m: usize, n: usize, steps: usize, temp0: f64, epsilon: f64, seed: u64) -> f64 {
    let mut config = DataCenterConfig::paper_planetlab(m, n);
    config.initial_placement = InitialPlacement::DemandPacked;
    let trace = PlanetLabConfig::new(n, seed).generate_steps(steps);
    let sim = Simulation::new(config, trace).expect("valid setup");
    let mut megh_cfg = MeghConfig::paper_defaults(n, m);
    megh_cfg.temp0 = temp0;
    megh_cfg.epsilon = epsilon;
    megh_cfg.seed = seed;
    let report = sim.run(MeghAgent::new(megh_cfg)).report();
    report.total_cost_usd / report.steps.max(1) as f64
}

/// The 10th, 50th and 90th percentiles (R type-7, interpolated).
fn quantiles(xs: &[f64]) -> (f64, f64, f64) {
    (quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9))
}

fn main() {
    let scale = scale_from_args();
    // Temperature only matters when Q values (≈ discounted per-step
    // costs in USD) are commensurate with Temp₀ ∈ [0.5, 10]; that needs
    // a fleet large enough for per-step costs of the paper's order.
    let (m, n, steps, repeats) = match scale {
        Scale::Reduced => (160, 210, 576, 5),
        Scale::Full => (800, 1052, 2016, 25),
    };
    let temp0_values: Vec<f64> = match scale {
        Scale::Reduced => (1..=10).map(|i| i as f64).collect(),
        Scale::Full => (1..=20).map(|i| i as f64 * 0.5).collect(),
    };
    let eps_count = match scale {
        Scale::Reduced => 10,
        Scale::Full => 30,
    };
    let eps_values: Vec<f64> = (0..eps_count)
        .map(|i| 10f64.powf(-3.0 + 3.0 * i as f64 / (eps_count - 1) as f64))
        .collect();
    eprintln!("fig8: {m} hosts, {n} VMs, {steps} steps, {repeats} repeats");

    let dir = ensure_results_dir().expect("results dir");

    // Seeds are independent per (value, repeat), matching the paper's
    // protocol of 25 independent runs per parameter value. Note the
    // reproduction finding (EXPERIMENTS.md): under *paired* seeds the
    // curves are exactly flat — at paper scale the unexplored action
    // class dominates the Boltzmann mass for every Temp₀ in [0.5, 10],
    // so the spread the paper plots is run-to-run noise.
    let seed_of = |panel: u64, idx: usize, rep: usize| {
        3_000_000 + panel * 1_000_000 + (idx * 100 + rep) as u64
    };

    // (a) Vary Temp₀ at ε = 0.001.
    println!("Figure 8(a) — per-step cost vs Temp0 (ε = 0.001)");
    let mut rows_a = Vec::new();
    for (i, &temp0) in temp0_values.iter().enumerate() {
        let costs: Vec<f64> = (0..repeats)
            .map(|rep| per_step_cost(m, n, steps, temp0, 0.001, seed_of(0, i, rep)))
            .collect();
        let (q10, q50, q90) = quantiles(&costs);
        println!("  Temp0 = {temp0:4.1}: median {q50:.4} USD/step  [{q10:.4}, {q90:.4}]");
        rows_a.push(vec![temp0, q10, q50, q90]);
    }
    write_csv(
        dir.join("fig8a_temp0.csv"),
        &["temp0", "q10", "median", "q90"],
        rows_a,
    )
    .expect("fig8a");

    // (b) Vary ε at Temp₀ = 1.
    println!("Figure 8(b) — per-step cost vs epsilon (Temp0 = 1)");
    let mut rows_b = Vec::new();
    for (i, &eps) in eps_values.iter().enumerate() {
        let costs: Vec<f64> = (0..repeats)
            .map(|rep| per_step_cost(m, n, steps, 1.0, eps, seed_of(1, i, rep)))
            .collect();
        let (q10, q50, q90) = quantiles(&costs);
        println!("  ε = {eps:8.4}: median {q50:.4} USD/step  [{q10:.4}, {q90:.4}]");
        rows_b.push(vec![eps, q10, q50, q90]);
    }
    write_csv(
        dir.join("fig8b_epsilon.csv"),
        &["epsilon", "q10", "median", "q90"],
        rows_b,
    )
    .expect("fig8b");

    // (c) Extension: a small action space (d = N × M small enough for
    // exploration to cover it) where the exploration–exploitation
    // trade-off is actually observable in behaviour, not just noise.
    println!("Figure 8(c) — small-space sensitivity (8 hosts, 12 VMs)");
    let mut rows_c = Vec::new();
    for (i, &temp0) in temp0_values.iter().enumerate() {
        let costs: Vec<f64> = (0..repeats)
            .map(|rep| per_step_cost(8, 12, 576, temp0, 0.001, seed_of(2, i, rep)))
            .collect();
        let (q10, q50, q90) = quantiles(&costs);
        println!("  Temp0 = {temp0:4.1}: median {q50:.5} USD/step  [{q10:.5}, {q90:.5}]");
        rows_c.push(vec![temp0, q10, q50, q90]);
    }
    write_csv(
        dir.join("fig8c_temp0_small_space.csv"),
        &["temp0", "q10", "median", "q90"],
        rows_c,
    )
    .expect("fig8c");

    println!("wrote results/fig8{{a,b}}_*.csv, results/fig8c_temp0_small_space.csv");
}
