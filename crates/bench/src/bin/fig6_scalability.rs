//! Figure 6: scalability of THR-MMT (a) vs Megh (b).
//!
//! Sweeps the number of PMs `m` and VMs `n` over a grid of PlanetLab
//! subsets, running several repeats per cell and reporting the mean
//! per-step decision time. The paper's grid is
//! m, n ∈ {100, …, 800} with 25 repeats; the default here is a coarser
//! grid with 3 repeats (`--full` restores the paper's grid).
//!
//! Usage: `cargo run -p megh-bench --release --bin fig6_scalability [--full]`

use megh_baselines::{MmtFlavor, MmtScheduler};
use megh_bench::{ensure_results_dir, scale_from_args, write_csv, Scale};
use megh_core::{MeghAgent, MeghConfig};
use megh_sim::{DataCenterConfig, InitialPlacement, Simulation};
use megh_trace::PlanetLabConfig;

/// Steps simulated per cell (decision-time measurement window).
const STEPS: usize = 60;

fn main() {
    let scale = scale_from_args();
    let (grid, repeats): (Vec<usize>, usize) = match scale {
        Scale::Reduced => (vec![100, 200, 400], 3),
        Scale::Full => (vec![100, 200, 300, 400, 500, 600, 700, 800], 25),
    };
    eprintln!("fig6: grid {grid:?}, {repeats} repeats, {STEPS} steps/cell");

    let dir = ensure_results_dir().expect("results dir");
    let mut rows_thr = Vec::new();
    let mut rows_megh = Vec::new();
    for &m in &grid {
        for &n in &grid {
            let mut thr_ms = 0.0;
            let mut megh_ms = 0.0;
            for rep in 0..repeats {
                let seed = (m * 31 + n * 7 + rep) as u64;
                let mut config = DataCenterConfig::paper_planetlab(m, n);
                config.initial_placement = InitialPlacement::DemandPacked;
                let trace = PlanetLabConfig::new(n, seed).generate_steps(STEPS);
                let sim = Simulation::new(config, trace).expect("valid setup");
                let thr = sim.run(MmtScheduler::new(MmtFlavor::Thr));
                thr_ms += thr.report().mean_decision_ms;
                let megh = sim.run(MeghAgent::new(MeghConfig {
                    seed,
                    ..MeghConfig::paper_defaults(n, m)
                }));
                megh_ms += megh.report().mean_decision_ms;
            }
            thr_ms /= repeats as f64;
            megh_ms /= repeats as f64;
            eprintln!("  m={m:4} n={n:4}: THR-MMT {thr_ms:8.3} ms  Megh {megh_ms:8.3} ms");
            rows_thr.push(vec![m as f64, n as f64, thr_ms]);
            rows_megh.push(vec![m as f64, n as f64, megh_ms]);
        }
    }

    write_csv(
        dir.join("fig6a_thr_mmt_ms.csv"),
        &["pms", "vms", "mean_ms"],
        rows_thr.clone(),
    )
    .expect("fig6a");
    write_csv(
        dir.join("fig6b_megh_ms.csv"),
        &["pms", "vms", "mean_ms"],
        rows_megh.clone(),
    )
    .expect("fig6b");

    // Shape check: growth from the smallest to the largest cell.
    let growth = |rows: &[Vec<f64>]| -> f64 {
        let first = rows.first().map(|r| r[2]).unwrap_or(0.0).max(1e-9);
        let last = rows.last().map(|r| r[2]).unwrap_or(0.0);
        last / first
    };
    println!("Figure 6 — per-step decision time scaling (PlanetLab subsets)");
    println!("  THR-MMT grows {:.1}x across the grid", growth(&rows_thr));
    println!("  Megh    grows {:.1}x across the grid", growth(&rows_megh));
    println!("wrote results/fig6a_thr_mmt_ms.csv, results/fig6b_megh_ms.csv");
}
