//! Convenience runner: executes every experiment binary's logic in
//! sequence at the current scale and renders the figures. Equivalent to
//! running each `fig*`/`table*` binary by hand, but one command.
//!
//! Usage: `cargo run -p megh-bench --release --bin run_all [--full]`

use std::process::Command;

/// Experiment binaries, in a sensible order (cheap first).
const EXPERIMENTS: [&str; 15] = [
    "fig1_workloads",
    "table2_planetlab",
    "table3_google",
    "fig2_planetlab_series",
    "fig3_google_series",
    "fig4_madvm_planetlab",
    "fig5_madvm_google",
    "fig6_scalability",
    "fig7_qtable_growth",
    "fig8_sensitivity",
    "ablation_megh",
    "ablation_mmt",
    "ablation_oversubscription",
    "ext_slav_metrics",
    "ext_qlearning",
];

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("=== {name} ===");
        let mut cmd = Command::new(exe_dir.join(name));
        if full {
            cmd.arg("--full");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name} exited with {status}");
                failures.push(name);
            }
            Err(e) => {
                eprintln!("{name} failed to start: {e} (build with `cargo build --release -p megh-bench` first)");
                failures.push(name);
            }
        }
    }
    println!("=== render_figures ===");
    let _ = Command::new(exe_dir.join("render_figures")).status();
    if failures.is_empty() {
        println!("all experiments completed; see results/");
    } else {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
