//! Renders SVG figures from the CSV series in `results/`: Figure 1 from
//! `fig1_workloads`, Figures 2–3 from `experiment table2` and `table3`
//! (seed 1's series), Figures 4–5 from `experiment fig4` and `fig5`.
//! Run those first, then this. Figures 6–8 are tables, which
//! `experiment fig6`, `fig8` and `tests/paper_claims.rs` report.
//!
//! Usage: `cargo run -p megh-bench --release --bin render_figures`

use std::fs;
use std::path::Path;

use megh_bench::{ensure_results_dir, LineChart};

/// Reads a results CSV written by `write_csv`: header row, then numeric
/// rows. Returns `(headers, columns)`.
fn read_csv(path: &Path) -> Option<(Vec<String>, Vec<Vec<f64>>)> {
    let content = fs::read_to_string(path).ok()?;
    let mut lines = content.lines();
    let headers: Vec<String> = lines.next()?.split(',').map(str::to_string).collect();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); headers.len()];
    for line in lines {
        let cells: Vec<f64> = line
            .split(',')
            .map(|c| c.trim().parse().unwrap_or(f64::NAN))
            .collect();
        if cells.len() != headers.len() {
            return None;
        }
        for (col, v) in columns.iter_mut().zip(cells) {
            col.push(v);
        }
    }
    Some((headers, columns))
}

/// Renders one multi-series figure: column 0 is x, the rest are series.
fn render_series(dir: &Path, stem: &str, title: &str, x_label: &str, y_label: &str, log_y: bool) {
    let csv = dir.join(format!("{stem}.csv"));
    let Some((headers, columns)) = read_csv(&csv) else {
        eprintln!("  skipping {stem}: no usable {}", csv.display());
        return;
    };
    let mut chart = LineChart::new(title, x_label, y_label);
    if log_y {
        chart.log_y();
    }
    let xs = &columns[0];
    for (name, col) in headers.iter().zip(&columns).skip(1) {
        let pts: Vec<(f64, f64)> = xs.iter().copied().zip(col.iter().copied()).collect();
        chart.add_series(name.clone(), pts);
    }
    let out = dir.join(format!("{stem}.svg"));
    match chart.save(&out) {
        Ok(()) => println!("  rendered {}", out.display()),
        Err(e) => eprintln!("  failed {stem}: {e}"),
    }
}

fn main() {
    let dir = ensure_results_dir().expect("results dir");
    println!("rendering figures from {}", dir.display());

    render_series(
        &dir,
        "fig1a_planetlab_dynamics",
        "Figure 1(a) — PlanetLab workload dynamics",
        "step",
        "utilization %",
        false,
    );
    render_series(
        &dir,
        "fig1b_google_durations",
        "Figure 1(b) — Google task durations",
        "log10 seconds",
        "count",
        false,
    );
    for (prefix, family) in [("table2", "PlanetLab"), ("table3", "Google Cluster")] {
        render_series(
            &dir,
            &format!("{prefix}a_cost_per_step"),
            &format!("{family}: per-step cost"),
            "step",
            "USD / step",
            false,
        );
        render_series(
            &dir,
            &format!("{prefix}b_cumulative_migrations"),
            &format!("{family}: cumulative migrations"),
            "step",
            "migrations",
            true,
        );
        render_series(
            &dir,
            &format!("{prefix}c_active_hosts"),
            &format!("{family}: active hosts"),
            "step",
            "hosts",
            false,
        );
        render_series(
            &dir,
            &format!("{prefix}d_execution_ms"),
            &format!("{family}: decision time"),
            "step",
            "ms",
            true,
        );
    }
    for (prefix, family) in [("fig4", "PlanetLab subset"), ("fig5", "Google subset")] {
        render_series(
            &dir,
            &format!("{prefix}a_cost_per_step"),
            &format!("Megh vs MadVM ({family}): per-step cost"),
            "step",
            "USD / step",
            false,
        );
        render_series(
            &dir,
            &format!("{prefix}b_cumulative_migrations"),
            &format!("Megh vs MadVM ({family}): migrations"),
            "step",
            "migrations",
            false,
        );
        render_series(
            &dir,
            &format!("{prefix}c_active_hosts"),
            &format!("Megh vs MadVM ({family}): active hosts"),
            "step",
            "hosts",
            false,
        );
        render_series(
            &dir,
            &format!("{prefix}d_execution_ms"),
            &format!("Megh vs MadVM ({family}): decision time"),
            "step",
            "ms",
            true,
        );
    }
}
