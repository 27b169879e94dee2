//! The experiment harness (see DESIGN.md §4 for the experiment index).
//!
//! Every sweep-shaped table and figure is a row of
//! [`experiments::table`], run over eight paired seeds by the
//! `experiment` binary through [`megh_sim::sweep::run_row`], which
//! prints a markdown table and drops `results/<row>.json` (plus the
//! figure CSVs). The probes that are not
//! sweeps — `fig1_workloads`, `fig6_scalability`, `fig7_qtable_growth`,
//! `fig8_sensitivity` — are their own binaries and take `--full` for the
//! paper's grids; `render_figures` turns the CSVs into SVGs.
//!
//! # Examples
//!
//! ```
//! use megh_bench::experiments::row;
//! use megh_sim::sweep::Placement;
//!
//! let fig4 = row("fig4").unwrap();
//! assert_eq!(fig4.setups[0].placement, Placement::RandomUniform);
//! let config = fig4.setups[0].config(1);
//! assert_eq!((config.pms.len(), config.vms.len()), (100, 150));
//! ```

// No unsafe code anywhere in this crate.
#![forbid(unsafe_code)]

pub mod experiments;
mod plot;
mod probe;
mod report;
mod scale;

pub use plot::LineChart;
pub use probe::MeghProbe;
pub use report::{ensure_results_dir, write_csv, write_json, ResultsError};
pub use scale::{scale_from_args, Scale};
