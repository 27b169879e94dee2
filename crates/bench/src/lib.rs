//! The experiment harness (see DESIGN.md §4 for the experiment index).
//!
//! Every sweep-shaped table and figure is a row of
//! [`experiments::table`], run over eight paired seeds by the
//! `experiment` binary through [`megh_sim::sweep::run_row`], which
//! prints a markdown table and drops `results/<row>.json` (plus the
//! series CSVs of the rows that keep them). Figure 1 characterises the
//! workloads and is no sweep, so `fig1_workloads` is its own binary;
//! `render_figures` turns the CSVs into SVGs. Figure 7 and §5.2's
//! complexity claim are tests (`tests/paper_claims.rs`,
//! `crates/core/tests/footprint.rs`).
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
mod report;

pub use plot::LineChart;
pub use report::{ensure_results_dir, write_csv, write_json, ResultsError};
