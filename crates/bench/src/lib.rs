//! The experiment harness: shared machinery behind the per-table and
//! per-figure binaries (see DESIGN.md §4 for the experiment index).
//!
//! Every binary follows the same pattern: build the §6 experimental
//! setup at either *reduced* scale (default — minutes on a laptop,
//! shapes preserved) or *full* paper scale (`--full`), run the relevant
//! schedulers, print the paper-style table, and drop machine-readable
//! CSV/JSON into `results/`.
//!
//! # Examples
//!
//! ```
//! use megh_bench::{planetlab_experiment, Scale};
//!
//! let (config, trace) = planetlab_experiment(Scale::Reduced, 1);
//! assert!(config.pms.len() >= 100);
//! assert_eq!(trace.n_vms(), config.vms.len());
//! ```

// No unsafe code anywhere in this crate.
#![forbid(unsafe_code)]

mod plot;
mod probe;
mod report;
mod runner;
mod setup;

pub use plot::LineChart;
pub use probe::MeghProbe;
pub use report::{
    ensure_results_dir, format_sweep_table, format_table, write_csv, write_json, ResultsError,
};
pub use runner::{
    replicate_sweep, run_all_mmt, run_madvm, run_megh, run_scheduler, sweep_megh, SeriesBundle,
};
pub use setup::{
    google_experiment, madvm_subset_experiment, planetlab_experiment, scale_from_args,
    usize_flag_from_args, Scale,
};
