//! Workload traces for the Megh reproduction.
//!
//! The paper (§6.2) drives its CloudSim experiments with two real traces:
//!
//! * **PlanetLab** (CoMoN): per-VM CPU utilization sampled every 5 minutes
//!   for 7 days; workloads run continuously, average ≈ 12 %, standard
//!   deviation ≈ 34 %, instantaneous range ≈ 5–90 %.
//! * **Google Cluster**: tasks on Hadoop/MapReduce machines with durations
//!   spanning 10¹–10⁶ seconds that fit no standard parametric
//!   distribution; VMs run one task to completion, then switch.
//!
//! Those datasets are not redistributable here, so this crate provides
//! *synthetic generators calibrated to the same published summary
//! statistics* (see DESIGN.md §2 for the substitution argument), plus the
//! statistics and CSV machinery used by the experiment harness to
//! regenerate Figure 1.
//!
//! # Examples
//!
//! ```
//! use megh_trace::{PlanetLabConfig, TraceStats};
//!
//! let trace = PlanetLabConfig::new(50, 288).generate(7);
//! assert_eq!(trace.n_vms(), 50);
//! let stats = TraceStats::compute(&trace);
//! assert!(stats.overall_mean > 0.0);
//! ```

// No unsafe code anywhere in this crate.
#![forbid(unsafe_code)]

mod csv;
mod diurnal;
mod files;
mod google;
mod planetlab;
mod source;
mod stats;
mod trace;

pub use csv::{load_csv, save_csv, CsvSource, TraceCsvError};
pub use diurnal::DiurnalConfig;
pub use files::PlanetLabDirSource;
pub use google::GoogleConfig;
pub use planetlab::PlanetLabConfig;
pub use source::{
    DiurnalSource, GoogleSource, PlanetLabSource, TraceCursor, TraceHeader, TraceSource,
};
pub use stats::{log10_histogram, CullenFrey, DurationStats, TraceStats};
pub use trace::WorkloadTrace;

/// The observation interval used throughout the paper: 5 minutes.
pub const STEP_SECONDS: u64 = 300;

/// Steps per simulated day at the 5-minute interval.
pub const STEPS_PER_DAY: usize = 288;
