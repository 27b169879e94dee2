//! A discrete-time cloud data-center simulator — the CloudSim substitute
//! for the Megh reproduction.
//!
//! The paper (§3, §6.1) evaluates migration schedulers inside CloudSim
//! with: M heterogeneous physical machines (half HP ProLiant ML110 G4,
//! half G5, with the SPECpower consumption tables of Table 1), N VMs
//! driven by CPU-utilization traces sampled every 5 minutes, an energy
//! cost of 0.18675 USD/kWh, a 1.2 USD/h VM fee with 16.7 % / 33.3 % SLA
//! paybacks, a β = 70 % host-overload threshold, an α = 30 % migration
//! downtime threshold, and a cap of 2 % of VMs migrated per step.
//!
//! This crate implements that whole substrate:
//!
//! * [`PowerModel`] — SPECpower tables with linear interpolation,
//! * [`PmSpec`] / [`VmSpec`] — machine catalogues,
//! * [`CostParams`] — the §3.2–3.3 energy and SLA cost models,
//! * [`Simulation`] — the step loop that applies a [`Scheduler`]'s
//!   migration decisions, accounts energy/SLA costs, and records the
//!   metrics every table and figure of §6 is built from.
//!
//! Schedulers (Megh, the MMT family, MadVM, Q-learning) live in sibling
//! crates and implement the [`Scheduler`] trait defined here.
//!
//! # Examples
//!
//! ```
//! use megh_sim::{DataCenterConfig, NoOpScheduler, Simulation};
//! use megh_trace::PlanetLabConfig;
//!
//! let trace = PlanetLabConfig::new(10, 1).generate_steps(20);
//! let config = DataCenterConfig::paper_planetlab(5, 10);
//! let outcome = Simulation::new(config, trace)
//!     .expect("valid setup")
//!     .run(NoOpScheduler::default());
//! assert_eq!(outcome.records().len(), 20);
//! assert!(outcome.report().total_cost_usd > 0.0);
//! ```

// No unsafe code anywhere in this crate.
#![forbid(unsafe_code)]
// No explicit panic path in library code; the few sites that keep one
// carry an `#[expect]` with the reason (clippy enforces both).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Seeded determinism: no hash-ordered containers, wall clock or free
// threads (the list is `clippy.toml` beside this crate's manifest).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

mod config;
mod cost;
mod engine;
mod metrics;
mod power;
mod scheduler;
mod slav;
mod spec;
mod step;
pub mod sweep;
mod view;

pub use config::{DataCenterConfig, HostOutage, InitialPlacement, SimError};
pub use cost::{CostParams, SlaBand};
pub use engine::{run_streamed, SimOptions, Simulation, SimulationOutcome};
pub use metrics::{Comparison, MigrationEvent, StepEvents, StepRecord, SummaryReport};
pub use power::PowerModel;
pub use scheduler::{MigrationRequest, NoOpScheduler, Scheduler, StepFeedback};
pub use slav::SlavMetrics;
pub use spec::{migration_seconds, PmSpec, VmSpec};
pub use sweep::{run_sweep, SeedRun, SweepReport};
pub use view::{DataCenterView, PmId, VmId};
