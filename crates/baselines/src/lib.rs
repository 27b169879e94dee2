//! Baseline migration schedulers the paper compares Megh against (§2, §6.3).
//!
//! * **The MMT family** (Beloglazov & Buyya 2012; Beloglazov, Abawajy &
//!   Buyya 2012): dynamic-consolidation heuristics built from three
//!   pluggable stages — an [`OverloadDetector`] per host (THR static
//!   threshold, IQR / MAD adaptive thresholds, LR / LRR local-regression
//!   predictors), Minimum-Migration-Time VM selection, and Power-Aware
//!   Best-Fit-Decreasing placement — plus underload consolidation that
//!   empties and sleeps the least-loaded hosts. [`MmtScheduler`] wires
//!   them together; [`MmtFlavor`] names the five variants of Tables 2–3.
//! * **MadVM** (Han et al., INFOCOM 2016): the approximate-MDP comparator.
//!   Per-VM discretized utilization MDPs with frequentist transition
//!   estimates and a per-step value-iteration sweep — deliberately heavy
//!   bookkeeping, which is exactly why the paper finds it ~1000× slower
//!   than Megh (Figures 4(d), 5(d)).
//! * **Q-learning** ([`QLearningScheduler`]): the classical tabular agent
//!   the paper discusses as the offline-trained comparator; it must be
//!   trained on a workload prefix before it acts sensibly.
//!
//! # Examples
//!
//! ```
//! use megh_baselines::{MmtFlavor, MmtScheduler};
//! use megh_sim::{DataCenterConfig, Simulation};
//! use megh_trace::PlanetLabConfig;
//!
//! let trace = PlanetLabConfig::new(12, 5).generate_steps(30);
//! let sim = Simulation::new(DataCenterConfig::paper_planetlab(6, 12), trace)?;
//! let outcome = sim.run(MmtScheduler::new(MmtFlavor::Thr));
//! assert_eq!(outcome.scheduler(), "THR-MMT");
//! # Ok::<(), megh_sim::SimError>(())
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

mod detector;
mod madvm;
mod mmt;
mod order;
mod placement;
mod qlearning;
mod selection;

pub use detector::OverloadDetector;
pub use madvm::MadVmScheduler;
pub use mmt::{MmtFlavor, MmtScheduler};
pub use order::total_f64;
pub use placement::{power_aware_best_fit, PlacementRound};
pub use qlearning::QLearningScheduler;
pub use selection::{select_minimum_migration_time, select_random, SelectionPolicy};
