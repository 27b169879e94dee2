//! Megh: the online reinforcement-learning live-migration scheduler
//! (§4–5 of the paper).
//!
//! Megh models live VM migration as an infinite-horizon discounted MDP
//! whose actions are pairs `(j, k)` — migrate VM `j` to host `k` — and
//! resolves the curse of dimensionality by projecting the combinatorial
//! state–action space onto a `d = N × M` dimensional space spanned by one
//! sparse basis vector `φ_{jk}` per action (Theorem 1). The cost-to-go is
//! approximated as `V(s) = θᵀ φ_{π(s)}`, learned with an LSPI-style
//! actor–critic where the inverse transition operator `B = T⁻¹` is
//! maintained incrementally with the Sherman–Morrison formula (Eq. 11) —
//! never re-inverted — and exploration follows a Boltzmann policy with
//! exponentially decaying temperature (Algorithm 2).
//!
//! The implementation realises §5.2's complexity management literally:
//! `B` is stored as `(1/δ)·I` plus a sparse dictionary-of-keys delta, so
//! memory starts at `O(d)` *implicit* entries with zero explicit storage
//! (a new agent allocates nothing per action, whatever `d` is) and grows
//! only with the actions actually explored, and every per-step
//! update costs time proportional to the number of migrations, not to
//! `d`. The explicit non-zero count is exactly the "Q-table size" metric
//! of Figure 7.
//!
//! # Examples
//!
//! ```
//! use megh_core::{MeghAgent, MeghConfig};
//! use megh_sim::{DataCenterConfig, Simulation};
//! use megh_trace::PlanetLabConfig;
//!
//! let trace = PlanetLabConfig::new(12, 7).generate_steps(40);
//! let config = DataCenterConfig::paper_planetlab(6, 12);
//! let agent = MeghAgent::new(MeghConfig::paper_defaults(12, 6));
//! let outcome = Simulation::new(config, trace)?.run(agent);
//! assert_eq!(outcome.records().len(), 40);
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
// Every public item is documented.
#![deny(missing_docs)]

mod action;
mod agent;
mod checkpoint;
mod config;
pub mod diagnostics;
mod hier;
mod lspi;
mod policy;

pub use action::{Action, ActionSpace};
pub use agent::{MeghAgent, MeghCheckpoint};
pub use checkpoint::{
    fnv1a64, from_versioned_json, load_checkpoint, save_checkpoint, to_versioned_json,
    CheckpointError, Config, Migration, SemVer, CHECKPOINT_VERSION,
};
pub use config::MeghConfig;
pub use hier::{HierConfig, HierMegh};
pub use lspi::SparseLspi;
pub use policy::{BoltzmannPolicy, BoltzmannTable};
