//! Parallel seed-sweep driver for paper-scale experiments.
//!
//! Tables 2–3 and the statistical claims around them are averages over
//! many seeds, and each seed's run is independent: [`Simulation::run`]
//! takes `&self`, so one simulation (config + trace) can drive many
//! scheduler instances concurrently. This module fans a seed list across
//! `std::thread::scope` workers and aggregates the outcomes into a
//! [`SweepReport`]. Whole runs are the grain at which threads pay
//! here: 8 seeds × 30 days at 100 × 150 take 5.9 s on 2 threads vs
//! 10.1 s on 1 (2 vCPUs, DESIGN.md §15).
//!
//! # Determinism contract
//!
//! A sweep's aggregated output is a pure function of `(simulation,
//! seeds, scheduler factory)` — the thread count changes wall-clock
//! time, never bytes:
//!
//! * seeds are partitioned into contiguous chunks and every outcome is
//!   written into a slot indexed by the seed's position, so results are
//!   merged in **seed order**, not completion order;
//! * aggregation is a fixed-order left-to-right reduction over that
//!   seed-ordered list;
//! * [`SweepReport`] deliberately excludes the per-step decision-time
//!   measurements (`decision_micros`, `mean_decision_ms`), the only
//!   wall-clock — hence nondeterministic — fields a run produces.
//!   Timing claims belong to the bench harness, not the sweep report.

use serde::{Deserialize, Serialize};

use megh_linalg::{mean, std_dev};

use crate::{Scheduler, Simulation, SimulationOutcome, SummaryReport};

/// Calls `f` once per seed, fanning the seeds across `threads` scoped
/// workers, and returns the results **in seed order**.
///
/// This is the one seed fan-out in the workspace: [`run_sweep`] and the
/// bench crate's experiment runner are both callers. `f` must be `Sync`
/// because workers call it concurrently. `threads` is clamped to
/// `1..=seeds.len()`. Worker panics propagate when the scope joins.
///
/// # Examples
///
/// ```
/// use megh_sim::sweep::map_seeds;
///
/// assert_eq!(map_seeds(&[3, 1, 2], 2, |seed| seed * 10), vec![30, 10, 20]);
/// ```
pub fn map_seeds<T, F>(seeds: &[u64], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    if seeds.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, seeds.len());
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(seeds.len(), || None);
    // Contiguous chunks keep each worker on a disjoint slice of the slot
    // vector: no locks, and slot index == seed index by construction.
    let chunk = seeds.len().div_ceil(threads);
    if threads == 1 {
        for (slot, &seed) in slots.iter_mut().zip(seeds) {
            *slot = Some(f(seed));
        }
    } else {
        let f = &f;
        std::thread::scope(|scope| {
            for (seed_chunk, slot_chunk) in seeds.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (slot, &seed) in slot_chunk.iter_mut().zip(seed_chunk) {
                        *slot = Some(f(seed));
                    }
                });
            }
        });
    }
    // Every slot was filled by exactly one worker (panics would have
    // propagated out of the scope above), so flatten drops nothing.
    slots.into_iter().flatten().collect()
}

/// Runs `sim` once per seed, fanning the seeds across `threads` scoped
/// workers ([`map_seeds`]), and returns the outcomes **in seed order**.
///
/// `make` builds a fresh scheduler for each seed.
///
/// # Examples
///
/// ```
/// use megh_sim::{sweep::run_sweep, DataCenterConfig, NoOpScheduler, Simulation};
/// use megh_trace::PlanetLabConfig;
///
/// let trace = PlanetLabConfig::new(6, 1).generate_steps(10);
/// let sim = Simulation::new(DataCenterConfig::paper_planetlab(3, 6), trace).unwrap();
/// let outcomes = run_sweep(&sim, &[1, 2, 3], 2, |_seed| NoOpScheduler::default());
/// assert_eq!(outcomes.len(), 3);
/// ```
pub fn run_sweep<S, F>(
    sim: &Simulation,
    seeds: &[u64],
    threads: usize,
    make: F,
) -> Vec<SimulationOutcome>
where
    S: Scheduler,
    F: Fn(u64) -> S + Sync,
{
    map_seeds(seeds, threads, |seed| sim.run(make(seed)))
}

/// One seed's deterministic summary — a [`crate::SummaryReport`] minus
/// its wall-clock decision-time fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedRun {
    /// The seed this run used.
    pub seed: u64,
    /// Steps simulated.
    pub steps: usize,
    /// Total operation cost, USD.
    pub total_cost_usd: f64,
    /// Energy component of the total, USD.
    pub energy_cost_usd: f64,
    /// SLA component of the total, USD.
    pub sla_cost_usd: f64,
    /// Total VM migrations.
    pub total_migrations: usize,
    /// Mean number of active hosts.
    pub mean_active_hosts: f64,
}

/// Deterministic aggregate over a seed sweep — the raw material for a
/// "mean ± std over N seeds" table row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Scheduler name (taken from the first outcome).
    pub scheduler: String,
    /// Number of seeds swept.
    pub seeds: usize,
    /// Per-seed summaries, in seed order.
    pub runs: Vec<SeedRun>,
    /// Mean of `total_cost_usd` over the seeds.
    pub mean_total_cost_usd: f64,
    /// Population standard deviation of `total_cost_usd` (0 for one
    /// seed).
    pub std_total_cost_usd: f64,
    /// Smallest per-seed total cost.
    pub min_total_cost_usd: f64,
    /// Largest per-seed total cost.
    pub max_total_cost_usd: f64,
    /// Mean migration count over the seeds.
    pub mean_total_migrations: f64,
    /// Mean of the per-seed mean active-host counts.
    pub mean_active_hosts: f64,
}

impl SeedRun {
    /// The deterministic part of one run's summary.
    pub fn new(seed: u64, summary: &SummaryReport) -> Self {
        Self {
            seed,
            steps: summary.steps,
            total_cost_usd: summary.total_cost_usd,
            energy_cost_usd: summary.energy_cost_usd,
            sla_cost_usd: summary.sla_cost_usd,
            total_migrations: summary.total_migrations,
            mean_active_hosts: summary.mean_active_hosts,
        }
    }
}

impl SweepReport {
    /// Aggregates seed-ordered outcomes (as returned by [`run_sweep`])
    /// into a report.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` and `outcomes` disagree in length.
    pub fn from_outcomes(seeds: &[u64], outcomes: &[SimulationOutcome]) -> Self {
        assert_eq!(seeds.len(), outcomes.len(), "one outcome per seed required");
        let runs = seeds
            .iter()
            .zip(outcomes)
            .map(|(&seed, outcome)| SeedRun::new(seed, &outcome.report()))
            .collect(); // report assembly is a cold path
        let scheduler = outcomes
            .first()
            .map(|o| o.scheduler().to_string())
            .unwrap_or_default();
        Self::from_runs(scheduler, runs)
    }

    /// Aggregates seed-ordered runs of one scheduler into a report.
    pub fn from_runs(scheduler: String, runs: Vec<SeedRun>) -> Self {
        let costs: Vec<f64> = runs.iter().map(|r| r.total_cost_usd).collect();
        if runs.is_empty() {
            // Keep every aggregate finite so the report always
            // serializes to plain JSON numbers.
            return Self {
                scheduler,
                seeds: 0,
                runs,
                mean_total_cost_usd: 0.0,
                std_total_cost_usd: 0.0,
                min_total_cost_usd: 0.0,
                max_total_cost_usd: 0.0,
                mean_total_migrations: 0.0,
                mean_active_hosts: 0.0,
            };
        }
        Self {
            scheduler,
            seeds: runs.len(),
            mean_total_cost_usd: mean(&costs),
            std_total_cost_usd: if costs.len() > 1 {
                std_dev(&costs)
            } else {
                0.0
            },
            min_total_cost_usd: costs.iter().copied().fold(f64::INFINITY, f64::min),
            max_total_cost_usd: costs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean_total_migrations: mean(
                &runs
                    .iter()
                    .map(|r| r.total_migrations as f64)
                    .collect::<Vec<f64>>(),
            ),
            mean_active_hosts: mean(
                &runs
                    .iter()
                    .map(|r| r.mean_active_hosts)
                    .collect::<Vec<f64>>(),
            ),
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataCenterConfig, DataCenterView, MigrationRequest, PmId, VmId};
    use megh_trace::PlanetLabConfig;

    /// A deliberately seed-sensitive scheduler: an LCG stream decides
    /// which VM moves where, so different seeds produce different runs
    /// while each seed stays fully deterministic.
    struct LcgScheduler {
        state: u64,
    }

    impl Scheduler for LcgScheduler {
        fn name(&self) -> &str {
            "LCG"
        }

        fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let vm = (self.state >> 33) as usize % view.n_vms();
            let host = (self.state >> 13) as usize % view.n_hosts();
            vec![MigrationRequest::new(VmId(vm), PmId(host))]
        }
    }

    fn mini_sim(steps: usize) -> Simulation {
        let trace = PlanetLabConfig::new(8, 7).generate_steps(steps);
        Simulation::new(DataCenterConfig::paper_planetlab(4, 8), trace).unwrap()
    }

    #[test]
    fn map_seeds_returns_results_in_seed_order_for_any_thread_count() {
        let seeds = [9u64, 1, 5, 7, 3];
        let expected: Vec<u64> = seeds.iter().map(|s| s * 100 + 1).collect();
        for threads in 1..=seeds.len() + 1 {
            assert_eq!(
                map_seeds(&seeds, threads, |seed| seed * 100 + 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn outcomes_are_merged_in_seed_order() {
        let sim = mini_sim(20);
        let seeds = [9u64, 1, 5];
        let outcomes = run_sweep(&sim, &seeds, 3, |seed| LcgScheduler { state: seed });
        let report = SweepReport::from_outcomes(&seeds, &outcomes);
        let got: Vec<u64> = report.runs.iter().map(|r| r.seed).collect();
        assert_eq!(got, seeds);
    }

    #[test]
    fn thread_count_does_not_change_report_bytes() {
        let sim = mini_sim(25);
        let seeds: Vec<u64> = (0..8).collect();
        let serialize = |threads: usize| {
            let outcomes = run_sweep(&sim, &seeds, threads, |seed| LcgScheduler { state: seed });
            serde_json::to_string(&SweepReport::from_outcomes(&seeds, &outcomes)).unwrap()
        };
        let single = serialize(1);
        assert_eq!(single, serialize(8));
        assert_eq!(single, serialize(3)); // uneven chunks too
    }

    #[test]
    fn different_seeds_produce_different_runs() {
        let sim = mini_sim(30);
        let seeds = [1u64, 2];
        let outcomes = run_sweep(&sim, &seeds, 2, |seed| LcgScheduler { state: seed });
        assert_ne!(outcomes[0].final_placement(), outcomes[1].final_placement());
    }

    #[test]
    fn aggregates_match_hand_math() {
        let sim = mini_sim(15);
        let seeds = [3u64, 4];
        let outcomes = run_sweep(&sim, &seeds, 1, |seed| LcgScheduler { state: seed });
        let report = SweepReport::from_outcomes(&seeds, &outcomes);
        let c0 = outcomes[0].report().total_cost_usd;
        let c1 = outcomes[1].report().total_cost_usd;
        assert_eq!(report.seeds, 2);
        assert!((report.mean_total_cost_usd - (c0 + c1) / 2.0).abs() < 1e-12);
        assert_eq!(report.min_total_cost_usd, c0.min(c1));
        assert_eq!(report.max_total_cost_usd, c0.max(c1));
    }

    #[test]
    fn empty_seed_list_yields_empty_report() {
        let sim = mini_sim(5);
        let outcomes = run_sweep(&sim, &[], 4, |seed| LcgScheduler { state: seed });
        assert!(outcomes.is_empty());
        let report = SweepReport::from_outcomes(&[], &outcomes);
        assert_eq!(report.seeds, 0);
        assert!(report.runs.is_empty());
    }

    #[test]
    fn oversized_thread_count_is_clamped() {
        let sim = mini_sim(10);
        let seeds = [1u64, 2];
        let outcomes = run_sweep(&sim, &seeds, 64, |seed| LcgScheduler { state: seed });
        assert_eq!(outcomes.len(), 2);
    }
}
