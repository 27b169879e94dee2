//! The paired-seed runner: every sweep-shaped comparison — the
//! experiment table's rows and `megh sweep` — is one [`Row`] run over a
//! seed list by [`run_row`].
//!
//! A row names its setups (workload, fleet, days, initial placement,
//! oversubscription ratio, host outages), its arms (a label plus a
//! scheduler constructor) and its extra outputs. For each seed and
//! setup, [`run_row`] runs every arm on the same inputs — the seed
//! drives the trace, the initial placement and every arm's RNG — each
//! arm streaming the setup's generator through [`run_streamed`], so no
//! trace is ever materialized and a worker holds one day of it. Each
//! arm's difference from the row's first (reference) arm is therefore
//! paired by seed, and its standard error is the seed-to-seed spread of
//! that difference, not of either arm. Whole runs are the
//! grain at which threads pay here: 8 seeds × 30 days at 100 × 150 take
//! 5.9 s on 2 threads vs 10.1 s on 1 (2 vCPUs, DESIGN.md §15).
//!
//! # Determinism contract
//!
//! A [`RowReport`] is a pure function of `(row, seeds)` — the thread
//! count changes wall-clock time, never bytes:
//!
//! * [`map_seeds`] partitions the seeds into contiguous chunks and
//!   writes every result into a slot indexed by the seed's position, so
//!   results are merged in **seed order**, not completion order;
//! * aggregation is a fixed-order left-to-right reduction over that
//!   seed-ordered list;
//! * the report deliberately excludes the per-step decision-time
//!   measurements (`decision_micros`, `mean_decision_ms`), the only
//!   wall-clock — hence nondeterministic — fields a run produces. They
//!   ride beside it in [`RowRun`] and are printed, never written.

use serde::{Deserialize, Serialize};

use megh_linalg::{mean, std_dev};
use megh_trace::{GoogleConfig, PlanetLabConfig, TraceSource, WorkloadTrace, STEPS_PER_DAY};

use crate::{
    run_streamed, DataCenterConfig, HostOutage, InitialPlacement, Scheduler, SimError, SimOptions,
    SlavMetrics, StepRecord, SummaryReport,
};

/// Calls `f` once per seed, fanning the seeds across `threads` scoped
/// workers, and returns the results **in seed order**.
///
/// This is the one seed fan-out in the workspace: [`run_row`] is its
/// caller. `f` must be `Sync` because workers call it concurrently.
/// `threads` is clamped to `1..=seeds.len()`. Worker panics propagate
/// when the scope joins.
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

/// Deterministic aggregate of one arm over the seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Scheduler name (taken from the first run).
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

/// Workload family of a setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The PlanetLab-like trace on the PlanetLab fleet.
    PlanetLab,
    /// The Google-Cluster-like trace on the Google fleet.
    Google,
}

/// Initial placement of a setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// First-fit-decreasing by step-0 demand (CloudSim's power-aware
    /// initial allocation).
    DemandPacked,
    /// Uniformly at random, seeded by the row seed — "no initial bias
    /// for the learning" (§6.3).
    RandomUniform,
}

/// What one simulation of a row is built from, given a seed.
///
/// # Examples
///
/// ```
/// use megh_sim::sweep::{Setup, Workload};
///
/// let setup = Setup::new(Workload::Google, 5, 12, 2);
/// let config = setup.config(7);
/// assert_eq!((config.pms.len(), config.vms.len()), (5, 12));
/// assert_eq!(setup.trace(7).n_steps(), 2 * 288);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    /// Workload family.
    pub workload: Workload,
    /// Number of hosts.
    pub hosts: usize,
    /// Number of VMs.
    pub vms: usize,
    /// Simulated days (288 steps each).
    pub days: usize,
    /// Initial placement.
    pub placement: Placement,
    /// CPU oversubscription ratio of the initial packing.
    pub oversubscription: f64,
    /// Scheduled host outages.
    pub outages: Vec<HostOutage>,
}

impl Setup {
    /// A demand-packed setup at the default oversubscription ratio of 2,
    /// with no outages.
    pub const fn new(workload: Workload, hosts: usize, vms: usize, days: usize) -> Self {
        Self {
            workload,
            hosts,
            vms,
            days,
            placement: Placement::DemandPacked,
            oversubscription: 2.0,
            outages: Vec::new(),
        }
    }

    /// Steps the setup simulates.
    pub fn n_steps(&self) -> usize {
        self.days * STEPS_PER_DAY
    }

    /// The data centre for `seed`.
    pub fn config(&self, seed: u64) -> DataCenterConfig {
        let mut config = match self.workload {
            Workload::PlanetLab => DataCenterConfig::paper_planetlab(self.hosts, self.vms),
            Workload::Google => DataCenterConfig::paper_google(self.hosts, self.vms),
        };
        config.initial_placement = match self.placement {
            Placement::DemandPacked => InitialPlacement::DemandPacked,
            Placement::RandomUniform => InitialPlacement::RandomUniform { seed },
        };
        config.oversubscription_ratio = self.oversubscription;
        config.outages = self.outages.clone();
        config
    }

    /// The workload generator for `seed`, streaming [`Self::n_steps`]
    /// steps.
    pub fn source(&self, seed: u64) -> Box<dyn TraceSource + Send> {
        let steps = self.n_steps();
        match self.workload {
            Workload::PlanetLab => Box::new(PlanetLabConfig::new(self.vms, seed).source(steps)),
            Workload::Google => Box::new(GoogleConfig::new(self.vms, seed).source(steps)),
        }
    }

    /// The workload trace for `seed`: [`Self::source`], materialized.
    pub fn trace(&self, seed: u64) -> WorkloadTrace {
        self.source(seed).take_steps(self.n_steps())
    }

    /// One-line description for tables and the JSON.
    pub fn describe(&self) -> String {
        let days = if self.days == 1 { "day" } else { "days" };
        let mut text = format!(
            "{:?}, {} hosts x {} VMs, {} {days}, {:?} placement, oversubscription {}",
            self.workload, self.hosts, self.vms, self.days, self.placement, self.oversubscription
        );
        for o in &self.outages {
            text.push_str(&format!(
                ", host {} down {}..{}",
                o.host, o.from_step, o.until_step
            ));
        }
        text
    }
}

/// Builds an arm's scheduler for one seed on one setup's data centre.
pub type MakeScheduler<'a> =
    &'a (dyn Fn(&DataCenterConfig, u64) -> Box<dyn Scheduler + Send> + Sync);

/// One compared policy: a label plus its scheduler constructor.
#[derive(Clone, Copy)]
pub struct Arm<'a> {
    /// Column label (also the CSV header of series outputs).
    pub label: &'a str,
    /// The constructor.
    pub make: MakeScheduler<'a>,
}

/// Outputs a row keeps beside its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// The first seed's per-step records of every arm on the first
    /// setup ([`RowRun::series`]).
    Series,
    /// The Beloglazov metric bundle (SLATAH, PDM, SLAV, ESV), mean over
    /// the seeds.
    Slav,
}

/// One comparison: its arms run on each of its setups over a seed list.
pub struct Row<'a> {
    /// Name; the experiment table writes `results/<name>.json`.
    pub name: &'a str,
    /// Heading of the printed table.
    pub title: &'a str,
    /// Setups, one printed table and report block each.
    pub setups: Vec<Setup>,
    /// Arms; the first is the reference every other arm is paired with.
    pub arms: Vec<Arm<'a>>,
    /// Extra outputs.
    pub outputs: Vec<Output>,
}

/// Two-sided 95 % quantiles of Student's t, indexed by degrees of
/// freedom − 1 (df = 1…30).
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The two-sided 95 % critical value of Student's t with `df` degrees
/// of freedom; `None` at df = 0, where nothing can be judged. Above
/// df = 30 it stays at df = 30's value, which is conservative.
fn t_crit_95(df: usize) -> Option<f64> {
    T95.get(df.checked_sub(1)?).or(T95.last()).copied()
}

/// A paired difference `arm − reference` over the seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PairedDiff {
    /// Mean difference.
    pub mean: f64,
    /// Sample standard deviation of the per-seed differences.
    pub sd: f64,
    /// Standard error of the mean difference, `sd / √n`.
    pub se: f64,
    /// Whether `|mean| > t · se`, `t` the two-sided 95 % critical value
    /// of Student's t at `n − 1` degrees of freedom; never with fewer
    /// than two seeds.
    pub separated: bool,
}

impl PairedDiff {
    /// The paired difference of per-seed deltas.
    pub fn of(deltas: &[f64]) -> Self {
        let mean = mean(deltas);
        let sd = sample_sd(deltas);
        let se = sd / (deltas.len().max(1) as f64).sqrt();
        let df = deltas.len().saturating_sub(1);
        Self {
            mean,
            sd,
            se,
            separated: t_crit_95(df).is_some_and(|t| mean.abs() > t * se),
        }
    }
}

/// Sample standard deviation (`n − 1` denominator); 0 below two values.
fn sample_sd(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let ss: f64 = values.iter().map(|v| (v - m).powi(2)).sum();
    (ss / (values.len() - 1) as f64).sqrt()
}

/// An arm's paired differences from the reference arm, per metric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Differences {
    /// Total cost, USD.
    pub total_cost_usd: PairedDiff,
    /// Energy cost, USD.
    pub energy_cost_usd: PairedDiff,
    /// SLA cost, USD.
    pub sla_cost_usd: PairedDiff,
    /// VM migrations.
    pub total_migrations: PairedDiff,
    /// Mean active hosts.
    pub mean_active_hosts: PairedDiff,
}

impl Differences {
    fn paired(reference: &[SeedRun], arm: &[SeedRun]) -> Self {
        let diff = |metric: fn(&SeedRun) -> f64| {
            let deltas: Vec<f64> = arm
                .iter()
                .zip(reference)
                .map(|(a, r)| metric(a) - metric(r))
                .collect();
            PairedDiff::of(&deltas)
        };
        Self {
            total_cost_usd: diff(|r| r.total_cost_usd),
            energy_cost_usd: diff(|r| r.energy_cost_usd),
            sla_cost_usd: diff(|r| r.sla_cost_usd),
            total_migrations: diff(|r| r.total_migrations as f64),
            mean_active_hosts: diff(|r| r.mean_active_hosts),
        }
    }
}

/// One arm's deterministic result on one setup.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArmReport {
    /// The arm's label.
    pub label: String,
    /// Per-seed runs and their aggregate.
    pub sweep: SweepReport,
    /// Paired differences from the reference arm (`None` for the
    /// reference itself).
    pub vs_reference: Option<Differences>,
    /// Mean Beloglazov metrics over the seeds ([`Output::Slav`] rows).
    pub slav: Option<SlavMetrics>,
}

/// All arms on one setup.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BlockReport {
    /// [`Setup::describe`].
    pub setup: String,
    /// Arms in row order; the first is the reference.
    pub arms: Vec<ArmReport>,
}

/// A row's deterministic result: what `results/<row>.json` and
/// `megh sweep --out` hold.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RowReport {
    /// Row name.
    pub row: String,
    /// Row title.
    pub title: String,
    /// The seeds, in run order.
    pub seeds: Vec<u64>,
    /// One block per setup.
    pub blocks: Vec<BlockReport>,
}

/// A row's result: the deterministic report plus the wall-clock and
/// series data that are printed or written as CSV, never as JSON.
#[derive(Debug)]
pub struct RowRun {
    /// The deterministic report.
    pub report: RowReport,
    /// Mean milliseconds per decision over the seeds, `[block][arm]`.
    pub decision_ms: Vec<Vec<f64>>,
    /// The first seed's per-step records of each arm on the first setup
    /// ([`Output::Series`] rows only; empty otherwise).
    pub series: Vec<Vec<StepRecord>>,
}

/// One arm on one seed: the run plus what the table and outputs read.
struct SeedArm {
    scheduler: String,
    run: SeedRun,
    decision_ms: f64,
    slav: Option<SlavMetrics>,
    records: Vec<StepRecord>,
}

/// Runs every arm of `row` on every setup over `seeds`, fanning the
/// seeds across `threads` workers.
///
/// # Errors
///
/// Returns [`SimError`] when a setup builds an inconsistent simulation.
///
/// # Examples
///
/// ```
/// use megh_sim::sweep::{run_row, Arm, Row, Setup, Workload};
/// use megh_sim::NoOpScheduler;
///
/// let row = Row {
///     name: "noop",
///     title: "no migrations",
///     setups: vec![Setup::new(Workload::PlanetLab, 3, 6, 1)],
///     arms: vec![Arm { label: "noop", make: &|_, _| Box::new(NoOpScheduler) }],
///     outputs: vec![],
/// };
/// let run = run_row(&row, &[1, 2, 3], 2).unwrap();
/// assert_eq!(run.report.blocks[0].arms[0].sweep.runs.len(), 3);
/// ```
pub fn run_row(row: &Row, seeds: &[u64], threads: usize) -> Result<RowRun, SimError> {
    let wants_series = row.outputs.contains(&Output::Series);
    let wants_slav = row.outputs.contains(&Output::Slav);
    let mut run = RowRun {
        report: RowReport {
            row: row.name.to_string(),
            title: row.title.to_string(),
            seeds: seeds.to_vec(),
            blocks: Vec::new(),
        },
        decision_ms: Vec::new(),
        series: Vec::new(),
    };
    for (block, setup) in row.setups.iter().enumerate() {
        let keep_series = |seed| wants_series && block == 0 && seeds.first() == Some(&seed);
        let per_seed = map_seeds(seeds, threads, |seed| {
            let config = setup.config(seed);
            let mut arms = Vec::with_capacity(row.arms.len());
            for arm in &row.arms {
                let scheduler = (arm.make)(&config, seed);
                let outcome = run_streamed(
                    &config,
                    setup.source(seed),
                    scheduler,
                    SimOptions::default(),
                )?;
                let summary = outcome.report();
                arms.push(SeedArm {
                    run: SeedRun::new(seed, &summary),
                    decision_ms: summary.mean_decision_ms,
                    scheduler: summary.scheduler,
                    slav: wants_slav.then(|| SlavMetrics::from_run(&outcome)),
                    records: if keep_series(seed) {
                        outcome.records().to_vec()
                    } else {
                        Vec::new()
                    },
                });
            }
            Ok::<_, SimError>(arms)
        });
        // Transpose [seed][arm] into [arm][seed], seed order kept.
        let mut by_arm: Vec<Vec<SeedArm>> = row.arms.iter().map(|_| Vec::new()).collect();
        for seed_arms in per_seed {
            for (arm_runs, seed_arm) in by_arm.iter_mut().zip(seed_arms?) {
                arm_runs.push(seed_arm);
            }
        }
        let runs_of = |seed_arms: &[SeedArm]| -> Vec<SeedRun> {
            seed_arms.iter().map(|s| s.run.clone()).collect()
        };
        let reference = by_arm.first().map(|r| runs_of(r)).unwrap_or_default();
        let mut arms = Vec::new();
        let mut decision_ms = Vec::new();
        for (i, (arm, seed_arms)) in row.arms.iter().zip(&mut by_arm).enumerate() {
            let runs = runs_of(seed_arms);
            let ms: Vec<f64> = seed_arms.iter().map(|s| s.decision_ms).collect();
            decision_ms.push(mean(&ms));
            let slavs: Vec<SlavMetrics> = seed_arms.iter().filter_map(|s| s.slav.clone()).collect();
            if let Some(first) = seed_arms.first_mut().filter(|s| !s.records.is_empty()) {
                run.series.push(std::mem::take(&mut first.records));
            }
            arms.push(ArmReport {
                label: arm.label.to_string(),
                vs_reference: (i > 0).then(|| Differences::paired(&reference, &runs)),
                slav: wants_slav.then(|| mean_slav(&slavs)),
                sweep: SweepReport::from_runs(
                    seed_arms
                        .first()
                        .map(|s| s.scheduler.clone())
                        .unwrap_or_default(),
                    runs,
                ),
            });
        }
        run.report.blocks.push(BlockReport {
            setup: setup.describe(),
            arms,
        });
        run.decision_ms.push(decision_ms);
    }
    Ok(run)
}

fn mean_slav(runs: &[SlavMetrics]) -> SlavMetrics {
    let of = |metric: fn(&SlavMetrics) -> f64| mean(&runs.iter().map(metric).collect::<Vec<_>>());
    SlavMetrics {
        slatah: of(|m| m.slatah),
        pdm: of(|m| m.pdm),
        slav: of(|m| m.slav),
        energy_kwh: of(|m| m.energy_kwh),
        esv: of(|m| m.esv),
    }
}

/// Decimals that show `x` to `sig` significant digits, at most 12; 0
/// for zero and non-finite `x`.
fn sig_decimals(x: f64, sig: i32) -> usize {
    let x = x.abs();
    if x == 0.0 || !x.is_finite() {
        return 0;
    }
    let leading = x.log10().floor() as i32;
    (sig - 1 - leading).clamp(0, 12) as usize
}

/// The row as markdown: per setup, mean ± sd over the seeds per metric,
/// Δ ± SE against the reference arm, and mean ms per decision (three
/// significant digits); then the SLA-metric means where the row keeps
/// them. A Δ cell keeps its metric's precision unless its SE (its mean,
/// when the SE is 0) needs more decimals to show its first significant
/// digit.
pub fn format_row(run: &RowRun) -> String {
    let report = &run.report;
    let first = report.seeds.first().copied().unwrap_or_default();
    let last = report.seeds.last().copied().unwrap_or_default();
    let df = report.seeds.len().saturating_sub(1);
    let rule = match t_crit_95(df) {
        Some(t) => format!("* marks |Δ| > {t} · SE (Student t, {df} df, two-sided 95 %)"),
        None => "one seed judges no Δ (a paired difference needs two)".to_string(),
    };
    let mut out = String::new();
    for (block, ms) in report.blocks.iter().zip(&run.decision_ms) {
        let reference = block.arms.first().map_or("", |a| a.label.as_str());
        out.push_str(&format!(
            "### {} — {}\n\n{}; seeds {first}–{last}\n\n",
            report.row, report.title, block.setup
        ));
        out.push_str(
            "| arm | total USD | Δ total USD | energy USD | SLA USD | migrations | Δ migrations \
             | active hosts | Δ active hosts | ms/decision |\n\
             |---|---|---|---|---|---|---|---|---|---|\n",
        );
        for (arm, ms) in block.arms.iter().zip(ms) {
            let ms_prec = sig_decimals(*ms, 3);
            let cell = |metric: fn(&SeedRun) -> f64, prec: usize| {
                let xs: Vec<f64> = arm.sweep.runs.iter().map(metric).collect();
                format!("{:.prec$} ± {:.prec$}", mean(&xs), sample_sd(&xs))
            };
            let delta = |pick: fn(&Differences) -> &PairedDiff, prec: usize| {
                arm.vs_reference.as_ref().map_or("—".to_string(), |d| {
                    let d = pick(d);
                    let mark = if d.separated { " *" } else { "" };
                    let scale = if d.se > 0.0 { d.se } else { d.mean };
                    let prec = prec.max(sig_decimals(scale, 1));
                    format!("{:+.prec$} ± {:.prec$}{mark}", d.mean, d.se)
                })
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {ms:.ms_prec$} |\n",
                arm.label,
                cell(|r| r.total_cost_usd, 1),
                delta(|d| &d.total_cost_usd, 1),
                cell(|r| r.energy_cost_usd, 1),
                cell(|r| r.sla_cost_usd, 1),
                cell(|r| r.total_migrations as f64, 0),
                delta(|d| &d.total_migrations, 0),
                cell(|r| r.mean_active_hosts, 1),
                delta(|d| &d.mean_active_hosts, 1),
            ));
        }
        out.push_str(&format!(
            "\nΔ = arm − {reference}, paired by seed, ± its standard error; {rule}.\n\n"
        ));
        if block.arms.iter().any(|a| a.slav.is_some()) {
            out.push_str(
                "| arm | SLATAH | PDM | SLAV | energy kWh | ESV |\n|---|---|---|---|---|---|\n",
            );
            for arm in &block.arms {
                if let Some(m) = &arm.slav {
                    out.push_str(&format!(
                        "| {} | {:.4} | {:.6} | {:.8} | {:.2} | {:.6} |\n",
                        arm.label, m.slatah, m.pdm, m.slav, m.energy_kwh, m.esv
                    ));
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataCenterView, MigrationRequest, NoOpScheduler, PmId, Simulation, VmId};

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

    /// Reference NoOp, then the LCG mover, on a 4-host, 8-VM day.
    fn mini_row() -> Row<'static> {
        Row {
            name: "mini",
            title: "mini",
            setups: vec![Setup::new(Workload::PlanetLab, 4, 8, 1)],
            arms: vec![
                Arm {
                    label: "noop",
                    make: &|_, _| Box::new(NoOpScheduler),
                },
                Arm {
                    label: "lcg",
                    make: &|_, seed| Box::new(LcgScheduler { state: seed }),
                },
            ],
            outputs: vec![],
        }
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
        assert!(map_seeds(&[], 4, |seed| seed).is_empty());
    }

    #[test]
    fn row_runs_are_merged_in_seed_order_and_each_seed_is_its_own_setup() {
        let seeds = [9u64, 1, 5];
        let run = run_row(&mini_row(), &seeds, 3).unwrap();
        assert_eq!(run.report.seeds, seeds);
        let setup = &mini_row().setups[0];
        for arm in &run.report.blocks[0].arms {
            let got: Vec<u64> = arm.sweep.runs.iter().map(|r| r.seed).collect();
            assert_eq!(got, seeds);
        }
        // The seed drives the trace as well as the arm: the reference is
        // NoOp on each seed's own trace.
        for (run, &seed) in run.report.blocks[0].arms[0].sweep.runs.iter().zip(&seeds) {
            let sim = Simulation::new(setup.config(seed), setup.trace(seed)).unwrap();
            assert_eq!(
                run.total_cost_usd,
                sim.run(NoOpScheduler).report().total_cost_usd
            );
        }
        let noop = &run.report.blocks[0].arms[0].sweep.runs;
        assert_ne!(noop[0].total_cost_usd, noop[1].total_cost_usd);
    }

    #[test]
    fn thread_count_does_not_change_report_bytes() {
        let seeds: Vec<u64> = (0..8).collect();
        let serialize = |threads: usize| {
            let run = run_row(&mini_row(), &seeds, threads).unwrap();
            serde_json::to_string(&run.report).unwrap()
        };
        let single = serialize(1);
        assert_eq!(single, serialize(8));
        assert_eq!(single, serialize(3)); // uneven chunks too
        assert_eq!(single, serialize(64)); // clamped to the seed count
    }

    #[test]
    fn paired_differences_are_the_per_seed_deltas() {
        let run = run_row(&mini_row(), &[3, 4, 5], 1).unwrap();
        let [noop, lcg] = &run.report.blocks[0].arms[..] else {
            panic!("two arms");
        };
        assert!(noop.vs_reference.is_none());
        let deltas: Vec<f64> = lcg
            .sweep
            .runs
            .iter()
            .zip(&noop.sweep.runs)
            .map(|(a, r)| a.total_cost_usd - r.total_cost_usd)
            .collect();
        let diff = &lcg.vs_reference.as_ref().unwrap().total_cost_usd;
        assert_eq!(*diff, PairedDiff::of(&deltas));
        let table = format_row(&run);
        assert!(table.contains("| lcg |"), "{table}");
        assert!(table.contains("Δ = arm − noop"), "{table}");
        assert!(table.contains("> 4.303 · SE (Student t, 2 df"), "{table}");
    }

    #[test]
    fn format_row_shows_small_deltas_and_decision_times() {
        let run = |seed, cost| SeedRun {
            seed,
            steps: 288,
            total_cost_usd: cost,
            energy_cost_usd: cost,
            sla_cost_usd: 0.0,
            total_migrations: 3,
            mean_active_hosts: 2.0,
        };
        let reference = vec![run(1, 10.0), run(2, 12.0)];
        let arm = vec![run(1, 9.96), run(2, 11.97)];
        let arm_report = |label: &str, runs: &Vec<SeedRun>, vs: Option<Differences>| ArmReport {
            label: label.to_string(),
            sweep: SweepReport::from_runs(label.to_string(), runs.clone()),
            vs_reference: vs,
            slav: None,
        };
        let mut differences = Differences::paired(&reference, &arm);
        // Every seed's active hosts moved by exactly −0.01: SE 0.
        differences.mean_active_hosts = PairedDiff::of(&[-0.01, -0.01]);
        let setup = Setup::new(Workload::PlanetLab, 3, 6, 1);
        let table = format_row(&RowRun {
            report: RowReport {
                row: "hand".to_string(),
                title: "hand-built".to_string(),
                seeds: vec![1, 2],
                blocks: vec![BlockReport {
                    setup: setup.describe(),
                    arms: vec![
                        arm_report("ref", &reference, None),
                        arm_report("arm", &arm, Some(differences)),
                    ],
                }],
            },
            decision_ms: vec![vec![0.003456, 12.3456]],
            series: Vec::new(),
        });
        let lines: Vec<&str> = table.lines().collect();
        assert!(
            lines[2].starts_with("PlanetLab, 3 hosts x 6 VMs, 1 day, "),
            "{table}"
        );
        assert_eq!(
            lines[6],
            "| ref | 11.0 ± 1.4 | — | 11.0 ± 1.4 | 0.0 ± 0.0 | 3 ± 0 | — | 2.0 ± 0.0 | — | 0.00346 |"
        );
        // Δ total −0.035 with SE 0.005 shows to the SE's first digit;
        // Δ migrations is exactly 0 and keeps its integer precision.
        assert_eq!(
            lines[7],
            "| arm | 11.0 ± 1.4 | -0.035 ± 0.005 | 11.0 ± 1.4 | 0.0 ± 0.0 | 3 ± 0 | +0 ± 0 \
             | 2.0 ± 0.0 | -0.01 ± 0.00 * | 12.3 |"
        );
        assert!(Setup::new(Workload::Google, 3, 6, 2)
            .describe()
            .contains(", 2 days, "));
    }

    #[test]
    fn aggregates_match_hand_math() {
        let run = |seed, cost| SeedRun {
            seed,
            steps: 10,
            total_cost_usd: cost,
            energy_cost_usd: cost,
            sla_cost_usd: 0.0,
            total_migrations: seed as usize,
            mean_active_hosts: 2.0,
        };
        let report = SweepReport::from_runs("x".into(), vec![run(3, 5.0), run(4, 2.0)]);
        assert_eq!(report.seeds, 2);
        assert_eq!(report.mean_total_cost_usd, 3.5);
        assert_eq!(report.std_total_cost_usd, 1.5);
        assert_eq!(report.min_total_cost_usd, 2.0);
        assert_eq!(report.max_total_cost_usd, 5.0);
        assert_eq!(report.mean_total_migrations, 3.5);
        let empty = SweepReport::from_runs("x".into(), Vec::new());
        assert_eq!(empty.seeds, 0);
        assert_eq!(empty.mean_total_cost_usd, 0.0);
    }

    #[test]
    fn setup_maps_outages_and_placement_into_the_data_centre() {
        let mut setup = Setup::new(Workload::PlanetLab, 4, 8, 1);
        setup.outages.push(HostOutage {
            host: 1,
            from_step: 2,
            until_step: 9,
        });
        setup.placement = Placement::RandomUniform;
        let config = setup.config(5);
        assert_eq!(config.outages, setup.outages);
        assert_eq!(
            config.initial_placement,
            InitialPlacement::RandomUniform { seed: 5 }
        );
        assert!(setup.describe().ends_with(", host 1 down 2..9"));
        assert_eq!(
            setup.trace(5),
            PlanetLabConfig::new(8, 5).generate(1),
            "the generator is the workload's, seeded by the row seed"
        );
    }

    #[test]
    fn paired_difference_uses_the_sample_sd_and_the_t_rule() {
        let d = PairedDiff::of(&[1.0, 3.0]);
        assert_eq!(d.mean, 2.0);
        assert!((d.sd - 2f64.sqrt()).abs() < 1e-12);
        assert!((d.se - 1.0).abs() < 1e-12);
        assert!(!d.separated, "2 < 12.706 · 1 (1 df)");
        assert!(PairedDiff::of(&[10.0, 10.5, 9.5]).separated);
        assert!(!PairedDiff::of(&[0.0; 8]).separated);
        assert_eq!(sample_sd(&[4.0]), 0.0);
        // Deltas m ± 1 over n seeds have SE = sqrt(n / (n − 1)) / sqrt(n),
        // so |m| = k · SE is separated exactly when k exceeds the critical
        // value at n − 1 df: 2.365 at 7 (the experiment table's eight
        // seeds), 3.182 at 3. 3 · SE therefore separates at 7 df only.
        for (n, t, below, above) in [(8, 2.365, 2.36, 2.37), (4, 3.182, 3.0, 3.2)] {
            assert_eq!(t_crit_95(n - 1), Some(t));
            let se = (n as f64 / (n - 1) as f64).sqrt() / (n as f64).sqrt();
            let around = |k: f64| -> Vec<f64> {
                (0..n)
                    .map(|i| k * se + if i % 2 == 0 { 1.0 } else { -1.0 })
                    .collect()
            };
            assert!((PairedDiff::of(&around(below)).se - se).abs() < 1e-12);
            assert!(
                !PairedDiff::of(&around(below)).separated,
                "{n} seeds, {below} · SE"
            );
            assert!(
                PairedDiff::of(&around(above)).separated,
                "{n} seeds, {above} · SE"
            );
        }
        // One seed: SD = SE = 0, so any Δ would pass a t rule; a paired
        // difference needs two seeds to be judged at all.
        let one = PairedDiff::of(&[5.0]);
        assert_eq!((one.mean, one.sd, one.se), (5.0, 0.0, 0.0));
        assert!(!one.separated);
        assert_eq!(t_crit_95(0), None);
        assert_eq!(t_crit_95(30), t_crit_95(100));
    }
}
