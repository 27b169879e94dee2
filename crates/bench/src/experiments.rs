//! The experiment table: every sweep-shaped table and figure of the
//! reproduction as one [`Row`] of data, run by one paired-seed runner.
//!
//! A row names its setups (workload, fleet, days, initial placement,
//! oversubscription ratio), its arms (a label plus a scheduler
//! constructor) and its extra outputs. Every row runs on [`SEEDS`]: for
//! each seed and setup, [`run_row`] builds one [`Simulation`] — the seed
//! drives the trace, the initial placement and every arm's RNG — and
//! runs every arm on it. Each arm's difference from the row's first
//! (reference) arm is therefore paired by seed, and its standard error
//! is the seed-to-seed spread of that difference, not of either arm.
//!
//! The seed fan-out is [`megh_sim::map_seeds`]. A [`RowReport`] holds
//! deterministic fields only, so its JSON is byte-identical for any
//! thread count; wall-clock decision times ride beside it in [`RowRun`]
//! and are printed, never written.

use std::path::Path;

use megh_baselines::{
    MadVmConfig, MadVmScheduler, MmtFlavor, MmtScheduler, OverloadDetector, QLearningConfig,
    QLearningScheduler,
};
use megh_core::diagnostics::detect_convergence;
use megh_core::{MeghAgent, MeghConfig};
use megh_linalg::mean;
use megh_sim::{
    map_seeds, DataCenterConfig, InitialPlacement, Scheduler, SeedRun, SimError, Simulation,
    SlavMetrics, StepRecord, SweepReport,
};
use megh_trace::{GoogleConfig, PlanetLabConfig, WorkloadTrace};
use serde::Serialize;

use crate::{write_csv, write_json, ResultsError};

/// The seeds every row runs on.
pub const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Two-sided 95 % quantile of Student's t with `SEEDS.len() − 1 = 7`
/// degrees of freedom: a paired difference is *separated* when
/// `|Δ| > T_CRIT · SE`.
pub const T_CRIT: f64 = 2.365;

/// Seed `s`'s trained Q-learner learns on the week generated from
/// `s + QLEARN_TRAIN_OFFSET`, which no row evaluates on.
const QLEARN_TRAIN_OFFSET: u64 = 1_000;

/// Offline training episodes of the trained Q-learner.
const QLEARN_EPISODES: usize = 5;

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
#[derive(Debug, Clone, Copy, PartialEq)]
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
}

impl Setup {
    /// A demand-packed setup at the default oversubscription ratio of 2.
    pub const fn new(workload: Workload, hosts: usize, vms: usize, days: usize) -> Self {
        Self {
            workload,
            hosts,
            vms,
            days,
            placement: Placement::DemandPacked,
            oversubscription: 2.0,
        }
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
        config
    }

    /// The workload trace for `seed`.
    pub fn trace(&self, seed: u64) -> WorkloadTrace {
        match self.workload {
            Workload::PlanetLab => PlanetLabConfig::new(self.vms, seed).generate(self.days),
            Workload::Google => GoogleConfig::new(self.vms, seed).generate(self.days),
        }
    }

    /// One-line description for tables and the JSON.
    pub fn describe(&self) -> String {
        format!(
            "{:?}, {} hosts x {} VMs, {} days, {:?} placement, oversubscription {}",
            self.workload, self.hosts, self.vms, self.days, self.placement, self.oversubscription
        )
    }
}

/// Builds an arm's scheduler for one seed on one setup's data centre.
pub type MakeScheduler = fn(&DataCenterConfig, u64) -> Box<dyn Scheduler + Send>;

/// One compared policy: a label plus its scheduler constructor.
#[derive(Clone, Copy)]
pub struct Arm {
    /// Column label (also the CSV header of series outputs).
    pub label: &'static str,
    /// The constructor.
    pub make: MakeScheduler,
}

/// Outputs a row writes beside its JSON and table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Figures 2–5: seed 1's per-step series on the first setup as
    /// `<row>{a,b,c,d}_*.csv`, plus a convergence reading.
    Series,
    /// The Beloglazov metric bundle (SLATAH, PDM, SLAV, ESV), mean over
    /// the seeds.
    Slav,
}

/// One experiment: its arms run on each of its setups over [`SEEDS`].
pub struct Row {
    /// Command-line name; the JSON is `results/<name>.json`.
    pub name: &'static str,
    /// Heading of the printed table.
    pub title: &'static str,
    /// Setups, one printed table and JSON block each.
    pub setups: Vec<Setup>,
    /// Arms; the first is the reference every other arm is paired with.
    pub arms: Vec<Arm>,
    /// Extra outputs.
    pub outputs: Vec<Output>,
}

/// Megh with the paper defaults for the fleet, adjusted by `tweak`.
fn megh_with(
    config: &DataCenterConfig,
    seed: u64,
    tweak: fn(&mut MeghConfig),
) -> Box<dyn Scheduler + Send> {
    let mut megh = MeghConfig {
        seed,
        ..MeghConfig::paper_defaults(config.vms.len(), config.pms.len())
    };
    tweak(&mut megh);
    Box::new(MeghAgent::new(megh))
}

/// Megh with the paper defaults.
const MEGH: Arm = Arm {
    label: "Megh",
    make: |c, s| megh_with(c, s, |_| {}),
};

const THR: Arm = Arm {
    label: "THR-MMT",
    make: |_, _| Box::new(MmtScheduler::new(MmtFlavor::Thr)),
};

/// The five MMT flavours, Tables 2–3's columns left to right.
const MMT: [Arm; 5] = [
    THR,
    Arm {
        label: "IQR-MMT",
        make: |_, _| Box::new(MmtScheduler::new(MmtFlavor::Iqr)),
    },
    Arm {
        label: "MAD-MMT",
        make: |_, _| Box::new(MmtScheduler::new(MmtFlavor::Mad)),
    },
    Arm {
        label: "LR-MMT",
        make: |_, _| Box::new(MmtScheduler::new(MmtFlavor::Lr)),
    },
    Arm {
        label: "LRR-MMT",
        make: |_, _| Box::new(MmtScheduler::new(MmtFlavor::Lrr)),
    },
];

const MADVM: Arm = Arm {
    label: "MadVM",
    make: |_, _| Box::new(MadVmScheduler::new(MadVmConfig::default())),
};

/// Megh's design choices, one at a time against the paper defaults.
const MEGH_ABLATIONS: [Arm; 6] = [
    Arm {
        label: "gamma=0",
        make: |c, s| megh_with(c, s, |m| m.gamma = 0.0),
    },
    Arm {
        label: "gamma=0.9",
        make: |c, s| megh_with(c, s, |m| m.gamma = 0.9),
    },
    Arm {
        label: "2% actions",
        make: |c, s| {
            megh_with(c, s, |m| {
                m.actions_per_step = ((0.02 * m.n_vms as f64).ceil() as usize).max(1);
            })
        },
    },
    Arm {
        label: "masked",
        make: |c, s| megh_with(c, s, |m| m.mask_sleeping_targets = true),
    },
    Arm {
        label: "no decay",
        make: |c, s| megh_with(c, s, |m| m.epsilon = 0.0),
    },
    Arm {
        label: "cold greedy",
        make: |c, s| {
            megh_with(c, s, |m| {
                m.temp0 = 0.01;
                m.epsilon = 0.0;
            })
        },
    },
];

fn thr_bound(bound: f64) -> Box<dyn Scheduler + Send> {
    let mut thr = MmtScheduler::new(MmtFlavor::Thr);
    thr.utilization_bound = bound;
    Box::new(thr)
}

/// THR-MMT's structural knobs: the utilization bound, underload
/// consolidation, the detector's static threshold.
const MMT_ABLATIONS: [Arm; 7] = [
    Arm {
        label: "THR bound=0.8 (paper)",
        make: |_, _| thr_bound(0.8),
    },
    Arm {
        label: "THR bound=0.7",
        make: |_, _| thr_bound(0.7),
    },
    Arm {
        label: "THR bound=0.6",
        make: |_, _| thr_bound(0.6),
    },
    Arm {
        label: "THR bound=0.5",
        make: |_, _| thr_bound(0.5),
    },
    Arm {
        label: "THR no consolidation",
        make: |_, _| {
            let mut thr = MmtScheduler::new(MmtFlavor::Thr);
            thr.consolidate_underloaded = false;
            Box::new(thr)
        },
    },
    Arm {
        label: "THR detector=0.7",
        make: |_, _| {
            Box::new(MmtScheduler::with_detector(
                MmtFlavor::Thr,
                OverloadDetector::thr(0.7),
            ))
        },
    },
    Arm {
        label: "THR detector=0.9",
        make: |_, _| {
            Box::new(MmtScheduler::with_detector(
                MmtFlavor::Thr,
                OverloadDetector::thr(0.9),
            ))
        },
    },
];

fn qlearner(seed: u64) -> QLearningScheduler {
    QLearningScheduler::new(QLearningConfig {
        seed,
        ..QLearningConfig::default()
    })
}

/// Tabular Q-learning, cold and trained offline on a disjoint
/// PlanetLab week ("dependence on offline training", §2.2).
const QLEARNING: [Arm; 2] = [
    Arm {
        label: "Q-learn (cold)",
        make: |_, s| Box::new(qlearner(s)),
    },
    Arm {
        label: "Q-learn (train)",
        make: |c, s| {
            let week = PlanetLabConfig::new(c.vms.len(), s + QLEARN_TRAIN_OFFSET).generate(7);
            let sim = Simulation::new(c.clone(), week)
                .expect("the training week is generated for this fleet");
            let mut trained = qlearner(s);
            trained.train(&sim, QLEARN_EPISODES);
            Box::new(trained)
        },
    },
];

/// The experiment table, in the order `experiment all` runs it.
pub fn table() -> Vec<Row> {
    use Workload::{Google, PlanetLab};
    let planetlab = Setup::new(PlanetLab, 160, 210, 7);
    let google = Setup::new(Google, 100, 400, 7);
    let madvm_subset = |workload| Setup {
        placement: Placement::RandomUniform,
        ..Setup::new(workload, 100, 150, 3)
    };
    // Every row's reference arm is Megh.
    let row = |name, title, setups, others: Vec<Arm>, outputs| Row {
        name,
        title,
        setups,
        arms: std::iter::once(MEGH).chain(others).collect(),
        outputs,
    };
    vec![
        row(
            "table2",
            "Table 2 — PlanetLab",
            vec![planetlab],
            MMT.to_vec(),
            vec![],
        ),
        row(
            "table3",
            "Table 3 — Google Cluster",
            vec![google],
            MMT.to_vec(),
            vec![],
        ),
        row(
            "fig2",
            "Figure 2 — Megh vs THR-MMT (PlanetLab)",
            vec![planetlab],
            vec![THR],
            vec![Output::Series],
        ),
        row(
            "fig3",
            "Figure 3 — Megh vs THR-MMT (Google Cluster)",
            vec![google],
            vec![THR],
            vec![Output::Series],
        ),
        row(
            "fig4",
            "Figure 4 — Megh vs MadVM (PlanetLab subset)",
            vec![madvm_subset(PlanetLab)],
            vec![MADVM],
            vec![Output::Series],
        ),
        row(
            "fig5",
            "Figure 5 — Megh vs MadVM (Google subset)",
            vec![madvm_subset(Google)],
            vec![MADVM],
            vec![Output::Series],
        ),
        row(
            "ablation-megh",
            "Ablation — Megh design choices",
            vec![planetlab],
            MEGH_ABLATIONS.to_vec(),
            vec![],
        ),
        row(
            "ablation-mmt",
            "Ablation — THR-MMT design choices",
            vec![planetlab],
            MMT_ABLATIONS.to_vec(),
            vec![],
        ),
        row(
            "ablation-oversubscription",
            "Ablation — CPU oversubscription ratio of the initial packing",
            [1.0, 1.5, 2.0, 3.0, 4.0]
                .map(|oversubscription| Setup {
                    oversubscription,
                    ..Setup::new(PlanetLab, 80, 105, 3)
                })
                .to_vec(),
            vec![THR],
            vec![],
        ),
        row(
            "ext-slav",
            "Extension — Beloglazov SLA metrics (PlanetLab)",
            vec![planetlab],
            [&MMT[..], &[MADVM]].concat(),
            vec![Output::Slav],
        ),
        row(
            "ext-qlearning",
            "Extension — offline Q-learning vs online Megh (PlanetLab)",
            vec![planetlab],
            [&QLEARNING[..], &[THR]].concat(),
            vec![],
        ),
        row(
            "table2-full",
            "Table 2 — PlanetLab, paper scale",
            vec![Setup::new(PlanetLab, 800, 1052, 7)],
            MMT.to_vec(),
            vec![],
        ),
        row(
            "table3-full",
            "Table 3 — Google Cluster, paper scale",
            vec![Setup::new(Google, 500, 2000, 7)],
            MMT.to_vec(),
            vec![],
        ),
    ]
}

/// The table row called `name`.
pub fn row(name: &str) -> Option<Row> {
    table().into_iter().find(|row| row.name == name)
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
    /// Whether `|mean| > T_CRIT · se`.
    pub separated: bool,
}

impl PairedDiff {
    /// The paired difference of per-seed deltas.
    pub fn of(deltas: &[f64]) -> Self {
        let mean = mean(deltas);
        let sd = sample_sd(deltas);
        let se = sd / (deltas.len().max(1) as f64).sqrt();
        Self {
            mean,
            sd,
            se,
            separated: mean.abs() > T_CRIT * se,
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

/// A row's deterministic result: what `results/<row>.json` holds.
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
    /// Seed 1's per-step records of each arm on the first setup
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

/// Runs every arm of `row` on every setup over [`SEEDS`], fanning the
/// seeds across `threads` workers.
///
/// # Errors
///
/// Returns [`SimError`] when a setup builds an inconsistent simulation.
pub fn run_row(row: &Row, threads: usize) -> Result<RowRun, SimError> {
    let wants_series = row.outputs.contains(&Output::Series);
    let wants_slav = row.outputs.contains(&Output::Slav);
    let mut run = RowRun {
        report: RowReport {
            row: row.name.to_string(),
            title: row.title.to_string(),
            seeds: SEEDS.to_vec(),
            blocks: Vec::new(),
        },
        decision_ms: Vec::new(),
        series: Vec::new(),
    };
    for (block, setup) in row.setups.iter().enumerate() {
        let keep_series = |seed| wants_series && block == 0 && seed == SEEDS[0];
        let per_seed = map_seeds(&SEEDS, threads, |seed| {
            let sim = Simulation::new(setup.config(seed), setup.trace(seed))?;
            let arms = row.arms.iter().map(|arm| {
                let outcome = sim.run((arm.make)(sim.config(), seed));
                let summary = outcome.report();
                SeedArm {
                    run: SeedRun::new(seed, &summary),
                    decision_ms: summary.mean_decision_ms,
                    scheduler: summary.scheduler,
                    slav: wants_slav.then(|| SlavMetrics::from_run(&outcome)),
                    records: if keep_series(seed) {
                        outcome.records().to_vec()
                    } else {
                        Vec::new()
                    },
                }
            });
            Ok::<_, SimError>(arms.collect::<Vec<_>>())
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

/// A figure panel: CSV suffix and per-step value.
type Panel = (&'static str, fn(&StepRecord) -> f64);

/// The four panels of Figures 2–5.
const SERIES_PANELS: [Panel; 4] = [
    ("a_cost_per_step", |r| r.total_cost_usd),
    ("b_cumulative_migrations", |r| {
        r.cumulative_migrations as f64
    }),
    ("c_active_hosts", |r| r.active_hosts as f64),
    ("d_execution_ms", |r| r.decision_micros as f64 / 1000.0),
];

/// Writes `<dir>/<row>.json` and the row's series CSVs.
///
/// # Errors
///
/// Returns I/O or serialisation errors.
pub fn write_outputs(row: &Row, run: &RowRun, dir: &Path) -> Result<(), ResultsError> {
    write_json(dir.join(format!("{}.json", row.name)), &run.report)?;
    if row.outputs.contains(&Output::Series) {
        let mut headers = vec!["step"];
        headers.extend(row.arms.iter().map(|arm| arm.label));
        let steps = run.series.iter().map(Vec::len).min().unwrap_or(0);
        for (suffix, metric) in SERIES_PANELS {
            let rows = (0..steps).map(|t| {
                let values = run.series.iter().map(|records| metric(&records[t]));
                std::iter::once(t as f64).chain(values).collect()
            });
            write_csv(
                dir.join(format!("{}{suffix}.csv", row.name)),
                &headers,
                rows,
            )?;
        }
    }
    Ok(())
}

/// The row as markdown: per setup, mean ± sd over the seeds per metric,
/// Δ ± SE against the reference arm, and mean ms per decision; then the
/// SLA-metric means and the series rows' convergence reading.
pub fn format_row(run: &RowRun) -> String {
    let report = &run.report;
    let (first, last) = (SEEDS[0], SEEDS[SEEDS.len() - 1]);
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
            let cell = |metric: fn(&SeedRun) -> f64, prec: usize| {
                let xs: Vec<f64> = arm.sweep.runs.iter().map(metric).collect();
                format!("{:.prec$} ± {:.prec$}", mean(&xs), sample_sd(&xs))
            };
            let delta = |pick: fn(&Differences) -> &PairedDiff, prec: usize| {
                arm.vs_reference.as_ref().map_or("—".to_string(), |d| {
                    let d = pick(d);
                    let mark = if d.separated { " *" } else { "" };
                    format!("{:+.prec$} ± {:.prec$}{mark}", d.mean, d.se)
                })
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {ms:.4} |\n",
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
            "\nΔ = arm − {reference}, paired by seed, ± its standard error; \
             * marks |Δ| > {T_CRIT} · SE (Student t, {} df, two-sided 95 %).\n\n",
            SEEDS.len() - 1
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
    // §6.3's convergence reading of panel (a): when does the per-step
    // cost settle, and how noisy is it afterwards?
    let labels = report.blocks.first().map(|b| &b.arms[..]).unwrap_or(&[]);
    for (arm, records) in labels.iter().zip(&run.series) {
        let costs: Vec<f64> = records.iter().map(|r| r.total_cost_usd).collect();
        let c = detect_convergence(&costs, 50, 0.10);
        out.push_str(&match c.converged_at {
            Some(at) => format!(
                "- seed {first}, {}: per-step cost converges at step {at} (stable {:.3} ± {:.3} USD)\n",
                arm.label, c.stable_mean, c.stable_std
            ),
            None => format!(
                "- seed {first}, {}: per-step cost never settles within 10 %\n",
                arm.label
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(name: &str) -> (Setup, Vec<&'static str>) {
        let row = row(name).unwrap();
        assert_eq!(row.setups.len(), 1, "{name}");
        (row.setups[0], row.arms.iter().map(|a| a.label).collect())
    }

    #[test]
    fn rows_have_unique_names_and_megh_as_reference() {
        let table = table();
        let mut names: Vec<&str> = table.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 13);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13, "row names must be unique");
        for row in &table {
            assert_eq!(row.arms[0].label, "Megh", "{}", row.name);
            assert!(row.arms.len() >= 2, "{}", row.name);
        }
    }

    #[test]
    fn tables_2_and_3_match_the_paper_setups() {
        let (setup, arms) = fleet("table2");
        assert_eq!(setup, Setup::new(Workload::PlanetLab, 160, 210, 7));
        assert_eq!(setup.placement, Placement::DemandPacked);
        assert_eq!(
            arms,
            ["Megh", "THR-MMT", "IQR-MMT", "MAD-MMT", "LR-MMT", "LRR-MMT"]
        );
        assert_eq!(fleet("table3").0, Setup::new(Workload::Google, 100, 400, 7));
        // The only paper-scale rows: §6.2's fleets.
        assert_eq!(
            fleet("table2-full").0,
            Setup::new(Workload::PlanetLab, 800, 1052, 7)
        );
        assert_eq!(
            fleet("table3-full").0,
            Setup::new(Workload::Google, 500, 2000, 7)
        );
        let config = setup.config(3);
        let trace = setup.trace(3);
        assert_eq!(config.vms.len(), trace.n_vms());
        assert_eq!(trace.n_steps(), 7 * 288);
        assert_eq!(config.initial_placement, InitialPlacement::DemandPacked);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn madvm_rows_match_section_6_3() {
        for (name, workload) in [("fig4", Workload::PlanetLab), ("fig5", Workload::Google)] {
            let (setup, arms) = fleet(name);
            assert_eq!((setup.hosts, setup.vms, setup.days), (100, 150, 3));
            assert_eq!(setup.workload, workload);
            assert_eq!(arms, ["Megh", "MadVM"]);
            // The row seed drives the random placement as well as the trace.
            assert_eq!(
                setup.config(5).initial_placement,
                InitialPlacement::RandomUniform { seed: 5 }
            );
            assert_eq!(setup.trace(5).n_steps(), 3 * 288);
        }
    }

    #[test]
    fn extension_and_ablation_rows_carry_their_setup_as_data() {
        let oversub = row("ablation-oversubscription").unwrap();
        let ratios: Vec<f64> = oversub.setups.iter().map(|s| s.oversubscription).collect();
        assert_eq!(ratios, [1.0, 1.5, 2.0, 3.0, 4.0]);
        assert!(oversub
            .setups
            .iter()
            .all(|s| (s.hosts, s.vms, s.days) == (80, 105, 3)));
        assert_eq!(oversub.setups[0].config(1).oversubscription_ratio, 1.0);
        // MadVM is in the SLA-metric row's arm list because its fleet is
        // small enough for it; it is in no paper-scale row.
        let slav = row("ext-slav").unwrap();
        assert!(slav.arms.iter().any(|a| a.label == "MadVM"));
        assert_eq!(slav.outputs, [Output::Slav]);
        for name in ["table2-full", "table3-full"] {
            assert!(row(name).unwrap().arms.iter().all(|a| a.label != "MadVM"));
        }
        assert_eq!(fleet("ablation-megh").1.len(), 7);
        assert_eq!(fleet("ablation-mmt").1.len(), 8);
    }

    #[test]
    fn arms_build_the_schedulers_they_name() {
        let setup = Setup::new(Workload::PlanetLab, 4, 8, 1);
        let config = setup.config(7);
        for row in table() {
            for arm in &row.arms {
                let scheduler = (arm.make)(&config, 7);
                let name = scheduler.name();
                let expected = match arm.label {
                    l if l.starts_with("THR") => "THR-MMT",
                    l if l.starts_with("Q-learn") => "Q-learning",
                    l if l.ends_with("-MMT") || l == "MadVM" => l,
                    _ => "Megh",
                };
                assert_eq!(name, expected, "{} / {}", row.name, arm.label);
            }
        }
    }

    #[test]
    fn paired_difference_uses_the_sample_sd_and_the_t_rule() {
        let d = PairedDiff::of(&[1.0, 3.0]);
        assert_eq!(d.mean, 2.0);
        assert!((d.sd - 2f64.sqrt()).abs() < 1e-12);
        assert!((d.se - 1.0).abs() < 1e-12);
        assert!(!d.separated, "2 < 2.365 · 1");
        assert!(PairedDiff::of(&[10.0, 10.5, 9.5]).separated);
        assert!(!PairedDiff::of(&[0.0; 8]).separated);
        assert_eq!(sample_sd(&[4.0]), 0.0);
    }
}
