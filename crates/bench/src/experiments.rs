//! The experiment table: every sweep-shaped table and figure of the
//! reproduction as one [`Row`] of data, run on [`SEEDS`] by the
//! paired-seed runner [`megh_sim::sweep::run_row`].
//!
//! This module holds what is particular to the reproduction: the arms
//! (a label plus a scheduler constructor each, Megh first as every
//! row's reference), the rows built from them, the files a row writes
//! and the convergence reading of the figure rows. The setups, the
//! runner, the paired statistics and the markdown table are
//! [`megh_sim::sweep`]'s.

use std::path::Path;

use megh_baselines::{
    MadVmConfig, MadVmScheduler, MmtFlavor, MmtScheduler, OverloadDetector, QLearningConfig,
    QLearningScheduler,
};
use megh_core::diagnostics::detect_convergence;
use megh_core::{MeghAgent, MeghConfig};
use megh_sim::sweep::{Arm, Output, Placement, Row, RowRun, Setup, Workload};
use megh_sim::{DataCenterConfig, Scheduler, Simulation, StepRecord};
use megh_trace::PlanetLabConfig;

use crate::{write_csv, write_json, ResultsError};

/// The seeds every row runs on.
pub const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Seed `s`'s trained Q-learner learns on the week generated from
/// `s + QLEARN_TRAIN_OFFSET`, which no row evaluates on.
const QLEARN_TRAIN_OFFSET: u64 = 1_000;

/// Offline training episodes of the trained Q-learner.
const QLEARN_EPISODES: usize = 5;

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
const MEGH: Arm<'static> = Arm {
    label: "Megh",
    make: &|c, s| megh_with(c, s, |_| {}),
};

const THR: Arm<'static> = Arm {
    label: "THR-MMT",
    make: &|_, _| Box::new(MmtScheduler::new(MmtFlavor::Thr)),
};

/// The five MMT flavours, Tables 2–3's columns left to right.
const MMT: [Arm<'static>; 5] = [
    THR,
    Arm {
        label: "IQR-MMT",
        make: &|_, _| Box::new(MmtScheduler::new(MmtFlavor::Iqr)),
    },
    Arm {
        label: "MAD-MMT",
        make: &|_, _| Box::new(MmtScheduler::new(MmtFlavor::Mad)),
    },
    Arm {
        label: "LR-MMT",
        make: &|_, _| Box::new(MmtScheduler::new(MmtFlavor::Lr)),
    },
    Arm {
        label: "LRR-MMT",
        make: &|_, _| Box::new(MmtScheduler::new(MmtFlavor::Lrr)),
    },
];

const MADVM: Arm<'static> = Arm {
    label: "MadVM",
    make: &|_, _| Box::new(MadVmScheduler::new(MadVmConfig::default())),
};

/// Megh's design choices, one at a time against the paper defaults.
const MEGH_ABLATIONS: [Arm<'static>; 7] = [
    Arm {
        label: "gamma=0",
        make: &|c, s| megh_with(c, s, |m| m.gamma = 0.0),
    },
    Arm {
        label: "gamma=0.9",
        make: &|c, s| megh_with(c, s, |m| m.gamma = 0.9),
    },
    Arm {
        label: "2% actions",
        make: &|c, s| {
            megh_with(c, s, |m| {
                m.actions_per_step = ((0.02 * m.n_vms as f64).ceil() as usize).max(1);
            })
        },
    },
    Arm {
        label: "masked",
        make: &|c, s| megh_with(c, s, |m| m.mask_sleeping_targets = true),
    },
    Arm {
        label: "no decay",
        make: &|c, s| megh_with(c, s, |m| m.epsilon = 0.0),
    },
    Arm {
        label: "cold greedy",
        make: &|c, s| {
            megh_with(c, s, |m| {
                m.temp0 = 0.01;
                m.epsilon = 0.0;
            })
        },
    },
    // The ridge of B₀ = I/δ: the paper's δ = d against a unit ridge.
    Arm {
        label: "delta=1",
        make: &|c, s| megh_with(c, s, |m| m.delta = 1.0),
    },
];

/// Figure 8's exploration parameters, one at a time against the paper
/// defaults (Temp₀ 3, ε 0.01).
const FIG8_ARMS: [Arm<'static>; 6] = [
    Arm {
        label: "Temp0=0.5",
        make: &|c, s| megh_with(c, s, |m| m.temp0 = 0.5),
    },
    Arm {
        label: "Temp0=1",
        make: &|c, s| megh_with(c, s, |m| m.temp0 = 1.0),
    },
    Arm {
        label: "Temp0=10",
        make: &|c, s| megh_with(c, s, |m| m.temp0 = 10.0),
    },
    Arm {
        label: "eps=0.001",
        make: &|c, s| megh_with(c, s, |m| m.epsilon = 0.001),
    },
    Arm {
        label: "eps=0.1",
        make: &|c, s| megh_with(c, s, |m| m.epsilon = 0.1),
    },
    Arm {
        label: "eps=1",
        make: &|c, s| megh_with(c, s, |m| m.epsilon = 1.0),
    },
];

fn thr_bound(bound: f64) -> Box<dyn Scheduler + Send> {
    let mut thr = MmtScheduler::new(MmtFlavor::Thr);
    thr.utilization_bound = bound;
    Box::new(thr)
}

/// THR-MMT's structural knobs: the utilization bound, underload
/// consolidation, the detector's static threshold.
const MMT_ABLATIONS: [Arm<'static>; 7] = [
    Arm {
        label: "THR bound=0.8 (paper)",
        make: &|_, _| thr_bound(0.8),
    },
    Arm {
        label: "THR bound=0.7",
        make: &|_, _| thr_bound(0.7),
    },
    Arm {
        label: "THR bound=0.6",
        make: &|_, _| thr_bound(0.6),
    },
    Arm {
        label: "THR bound=0.5",
        make: &|_, _| thr_bound(0.5),
    },
    Arm {
        label: "THR no consolidation",
        make: &|_, _| {
            let mut thr = MmtScheduler::new(MmtFlavor::Thr);
            thr.consolidate_underloaded = false;
            Box::new(thr)
        },
    },
    Arm {
        label: "THR detector=0.7",
        make: &|_, _| {
            Box::new(MmtScheduler::with_detector(
                MmtFlavor::Thr,
                OverloadDetector::thr(0.7),
            ))
        },
    },
    Arm {
        label: "THR detector=0.9",
        make: &|_, _| {
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
const QLEARNING: [Arm<'static>; 2] = [
    Arm {
        label: "Q-learn (cold)",
        make: &|_, s| Box::new(qlearner(s)),
    },
    Arm {
        label: "Q-learn (train)",
        make: &|c, s| {
            let week = PlanetLabConfig::new(c.vms.len(), s + QLEARN_TRAIN_OFFSET).generate(7);
            let sim = Simulation::new(c.clone(), week)
                .expect("the training week is generated for this fleet");
            let mut trained = qlearner(s);
            trained.train(&sim, QLEARN_EPISODES);
            Box::new(trained)
        },
    },
];

/// Figure 6's hosts and VMs: every (m, n) pair is one setup.
const FIG6_GRID: [usize; 3] = [100, 200, 400];

/// The experiment table, in the order `experiment all` runs it.
pub fn table() -> Vec<Row<'static>> {
    use Workload::{Google, PlanetLab};
    let planetlab = Setup::new(PlanetLab, 160, 210, 7);
    let google = Setup::new(Google, 100, 400, 7);
    let madvm_subset = |workload| Setup {
        placement: Placement::RandomUniform,
        ..Setup::new(workload, 100, 150, 3)
    };
    // Every row's reference arm is Megh.
    let row = |name, title, setups, others: Vec<Arm<'static>>, outputs| Row {
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
            vec![planetlab.clone()],
            MMT.to_vec(),
            vec![Output::Series],
        ),
        row(
            "table3",
            "Table 3 — Google Cluster",
            vec![google.clone()],
            MMT.to_vec(),
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
            "fig6",
            "Figure 6 — decision time over the (hosts, VMs) grid",
            FIG6_GRID
                .iter()
                .flat_map(|&hosts| FIG6_GRID.map(|vms| Setup::new(PlanetLab, hosts, vms, 1)))
                .collect(),
            vec![THR],
            vec![],
        ),
        row(
            "fig8",
            "Figure 8 — sensitivity to Temp0 and epsilon",
            vec![
                Setup::new(PlanetLab, 160, 210, 2),
                // Panel (c): d = 96, small enough for exploration to
                // cover the action space.
                Setup::new(PlanetLab, 8, 12, 2),
            ],
            FIG8_ARMS.to_vec(),
            vec![],
        ),
        row(
            "ablation-megh",
            "Ablation — Megh design choices",
            vec![planetlab.clone()],
            MEGH_ABLATIONS.to_vec(),
            vec![],
        ),
        row(
            "ablation-mmt",
            "Ablation — THR-MMT design choices",
            vec![planetlab.clone()],
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
            vec![planetlab.clone()],
            [&MMT[..], &[MADVM]].concat(),
            vec![Output::Slav],
        ),
        row(
            "ext-qlearning",
            "Extension — offline Q-learning vs online Megh (PlanetLab)",
            vec![planetlab.clone()],
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
pub fn row(name: &str) -> Option<Row<'static>> {
    table().into_iter().find(|row| row.name == name)
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

/// §6.3's convergence reading of panel (a) of a series row: when does
/// each arm's per-step cost settle on the first seed, and how noisy is
/// it afterwards? Empty for rows without [`Output::Series`].
pub fn format_convergence(run: &RowRun) -> String {
    let first = run.report.seeds.first().copied().unwrap_or_default();
    let arms = run
        .report
        .blocks
        .first()
        .map(|b| &b.arms[..])
        .unwrap_or(&[]);
    let mut out = String::new();
    for (arm, records) in arms.iter().zip(&run.series) {
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
    use megh_sim::InitialPlacement;

    fn fleet(name: &str) -> (Setup, Vec<&'static str>) {
        let row = row(name).unwrap();
        assert_eq!(row.setups.len(), 1, "{name}");
        (
            row.setups[0].clone(),
            row.arms.iter().map(|a| a.label).collect(),
        )
    }

    #[test]
    fn rows_have_unique_names_and_megh_as_reference() {
        let table = table();
        let mut names: Vec<&str> = table.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "table2",
                "table3",
                "fig4",
                "fig5",
                "fig6",
                "fig8",
                "ablation-megh",
                "ablation-mmt",
                "ablation-oversubscription",
                "ext-slav",
                "ext-qlearning",
                "table2-full",
                "table3-full",
            ]
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "row names must be unique");
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
        // Figures 2–3 are the first seed's series of these two rows.
        for name in ["table2", "table3"] {
            assert_eq!(row(name).unwrap().outputs, [Output::Series], "{name}");
        }
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
        let (_, megh_arms) = fleet("ablation-megh");
        assert_eq!(megh_arms.len(), 8);
        assert_eq!(megh_arms.last(), Some(&"delta=1"));
        assert_eq!(fleet("ablation-mmt").1.len(), 8);
    }

    #[test]
    fn figures_6_and_8_are_paired_rows_over_their_grids() {
        let fig6 = row("fig6").unwrap();
        let cells: Vec<(usize, usize)> = fig6.setups.iter().map(|s| (s.hosts, s.vms)).collect();
        assert_eq!(cells.len(), 9);
        for hosts in FIG6_GRID {
            for vms in FIG6_GRID {
                assert!(cells.contains(&(hosts, vms)), "({hosts}, {vms})");
            }
        }
        assert!(fig6
            .setups
            .iter()
            .all(|s| s.workload == Workload::PlanetLab && s.days == 1));
        let labels: Vec<&str> = fig6.arms.iter().map(|a| a.label).collect();
        assert_eq!(labels, ["Megh", "THR-MMT"]);

        let fig8 = row("fig8").unwrap();
        assert_eq!(
            fig8.setups,
            [
                Setup::new(Workload::PlanetLab, 160, 210, 2),
                Setup::new(Workload::PlanetLab, 8, 12, 2)
            ]
        );
        let labels: Vec<&str> = fig8.arms.iter().map(|a| a.label).collect();
        assert_eq!(
            labels,
            [
                "Megh",
                "Temp0=0.5",
                "Temp0=1",
                "Temp0=10",
                "eps=0.001",
                "eps=0.1",
                "eps=1"
            ]
        );
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
}
