//! Integration tests of the experiment harness itself: a mini row run
//! through the paired-seed runner must produce the JSON, the figure
//! CSVs and the table every experiment relies on, byte-identically for
//! any thread count; and the `experiment` binary must list its rows
//! and refuse bad input by name.

use std::path::PathBuf;
use std::process::Command;

use megh_bench::experiments::{format_convergence, row, write_outputs, SEEDS};
use megh_bench::LineChart;
use megh_core::{MeghAgent, MeghConfig};
use megh_sim::sweep::{format_row, run_row, Output, Placement, Row, Setup, Workload};
use megh_sim::Simulation;

/// A test-local row: the arms of table row `arms_of` on a 5-host,
/// 8-VM, one-day PlanetLab setup.
fn mini_row(arms_of: &str, outputs: Vec<Output>) -> Row<'static> {
    Row {
        name: "mini",
        title: "mini experiment",
        setups: vec![Setup::new(Workload::PlanetLab, 5, 8, 1)],
        arms: row(arms_of).unwrap().arms,
        outputs,
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("megh-harness-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mini_row_run_writes_json_csv_and_table() {
    let mini = mini_row("table2", vec![Output::Series]);
    let run = run_row(&mini, &SEEDS, 2).unwrap();
    let dir = temp_dir("artifacts");
    write_outputs(&mini, &run, &dir).unwrap();

    // JSON: one block, every arm, every seed in order, paired
    // differences for every arm but the reference.
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("mini.json")).unwrap()).unwrap();
    let arms = json["blocks"][0]["arms"].as_array().unwrap();
    let labels = ["Megh", "THR-MMT", "IQR-MMT", "MAD-MMT", "LR-MMT", "LRR-MMT"];
    assert_eq!(arms.len(), labels.len());
    for (arm, label) in arms.iter().zip(labels) {
        assert_eq!(arm["label"], label);
        let runs = arm["sweep"]["runs"].as_array().unwrap();
        assert_eq!(runs.len(), SEEDS.len());
        assert_eq!(runs[0]["seed"].as_u64(), Some(SEEDS[0]));
        assert_eq!(arm["vs_reference"].is_null(), label == "Megh");
    }
    assert!(arms[1]["vs_reference"]["total_cost_usd"]["separated"]
        .as_bool()
        .is_some());

    // The reference arm is Megh run directly on the seed's setup, and a
    // paired difference is the mean of the per-seed differences.
    let setup = &mini.setups[0];
    let block = &run.report.blocks[0];
    for (i, &seed) in SEEDS.iter().enumerate() {
        let sim = Simulation::new(setup.config(seed), setup.trace(seed)).unwrap();
        let direct = sim.run(MeghAgent::new(MeghConfig {
            seed,
            ..MeghConfig::paper_defaults(8, 5)
        }));
        assert_eq!(
            block.arms[0].sweep.runs[i].total_cost_usd,
            direct.report().total_cost_usd
        );
    }
    let deltas: Vec<f64> = block.arms[1]
        .sweep
        .runs
        .iter()
        .zip(&block.arms[0].sweep.runs)
        .map(|(thr, megh)| thr.total_cost_usd - megh.total_cost_usd)
        .collect();
    let diff = &block.arms[1].vs_reference.as_ref().unwrap().total_cost_usd;
    assert!((diff.mean - deltas.iter().sum::<f64>() / 8.0).abs() < 1e-9);

    // The table: every arm, mean ± sd, Δ ± SE, the separation rule.
    let table = format_row(&run) + &format_convergence(&run);
    for label in labels {
        assert!(
            table.contains(&format!("| {label} |")),
            "missing {label}\n{table}"
        );
    }
    assert!(table.contains(" ± "), "{table}");
    assert!(table.contains("Δ = arm − Megh"), "{table}");
    assert!(table.contains("converges") || table.contains("never settles"));

    // Series CSVs from seed 1, one column per arm, and an SVG from one.
    let csv = std::fs::read_to_string(dir.join("minia_cost_per_step.csv")).unwrap();
    assert_eq!(csv.lines().count(), 1 + 288, "header + one day of steps");
    assert_eq!(
        csv.lines().next(),
        Some("step,Megh,THR-MMT,IQR-MMT,MAD-MMT,LR-MMT,LRR-MMT")
    );
    for panel in [
        "b_cumulative_migrations",
        "c_active_hosts",
        "d_execution_ms",
    ] {
        assert!(dir.join(format!("mini{panel}.csv")).exists(), "{panel}");
    }
    let mut chart = LineChart::new("mini", "step", "USD");
    for (label, records) in labels.iter().zip(&run.series) {
        let points = records.iter().map(|r| (r.step as f64, r.total_cost_usd));
        chart.add_series(label.to_string(), points.collect());
    }
    let svg_path = dir.join("series.svg");
    chart.save(&svg_path).unwrap();
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert_eq!(svg.matches("<polyline").count(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_determinism_thread_count_never_changes_json() {
    // Every source of randomness the row seed drives: the trace, the
    // random initial placement, Megh's and the cold Q-learner's RNGs.
    let mut mini = mini_row("ext-qlearning", vec![Output::Slav]);
    mini.setups[0].placement = Placement::RandomUniform;
    mini.arms.retain(|a| a.label != "Q-learn (train)");
    let json_with = |threads: usize| {
        let dir = temp_dir(&format!("threads{threads}"));
        write_outputs(&mini, &run_row(&mini, &SEEDS, threads).unwrap(), &dir).unwrap();
        let bytes = std::fs::read(dir.join("mini.json")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let single = json_with(1);
    assert_eq!(single, json_with(3), "uneven chunks: 8 seeds on 3 threads");
}

#[test]
fn experiment_binary_lists_rows_and_exits_2_naming_bad_input() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_experiment"))
            .args(args)
            .output()
            .unwrap()
    };
    let list = run(&["list"]);
    assert!(list.status.success());
    let stdout = String::from_utf8_lossy(&list.stdout);
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    for name in [
        "table2",
        "fig5",
        "fig6",
        "fig8",
        "ext-qlearning",
        "table3-full",
    ] {
        assert!(names.contains(&name), "{stdout}");
    }
    // Figures 2–3 are the series of `table2` and `table3`.
    for gone in ["fig2", "fig3", "fig7"] {
        assert!(!names.contains(&gone), "{stdout}");
    }
    for (args, named) in [
        (&["table9"][..], "table9"),
        (&["table2", "--seeds", "3"], "--seeds"),
        (&["table2", "--threads", "abc"], "abc"),
        (&["fig2"], "fig2"),
        (&[], "missing experiment name"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

#[test]
fn fig1_binary_takes_no_argument_and_names_the_one_it_got() {
    for arg in ["--full", "results"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig1_workloads"))
            .arg(arg)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(arg), "{arg}: {stderr}");
    }
}
