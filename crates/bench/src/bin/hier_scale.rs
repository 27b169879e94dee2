//! `hier_scale` — fig6-style scalability sweep of the hierarchical
//! scheduler: decide latency and learned-state size from 1k to 10k
//! hosts, with flat Megh's curve alongside for contrast.
//!
//! Usage:
//!   cargo run --release -p megh-bench --bin hier_scale \
//!       [--snapshot LABEL] [--out FILE] [--iters N] [--warmup N]
//!
//! For each fleet size `m` hosts × `n = 1.32·m` VMs the sweep warms a
//! hierarchical agent (`~64` hosts per shard, the `hier` CLI default)
//! and a flat Megh agent over the same PlanetLab trace, captures a
//! mid-run view, and times bare `Scheduler::decide` calls — learning
//! mode and frozen (learning-paused) evaluation mode (observe + decide,
//! so the critic's preview products run).
//!
//! Appends a `{snapshot, results}` entry to `FILE` (default
//! `BENCH_hier_scale.json`, repo root) in the same series schema
//! `bench-diff` reads; re-running with an existing label replaces that
//! snapshot. Probes:
//!
//! - `hier/decide/<m>`, `megh/decide/<m>` — learning-mode decide ns;
//! - `hier/decide_frozen/<m>`, `megh/decide_frozen/<m>` — eval-mode
//!   observe+decide ns with learning paused and the critic previewing;
//! - `hier/state_max_shard_qnnz/<m>`, `hier/state_dim_per_shard/<m>`,
//!   `megh/state_qnnz/<m>`, `megh/state_dim/<m>` — **state probes**:
//!   the value fields carry counts (entries), not nanoseconds. They
//!   document that per-shard state stays bounded while the flat basis
//!   `d = N × M` grows quadratically with the fleet.
//!
//! The headline check, printed and encoded in the series: the
//! hierarchical decide median from the smallest to the largest fleet
//! must stay flat (within 2×).

use std::time::Instant;

use megh_bench::{BenchResult, BenchSnapshot};
use megh_core::{HierConfig, HierMegh, MeghAgent, MeghConfig};
use megh_sim::{DataCenterConfig, DataCenterView, InitialPlacement, Scheduler, Simulation};
use megh_trace::PlanetLabConfig;

/// Fleet sizes swept (hosts); VMs are 1.32× as in the paper's ratio.
const HOSTS: [usize; 4] = [1000, 2000, 5000, 10_000];

/// Hosts per shard the `hier` CLI name auto-sizes to.
const HOSTS_PER_SHARD: usize = 64;

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

/// Warms `scheduler` over a `warmup`-step PlanetLab run and returns it
/// together with the last simulated view (the decision input the timed
/// loop replays).
fn warmed<S: Scheduler>(
    m: usize,
    n: usize,
    warmup: usize,
    mut scheduler: S,
) -> (S, DataCenterView) {
    struct Tail<'a, S> {
        inner: &'a mut S,
        last_view: Option<DataCenterView>,
    }
    impl<S: Scheduler> Scheduler for Tail<'_, S> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn decide(&mut self, view: &DataCenterView) -> Vec<megh_sim::MigrationRequest> {
            self.last_view = Some(view.clone());
            self.inner.decide(view)
        }
        fn observe(&mut self, feedback: &megh_sim::StepFeedback) {
            self.inner.observe(feedback)
        }
    }

    let mut config = DataCenterConfig::paper_planetlab(m, n);
    config.initial_placement = InitialPlacement::DemandPacked;
    let trace = PlanetLabConfig::new(n, 7).generate_steps(warmup);
    let sim = Simulation::new(config, trace).expect("valid setup");
    let mut tail = Tail {
        inner: &mut scheduler,
        last_view: None,
    };
    sim.run(&mut tail);
    let view = tail.last_view.expect("warmup ran at least one step");
    (scheduler, view)
}

/// Times `iters` calls of `f`, returning sorted per-call nanoseconds.
fn time_calls(iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let started = Instant::now();
        f();
        samples.push(started.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples
}

fn latency_probe(id: String, sorted_ns: Vec<f64>) -> BenchResult {
    let total = sorted_ns.len();
    BenchResult {
        id,
        mean_ns: sorted_ns.iter().sum::<f64>() / total as f64,
        median_ns: percentile(&sorted_ns, 0.50),
        min_ns: sorted_ns[0],
        max_ns: sorted_ns[total - 1],
        samples: total,
        allocs: None,
        p99_ns: Some(percentile(&sorted_ns, 0.99)),
        throughput_per_sec: None,
        p25_ns: Some(percentile(&sorted_ns, 0.25)),
        p75_ns: Some(percentile(&sorted_ns, 0.75)),
    }
}

/// A count (entries, dimensions) recorded through the series schema:
/// every value field carries the count itself, so any later diff reads
/// growth ratios directly.
fn state_probe(id: String, count: usize) -> BenchResult {
    let v = count as f64;
    BenchResult {
        id,
        mean_ns: v,
        median_ns: v,
        min_ns: v,
        max_ns: v,
        samples: 1,
        allocs: None,
        p99_ns: None,
        throughput_per_sec: None,
        p25_ns: None,
        p75_ns: None,
    }
}

fn eval_feedback() -> megh_sim::StepFeedback {
    megh_sim::StepFeedback {
        step: 0,
        energy_cost_usd: 0.05,
        sla_cost_usd: 0.01,
        total_cost_usd: 0.06,
        applied: Vec::new(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_hier_scale.json".to_string();
    let mut label = "PR9".to_string();
    let mut iters = 2000usize;
    let mut warmup = 60usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        match args[i].as_str() {
            "--out" => out = value.unwrap_or(out),
            "--snapshot" => label = value.unwrap_or(label),
            "--iters" => iters = value.and_then(|v| v.parse().ok()).unwrap_or(iters),
            "--warmup" => warmup = value.and_then(|v| v.parse().ok()).unwrap_or(warmup),
            other => {
                eprintln!("hier_scale: unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let mut results = Vec::new();
    let mut hier_medians = Vec::new();
    let mut megh_medians = Vec::new();
    for &m in &HOSTS {
        let n = m * 132 / 100;
        let shards = m.div_ceil(HOSTS_PER_SHARD).max(1);
        eprintln!("hier_scale: {m} hosts x {n} VMs ({shards} shards), warming {warmup} steps");

        // Hierarchical agent: learning decide, then frozen (paused) decide.
        let mk_hier = || {
            let mut cfg = HierConfig::paper_defaults(n, m, shards);
            cfg.base.seed = 7;
            HierMegh::new(cfg)
        };
        let (mut hier, view) = warmed(m, n, warmup, mk_hier());
        let learn_ns = time_calls(iters, || {
            std::hint::black_box(hier.decide(&view));
        });
        hier_medians.push(percentile(&learn_ns, 0.50));
        results.push(latency_probe(format!("hier/decide/{m}"), learn_ns));

        hier.freeze_all();
        let feedback = eval_feedback();
        let frozen_ns = time_calls(iters, || {
            hier.observe(&feedback);
            std::hint::black_box(hier.decide(&view));
        });
        results.push(latency_probe(format!("hier/decide_frozen/{m}"), frozen_ns));
        results.push(state_probe(
            format!("hier/state_max_shard_qnnz/{m}"),
            hier.max_shard_qtable_nnz(),
        ));
        let max_shard_dim = (0..hier.n_shards())
            .map(|s| hier.shard_lspi(s).dim())
            .max()
            .unwrap_or(0);
        results.push(state_probe(
            format!("hier/state_dim_per_shard/{m}"),
            max_shard_dim,
        ));

        // Flat Megh over the same fleet and trace.
        let mut flat_cfg = MeghConfig::paper_defaults(n, m);
        flat_cfg.seed = 7;
        let flat_dim = flat_cfg.delta as usize;
        let (mut megh, view) = warmed(m, n, warmup, MeghAgent::new(flat_cfg));
        let learn_ns = time_calls(iters, || {
            std::hint::black_box(megh.decide(&view));
        });
        megh_medians.push(percentile(&learn_ns, 0.50));
        results.push(latency_probe(format!("megh/decide/{m}"), learn_ns));

        megh.freeze();
        let frozen_ns = time_calls(iters, || {
            megh.observe(&feedback);
            std::hint::black_box(megh.decide(&view));
        });
        results.push(latency_probe(format!("megh/decide_frozen/{m}"), frozen_ns));
        results.push(state_probe(
            format!("megh/state_qnnz/{m}"),
            megh.qtable_nnz(),
        ));
        results.push(state_probe(format!("megh/state_dim/{m}"), flat_dim));
    }

    // Replace-or-append into the tracked series.
    let mut series: Vec<BenchSnapshot> = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    series.retain(|s| s.snapshot != label);
    series.push(BenchSnapshot {
        snapshot: label.clone(),
        results,
    });
    let json = serde_json::to_string_pretty(&series).expect("serialize series");
    std::fs::write(&out, json + "\n").expect("write series");

    let first = HOSTS[0];
    let last = HOSTS[HOSTS.len() - 1];
    let hier_ratio = hier_medians[hier_medians.len() - 1] / hier_medians[0].max(1e-9);
    let megh_ratio = megh_medians[megh_medians.len() - 1] / megh_medians[0].max(1e-9);
    println!("hier_scale [{label}]: decide median, {first} -> {last} hosts");
    for (i, &m) in HOSTS.iter().enumerate() {
        println!(
            "  {m:6} hosts: hier {:8.0} ns   flat Megh {:8.0} ns",
            hier_medians[i], megh_medians[i]
        );
    }
    println!("  hier grows {hier_ratio:.2}x, flat Megh grows {megh_ratio:.2}x");
    println!("  series: {out} ({} snapshot(s))", series.len());
    if hier_ratio > 2.0 {
        eprintln!("hier_scale: FAIL — hierarchical decide median grew more than 2x");
        std::process::exit(1);
    }
}
