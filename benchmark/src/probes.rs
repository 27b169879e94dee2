//! In-process probes of single layers on the *trained* state of a
//! workload, run after the traced passes. Each isolates one public
//! operation that an end-to-end number is made of.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use megh_core::{load_checkpoint, save_checkpoint, BoltzmannPolicy, MeghCheckpoint};
use megh_linalg::{DokMatrix, SparseVec};
use megh_serve::{Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Report;
use crate::seeds::{derive, Stream};
use crate::stats::med;

const SAMPLE_CALLS: usize = 2_000;
const GREEDY_CALLS: usize = 20_000;
const LSPI_UPDATES: usize = 512;
const LSPI_CLONES: usize = 15;
const CHECKPOINT_ROUNDS: usize = 3;
const DOK_OPS: usize = 2_048;
/// Distinct indices the DOK probe's vectors draw from, so that later
/// products meet rows and columns earlier ones filled — as LSPI's
/// revisited actions do.
const DOK_HOT_INDICES: usize = 256;
const WIRE_ROUNDS: usize = 20_000;

/// Mean microseconds per iteration of `f` over `n` iterations.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Median over `n` individually timed calls of `f`, scaled by `unit`
/// (1e6 for µs, 1e3 for ms).
fn median_of(n: usize, unit: f64, mut f: impl FnMut(usize)) -> f64 {
    med((0..n).map(|i| {
        let t0 = Instant::now();
        f(i);
        t0.elapsed().as_secs_f64() * unit
    }))
}

/// `core.*` probes on the trained LSPI state and `linalg.*` probes at
/// its dimension.
pub fn core_and_linalg(cp: &MeghCheckpoint, seed: u64, report: &mut Report) -> Result<(), String> {
    let probe_seed = derive(seed, Stream::Probe);
    let policy = BoltzmannPolicy::with_temperature(cp.temperature, cp.config.epsilon);
    let dim = cp.lspi.dim();

    // What one daemon `decide` or one simulated step's actor costs.
    let sample_us = median_of(SAMPLE_CALLS, 1e6, |i| {
        let mut rng = StdRng::seed_from_u64(probe_seed.wrapping_add(i as u64));
        black_box(policy.sample(black_box(&cp.lspi), &mut rng));
    });
    report.layer("core.policy_sample_us", sample_us, SAMPLE_CALLS);

    let mut rng = StdRng::seed_from_u64(probe_seed);
    let greedy_us = mean_us(GREEDY_CALLS, |_| {
        black_box(policy.greedy(black_box(&cp.lspi), &mut rng));
    });
    report.layer("core.policy_greedy_us", greedy_us, GREEDY_CALLS);

    // The daemon writer's learning step: greedy successor (untimed),
    // then the Sherman–Morrison update (timed).
    let mut lspi = cp.lspi.clone();
    let mut update_s = 0.0;
    for _ in 0..LSPI_UPDATES {
        let a_prev = rng.gen_range(0..dim);
        let cost = rng.gen_range(0.05..0.5);
        let a_next = policy.greedy(&lspi, &mut rng);
        let t0 = Instant::now();
        black_box(lspi.update(a_prev, a_next, cost));
        update_s += t0.elapsed().as_secs_f64();
    }
    report.layer(
        "core.lspi_update_us",
        update_s * 1e6 / LSPI_UPDATES as f64,
        LSPI_UPDATES,
    );

    // Every daemon publish clones the whole learned state.
    let clone_us = median_of(LSPI_CLONES, 1e6, |_| {
        black_box(black_box(&cp.lspi).clone());
    });
    report.layer("core.lspi_clone_us", clone_us, LSPI_CLONES);

    let dir = crate::scratch_dir()?;
    let path = dir.join(format!("probe-{}.json", std::process::id()));
    let saved = checkpoint_probe(cp, &path, report);
    let _ = std::fs::remove_file(&path);
    saved?;

    linalg(dim, probe_seed, report);
    Ok(())
}

fn checkpoint_probe(cp: &MeghCheckpoint, path: &Path, report: &mut Report) -> Result<(), String> {
    let mut error = None;
    let save_ms = median_of(CHECKPOINT_ROUNDS, 1e3, |_| {
        if let Err(e) = save_checkpoint(path, cp) {
            error = Some(format!("checkpoint probe: save failed: {e}"));
        }
    });
    let mut loaded_steps = None;
    let load_ms = median_of(CHECKPOINT_ROUNDS, 1e3, |_| match load_checkpoint(path) {
        Ok(loaded) => loaded_steps = Some(loaded.steps),
        Err(e) => error = Some(format!("checkpoint probe: load failed: {e}")),
    });
    if let Some(e) = error {
        return Err(e);
    }
    report.check(loaded_steps == Some(cp.steps), || {
        format!(
            "checkpoint probe: saved {} steps, loaded {loaded_steps:?}",
            cp.steps
        )
    });
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    report.layer("core.checkpoint_save_ms", save_ms, CHECKPOINT_ROUNDS);
    report.layer("core.checkpoint_load_ms", load_ms, CHECKPOINT_ROUNDS);
    report.layer("core.checkpoint_bytes", bytes as f64, 1);
    Ok(())
}

/// A DOK matrix of order `dim` filled by seeded 2-nnz rank-1 updates,
/// then multiplied from both sides by the same vectors.
fn linalg(dim: usize, probe_seed: u64, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(probe_seed ^ 0x11a1_6000);
    let hot: Vec<usize> = (0..DOK_HOT_INDICES)
        .map(|_| rng.gen_range(0..dim))
        .collect();
    let vector = |rng: &mut StdRng| {
        SparseVec::from_pairs(
            dim,
            (0..2).map(|_| {
                (
                    hot[rng.gen_range(0..hot.len())],
                    rng.gen_range(-1.0..1.0f64),
                )
            }),
        )
    };
    let pairs: Vec<(SparseVec, SparseVec)> = (0..DOK_OPS)
        .map(|_| (vector(&mut rng), vector(&mut rng)))
        .collect();

    let mut m = DokMatrix::zeros(dim);
    let outer_us = mean_us(DOK_OPS, |i| {
        m.add_outer_product(&pairs[i].0, &pairs[i].1, 0.5);
    });
    let mut out = SparseVec::zeros(dim);
    let matvec_us = mean_us(DOK_OPS, |i| {
        m.mul_sparse_vec_into(&pairs[i].0, &mut out);
        black_box(&out);
    });
    let left_us = mean_us(DOK_OPS, |i| {
        m.mul_sparse_vec_left_into(&pairs[i].1, &mut out);
        black_box(&out);
    });
    report.layer("linalg.dok_outer_us", outer_us, DOK_OPS);
    report.layer("linalg.dok_matvec_us", matvec_us, DOK_OPS);
    report.layer("linalg.dok_matvec_left_us", left_us, DOK_OPS);
    report.layer("linalg.dok_nnz", m.nnz() as f64, 1);
}

/// An in-process `serde_json` round on the public wire types: what the
/// daemon pays to parse one `decide` line and to encode its answer.
pub fn wire(report: &mut Report) {
    let line = serde_json::to_string(&Request::Decide {
        seed: 0x5eed_5eed_5eed,
    })
    .expect("a decide request serialises");
    let parse_us = mean_us(WIRE_ROUNDS, |_| {
        black_box(serde_json::from_str::<Request>(black_box(&line)).ok());
    });
    let response = Response::Decision {
        action: 12_345,
        vm: 82,
        target: 45,
        steps: 8_640,
        temperature: 0.031_25,
    };
    let encode_us = mean_us(WIRE_ROUNDS, |_| {
        black_box(serde_json::to_string(black_box(&response)).ok());
    });
    report.layer("serve.wire_request_parse_us", parse_us, WIRE_ROUNDS);
    report.layer("serve.wire_response_encode_us", encode_us, WIRE_ROUNDS);
}
