//! Streaming trace sources: chunked, resumable producers of per-step
//! utilization columns.
//!
//! [`TraceSource`] is the streaming counterpart of [`WorkloadTrace`]. A
//! source declares its shape up front ([`TraceHeader`]) and then fills
//! caller-provided buffers with consecutive *columns* — all VMs at one
//! step — so a consumer (the simulation engine) can hold a bounded chunk
//! of the trace instead of the whole `n_vms × n_steps` matrix:
//!
//! * the synthetic generators ([`PlanetLabSource`], [`GoogleSource`])
//!   synthesize columns on demand from per-VM RNG state, so a year-long
//!   trace costs per-VM state, not per-sample RAM;
//! * [`TraceCursor`] replays an in-memory [`WorkloadTrace`] (the
//!   materialized case);
//! * the file readers (`CsvSource`, `PlanetLabDirSource`) parse one step
//!   per call from a reused line buffer.
//!
//! The contract every source keeps is on [`TraceSource`].

// This module is on the simulation hot path: a generator source sizes
// its per-VM state at construction, and `fill_chunk` allocates nothing
// after the first call — held at 0 for `PlanetLabSource` and
// `GoogleSource` by `crates/core/tests/no_alloc.rs`.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use std::num::NonZeroUsize;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal, Normal};

use crate::{GoogleConfig, PlanetLabConfig, WorkloadTrace, STEPS_PER_DAY, STEP_SECONDS};

/// The declared shape of a [`TraceSource`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Number of VM rows per column.
    pub n_vms: usize,
    /// Total number of steps the source will emit.
    pub n_steps: usize,
    /// Sampling interval in seconds (non-zero).
    pub step_seconds: u64,
}

/// A chunked, resumable stream of per-step utilization columns.
///
/// # Contract
///
/// * `fill_chunk(buf)` expects `buf.len()` to be a (non-zero) multiple of
///   `header().n_vms`; it writes column-major (`buf[s * n_vms + vm]`),
///   returns the number of whole steps written, and returns `0` once the
///   source is exhausted (or when `n_vms == 0`). It never allocates.
/// * Sources are *resumable*: consecutive `fill_chunk` calls continue
///   where the last one stopped, and the concatenation of the returned
///   chunks is independent of the chunk size used to read them.
/// * `reset()` rewinds to step 0 and reproduces the identical stream.
/// * Emitted values are finite and within `[0, 100]`;
///   `header().step_seconds` is non-zero.
///
/// # Examples
///
/// ```
/// use megh_trace::{PlanetLabConfig, TraceSource};
///
/// let mut source = PlanetLabConfig::new(4, 7).source(100);
/// assert_eq!(source.header().n_vms, 4);
/// let mut chunk = vec![0.0; 3 * 4]; // three steps of four VMs
/// assert_eq!(source.fill_chunk(&mut chunk), 3);
/// assert!(chunk.iter().all(|u| (0.0..=100.0).contains(u)));
/// ```
pub trait TraceSource {
    /// The stream's shape: `(n_vms, n_steps, step_seconds)`.
    fn header(&self) -> TraceHeader;

    /// Fills `buf` (length a multiple of `n_vms`) with the next columns,
    /// column-major (`buf[s * n_vms + vm]`). Returns the number of whole
    /// steps written; `0` means exhausted. Must not allocate.
    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize;

    /// Rewinds to step 0; the stream replays byte-identically.
    fn reset(&mut self);

    /// Materializes the next `n` steps into a [`WorkloadTrace`].
    ///
    /// This is the single constructor path behind every generator's
    /// `generate`/`generate_steps` pair: values are defensively
    /// sanitized into `[0, 100]` so the result is always a valid trace.
    /// Sources shorter than `n` yield a shorter trace.
    fn take_steps(mut self, n: usize) -> WorkloadTrace
    where
        Self: Sized,
    {
        let header = self.header();
        let n_vms = header.n_vms;
        if n_vms == 0 || n == 0 {
            return WorkloadTrace::from_rows(header.step_seconds, Vec::new())
                .expect("an empty trace with a non-zero interval is valid");
        }
        // Cold materialization path: the one place a source's values
        // are copied onto the heap.
        let mut rows: Vec<Vec<f64>> = (0..n_vms).map(|_| Vec::with_capacity(n)).collect();
        let chunk_steps = 64usize.min(n);
        let mut buf = vec![0.0f64; chunk_steps * n_vms];
        let mut done = 0usize;
        while done < n {
            // Only the last read is shorter than a full chunk.
            buf.truncate(chunk_steps.min(n.saturating_sub(done)) * n_vms);
            let reported = self.fill_chunk(&mut buf);
            let cols = columns(&mut buf, n_vms, reported);
            if cols.len() == 0 {
                break;
            }
            done += cols.len();
            for col in cols {
                for (row, &u) in rows.iter_mut().zip(col.iter()) {
                    row.push(sanitize(u));
                }
            }
        }
        WorkloadTrace::from_rows(header.step_seconds, rows)
            .expect("sanitized columns always form a valid trace")
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn header(&self) -> TraceHeader {
        (**self).header()
    }
    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        (**self).fill_chunk(buf)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn header(&self) -> TraceHeader {
        (**self).header()
    }
    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        (**self).fill_chunk(buf)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
}

fn sanitize(u: f64) -> f64 {
    if u.is_finite() {
        u.clamp(0.0, 100.0)
    } else {
        0.0
    }
}

/// The first `limit` whole `n_vms`-wide columns of `buf` — fewer when
/// `buf` holds fewer, none when `n_vms == 0`. Every consumer of a
/// `fill_chunk` return value walks its buffer through this, so a source
/// that over-reports cannot push a reader past the buffer it was given.
fn columns(
    buf: &mut [f64],
    n_vms: usize,
    limit: usize,
) -> impl ExactSizeIterator<Item = &mut [f64]> {
    let limit = if n_vms == 0 { 0 } else { limit };
    buf.chunks_exact_mut(n_vms.max(1)).take(limit)
}

/// `STEPS_PER_DAY` as a divisor that cannot be zero.
const DAY: NonZeroUsize = match NonZeroUsize::new(STEPS_PER_DAY) {
    Some(day) => day,
    None => panic!("STEPS_PER_DAY is non-zero"),
};

/// SplitMix64 finalizer used to derive independent per-VM RNG seeds
/// from `(trace seed, vm index)`. Streaming generators give every VM
/// its own RNG so a column can be synthesized without materializing
/// rows (the shared-RNG legacy order was row-major).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn vm_seed(seed: u64, vm: usize) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add((vm as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Shared column fill over an in-memory [`WorkloadTrace`].
fn fill_from_trace(trace: &WorkloadTrace, next: &mut usize, buf: &mut [f64]) -> usize {
    let left = trace.n_steps().saturating_sub(*next);
    let cols = columns(buf, trace.n_vms(), left);
    let want = cols.len();
    for (s, col) in cols.enumerate() {
        trace.step_column_into(*next + s, col);
    }
    *next += want;
    want
}

/// A borrowing [`TraceSource`] over an in-memory [`WorkloadTrace`].
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a WorkloadTrace,
    next: usize,
}

impl TraceSource for TraceCursor<'_> {
    fn header(&self) -> TraceHeader {
        TraceHeader {
            n_vms: self.trace.n_vms(),
            n_steps: self.trace.n_steps(),
            step_seconds: self.trace.step_seconds(),
        }
    }
    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        fill_from_trace(self.trace, &mut self.next, buf)
    }
    fn reset(&mut self) {
        self.next = 0;
    }
}

impl WorkloadTrace {
    /// A borrowing streaming view of this trace, positioned at step 0.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            next: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// PlanetLab generator source
// ---------------------------------------------------------------------------

// Calibration of the PlanetLab regimes (§6.2): the long-run mean is
// ≈ (1 - BURST_FRACTION)·QUIET_MEAN + BURST_FRACTION·BURST_MEAN ≈ 12 %.

/// Long-run probability mass in the bursty regime.
const BURST_FRACTION: f64 = 0.075;
/// Expected burst length in steps (5-minute units): ≈ 40 minutes of
/// sustained load.
const MEAN_BURST_STEPS: f64 = 8.0;
/// Mean of the quiet-regime base load (percent).
const QUIET_MEAN: f64 = 6.5;
/// Mean of the bursty-regime load (percent).
const BURST_MEAN: f64 = 82.0;

/// Per-VM Markov/AR(1) state of the PlanetLab generator.
#[derive(Debug, Clone)]
struct PlVm {
    rng: StdRng,
    base: f64,
    bursting: bool,
    level: f64,
    current: Option<f64>,
}

impl PlVm {
    fn init(cfg: &PlanetLabConfig, base_dist: &LogNormal, burst_level: &Normal, vm: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(vm_seed(cfg.seed, vm));
        let base = base_dist.sample(&mut rng).clamp(3.0, 25.0);
        let bursting = rng.gen_bool(BURST_FRACTION.clamp(0.0, 1.0));
        let level = if bursting {
            burst_level.sample(&mut rng).clamp(50.0, 95.0)
        } else {
            base
        };
        Self {
            rng,
            base,
            bursting,
            level,
            current: None,
        }
    }

    fn advance(
        &mut self,
        step: usize,
        p_exit: f64,
        p_enter: f64,
        burst_level: &Normal,
        noise: &Normal,
    ) -> f64 {
        // Diurnal modulation: burst onset twice as likely at the daily
        // peak as at the trough.
        let phase = (step % DAY) as f64 / STEPS_PER_DAY as f64 * std::f64::consts::TAU;
        let diurnal = 1.0 + 0.5 * phase.sin();
        if self.bursting {
            if self.rng.gen_bool(p_exit.clamp(0.0, 1.0)) {
                self.bursting = false;
                self.level = self.base;
            }
        } else if self.rng.gen_bool((p_enter * diurnal).clamp(0.0, 1.0)) {
            self.bursting = true;
            self.level = burst_level.sample(&mut self.rng).clamp(50.0, 95.0);
        }
        // AR(1) pull towards the regime level plus white noise.
        let target = if self.bursting { self.level } else { self.base };
        let current = self.current.unwrap_or(target);
        let next =
            (current + 0.6 * (target - current) + noise.sample(&mut self.rng)).clamp(0.0, 100.0);
        self.current = Some(next);
        next
    }
}

/// Lazy [`TraceSource`] of the PlanetLab-like generator: columns are
/// synthesized on demand from per-VM state, so memory is `O(n_vms)`
/// regardless of trace length.
#[derive(Debug, Clone)]
pub struct PlanetLabSource {
    cfg: PlanetLabConfig,
    n_steps: usize,
    next_step: usize,
    vms: Vec<PlVm>,
    base_dist: LogNormal,
    burst_level: Normal,
    noise: Normal,
    p_exit: f64,
    p_enter: f64,
}

impl PlanetLabSource {
    pub(crate) fn new(cfg: PlanetLabConfig, n_steps: usize) -> Self {
        let base_dist =
            LogNormal::new(QUIET_MEAN.max(0.1).ln(), 0.45).expect("valid lognormal parameters");
        let burst_level = Normal::new(BURST_MEAN, 6.0).expect("valid normal parameters");
        let noise = Normal::new(0.0, 1.5).expect("valid normal parameters");
        let p_exit = 1.0 / MEAN_BURST_STEPS.max(1.0);
        // Stationarity: f = p_enter / (p_enter + p_exit).
        let p_enter = (BURST_FRACTION * p_exit) / (1.0 - BURST_FRACTION).max(1e-9);
        let vms = (0..cfg.n_vms)
            .map(|vm| PlVm::init(&cfg, &base_dist, &burst_level, vm))
            .collect();
        Self {
            cfg,
            n_steps,
            next_step: 0,
            vms,
            base_dist,
            burst_level,
            noise,
            p_exit,
            p_enter,
        }
    }
}

impl TraceSource for PlanetLabSource {
    fn header(&self) -> TraceHeader {
        TraceHeader {
            n_vms: self.cfg.n_vms,
            n_steps: self.n_steps,
            step_seconds: STEP_SECONDS,
        }
    }

    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        let left = self.n_steps.saturating_sub(self.next_step);
        let cols = columns(buf, self.vms.len(), left);
        let want = cols.len();
        let Self {
            vms,
            burst_level,
            noise,
            p_exit,
            p_enter,
            next_step,
            ..
        } = self;
        for (s, col) in cols.enumerate() {
            let step = *next_step + s;
            for (vm, slot) in vms.iter_mut().zip(col.iter_mut()) {
                *slot = vm.advance(step, *p_exit, *p_enter, burst_level, noise);
            }
        }
        self.next_step += want;
        want
    }

    fn reset(&mut self) {
        self.next_step = 0;
        let Self {
            cfg,
            vms,
            base_dist,
            burst_level,
            ..
        } = self;
        for (i, vm) in vms.iter_mut().enumerate() {
            *vm = PlVm::init(cfg, base_dist, burst_level, i);
        }
    }
}

// ---------------------------------------------------------------------------
// Google generator source
// ---------------------------------------------------------------------------

/// Mean of the per-task utilization log-normal (percent): Google tasks
/// run at low, obfuscated usage (§6.2).
const TASK_UTIL_MEAN: f64 = 9.0;
/// Expected idle gap between Google tasks, in steps: each VM runs its
/// task to completion and then switches to another.
const MEAN_IDLE_STEPS: f64 = 2.0;

/// Per-VM renewal-process phase of the Google generator.
#[derive(Debug, Clone, Copy)]
enum GMode {
    /// Staggered-start idle prefix.
    Pad { left: usize },
    /// Idle gap between tasks.
    Gap { left: usize },
    /// A running task at a fixed base level.
    Task { left: usize, level: f64 },
}

#[derive(Debug, Clone)]
struct GVm {
    rng: StdRng,
    mode: GMode,
}

impl GVm {
    fn init(cfg: &GoogleConfig, vm: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(vm_seed(cfg.seed, vm));
        // Staggered starts: idle for a random prefix.
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "a constant divided by the literal 4"
        )]
        let offset = rng.gen_range(0..=(STEPS_PER_DAY / 4).max(1));
        Self {
            rng,
            mode: GMode::Pad { left: offset },
        }
    }

    fn advance(&mut self, util_dist: &LogNormal, noise: &Normal) -> f64 {
        loop {
            match self.mode {
                GMode::Pad { left } if left > 0 => {
                    self.mode = GMode::Pad { left: left - 1 };
                    return 0.0;
                }
                GMode::Gap { left } if left > 0 => {
                    self.mode = GMode::Gap { left: left - 1 };
                    return 0.0;
                }
                GMode::Task { left, level } if left > 0 => {
                    self.mode = GMode::Task {
                        left: left - 1,
                        level,
                    };
                    return (level + noise.sample(&mut self.rng)).clamp(0.1, 100.0);
                }
                // Pad over or task finished: draw the next idle gap.
                GMode::Pad { .. } | GMode::Task { .. } => {
                    let gap = crate::google::sample_geometric(
                        &mut self.rng,
                        1.0 / (MEAN_IDLE_STEPS + 1.0),
                    );
                    self.mode = GMode::Gap { left: gap };
                }
                // Gap over: draw the next task.
                GMode::Gap { .. } => {
                    let duration_s = crate::google::sample_duration(&mut self.rng);
                    let duration_steps =
                        ((duration_s / STEP_SECONDS as f64).ceil() as usize).max(1);
                    let level = util_dist.sample(&mut self.rng).clamp(0.5, 60.0);
                    self.mode = GMode::Task {
                        left: duration_steps,
                        level,
                    };
                }
            }
        }
    }
}

/// Lazy [`TraceSource`] of the Google-Cluster-like generator.
#[derive(Debug, Clone)]
pub struct GoogleSource {
    cfg: GoogleConfig,
    n_steps: usize,
    next_step: usize,
    vms: Vec<GVm>,
    util_dist: LogNormal,
    noise: Normal,
}

impl GoogleSource {
    pub(crate) fn new(cfg: GoogleConfig, n_steps: usize) -> Self {
        let util_dist =
            LogNormal::new(TASK_UTIL_MEAN.max(0.1).ln(), 0.6).expect("valid lognormal parameters");
        let noise = Normal::new(0.0, 0.8).expect("valid normal parameters");
        let vms = (0..cfg.n_vms).map(|vm| GVm::init(&cfg, vm)).collect();
        Self {
            cfg,
            n_steps,
            next_step: 0,
            vms,
            util_dist,
            noise,
        }
    }
}

impl TraceSource for GoogleSource {
    fn header(&self) -> TraceHeader {
        TraceHeader {
            n_vms: self.cfg.n_vms,
            n_steps: self.n_steps,
            step_seconds: STEP_SECONDS,
        }
    }

    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        let left = self.n_steps.saturating_sub(self.next_step);
        let cols = columns(buf, self.vms.len(), left);
        let want = cols.len();
        let Self {
            vms,
            util_dist,
            noise,
            ..
        } = self;
        for col in cols {
            for (vm, slot) in vms.iter_mut().zip(col.iter_mut()) {
                *slot = vm.advance(util_dist, noise);
            }
        }
        self.next_step += want;
        want
    }

    fn reset(&mut self) {
        self.next_step = 0;
        let Self { cfg, vms, .. } = self;
        for (i, vm) in vms.iter_mut().enumerate() {
            *vm = GVm::init(cfg, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> WorkloadTrace {
        WorkloadTrace::from_rows(
            300,
            vec![vec![10.0, 20.0, 30.0, 40.0], vec![0.0, 50.0, 100.0, 25.0]],
        )
        .unwrap()
    }

    /// Reads a source to exhaustion `chunk_steps` at a time.
    fn drain(source: &mut dyn TraceSource, chunk_steps: usize) -> Vec<f64> {
        let n = source.header().n_vms;
        let mut buf = vec![0.0; chunk_steps.max(1) * n.max(1)];
        let mut all = Vec::new();
        loop {
            let got = source.fill_chunk(&mut buf);
            if got == 0 {
                return all;
            }
            all.extend_from_slice(&buf[..got * n]);
        }
    }

    #[test]
    fn cursor_streams_the_trace_column_major() {
        let t = toy();
        let mut cursor = t.cursor();
        assert_eq!(
            cursor.header(),
            TraceHeader {
                n_vms: 2,
                n_steps: 4,
                step_seconds: 300
            }
        );
        let all = drain(&mut cursor, 3);
        assert_eq!(all, vec![10.0, 0.0, 20.0, 50.0, 30.0, 100.0, 40.0, 25.0]);
    }

    #[test]
    fn chunk_size_does_not_change_the_stream() {
        let t = PlanetLabConfig::new(5, 9).generate_steps(40);
        let whole = drain(&mut t.cursor(), 40);
        for chunk in [1, 3, 7, 64] {
            assert_eq!(drain(&mut t.cursor(), chunk), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn take_steps_round_trips_a_materialized_trace() {
        let t = toy();
        assert_eq!(t.cursor().take_steps(4), t);
        assert_eq!(t.cursor().take_steps(2), t.truncated(2));
    }

    #[test]
    fn generator_sources_match_generate_steps() {
        let pl = PlanetLabConfig::new(6, 3);
        assert_eq!(pl.source(50).take_steps(50), pl.generate_steps(50));
        let g = GoogleConfig::new(6, 3);
        assert_eq!(g.source(50).take_steps(50), g.generate_steps(50));
    }

    #[test]
    fn generator_chunked_reads_equal_whole_reads() {
        for chunk in [1, 7, 64] {
            let mut a = GoogleConfig::new(4, 11).source(100);
            let mut b = GoogleConfig::new(4, 11).source(100);
            assert_eq!(drain(&mut a, chunk), drain(&mut b, 100), "chunk {chunk}");
        }
    }

    #[test]
    fn reset_replays_identically() {
        let mut s = PlanetLabConfig::new(3, 21).source(30);
        let first = drain(&mut s, 8);
        assert_eq!(s.fill_chunk(&mut [0.0; 3]), 0, "exhausted before reset");
        s.reset();
        assert_eq!(drain(&mut s, 8), first);
    }

    #[test]
    fn per_vm_streams_are_prefix_stable() {
        // A VM's series must not depend on how many other VMs exist:
        // that is what per-VM seeding buys over the legacy shared RNG.
        let a = PlanetLabConfig::new(2, 5).source(20).take_steps(20);
        let b = PlanetLabConfig::new(6, 5).source(20).take_steps(20);
        assert_eq!(a.vm_row(0), b.vm_row(0));
        assert_eq!(a.vm_row(1), b.vm_row(1));
    }

    #[test]
    fn boxed_dyn_source_works() {
        let mut source: Box<dyn TraceSource> = Box::new(GoogleConfig::new(3, 2).source(25));
        assert_eq!(source.header().n_vms, 3);
        let mut buf = vec![0.0; 3 * 4];
        let mut steps = 0;
        loop {
            let got = source.fill_chunk(&mut buf);
            if got == 0 {
                break;
            }
            steps += got;
        }
        assert_eq!(steps, 25);
        source.reset();
        let trace = source.take_steps(25);
        assert_eq!(trace.n_steps(), 25);
    }

    #[test]
    fn empty_sources_are_exhausted_immediately() {
        let mut s = PlanetLabConfig::new(0, 1).source(10);
        assert_eq!(s.fill_chunk(&mut []), 0);
        assert_eq!(s.take_steps(10).n_vms(), 0);
    }

    #[test]
    fn vm_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4u64 {
            for vm in 0..64usize {
                assert!(seen.insert(vm_seed(seed, vm)), "collision at {seed}/{vm}");
            }
        }
    }
}
