//! Property-based tests of the workload generators and trace utilities.

use megh_trace::{
    load_csv, log10_histogram, save_csv, GoogleConfig, PlanetLabConfig, TraceHeader, TraceSource,
    TraceStats, WorkloadTrace, STEP_SECONDS,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any generated PlanetLab trace is valid: right shape, in-range
    /// utilization, deterministic under its seed.
    #[test]
    fn planetlab_generator_is_valid_and_deterministic(
        n_vms in 0..20usize,
        steps in 0..120usize,
        seed in 0..500u64,
    ) {
        let cfg = PlanetLabConfig::new(n_vms, seed);
        let a = cfg.generate_steps(steps);
        let b = cfg.generate_steps(steps);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.n_vms(), n_vms);
        if n_vms > 0 {
            prop_assert_eq!(a.n_steps(), steps);
        }
        prop_assert_eq!(a.step_seconds(), STEP_SECONDS);
        for vm in 0..a.n_vms() {
            for &u in a.vm_row(vm) {
                prop_assert!((0.0..=100.0).contains(&u));
            }
        }
    }

    /// Same for the Google generator, which additionally must include
    /// idle (zero) samples in any reasonably long trace.
    #[test]
    fn google_generator_is_valid_and_deterministic(
        n_vms in 1..15usize,
        seed in 0..500u64,
    ) {
        let cfg = GoogleConfig::new(n_vms, seed);
        let a = cfg.generate_steps(200);
        prop_assert_eq!(&a, &cfg.generate_steps(200));
        for vm in 0..a.n_vms() {
            for &u in a.vm_row(vm) {
                prop_assert!((0.0..=100.0).contains(&u));
            }
        }
    }

    /// Task durations always live inside the configured support.
    #[test]
    fn google_durations_in_support(seed in 0..200u64) {
        let cfg = GoogleConfig::new(1, seed);
        for d in cfg.sample_task_durations(200) {
            prop_assert!(d >= cfg.min_task_seconds * 0.999);
            prop_assert!(d <= cfg.max_task_seconds * 1.001);
        }
    }

    /// CSV roundtrip preserves every sample to the serialised precision.
    #[test]
    fn csv_roundtrip(n_vms in 1..6usize, steps in 1..20usize, seed in 0..50u64) {
        let trace = PlanetLabConfig::new(n_vms, seed).generate_steps(steps);
        let path = std::env::temp_dir().join(format!(
            "megh-prop-{}-{}-{}-{}.csv",
            std::process::id(),
            n_vms,
            steps,
            seed
        ));
        save_csv(&trace, &path).unwrap();
        let loaded = load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.n_vms(), trace.n_vms());
        prop_assert_eq!(loaded.n_steps(), trace.n_steps());
        for vm in 0..trace.n_vms() {
            for step in 0..trace.n_steps() {
                prop_assert!(
                    (loaded.utilization(vm, step) - trace.utilization(vm, step)).abs() < 1e-3
                );
            }
        }
    }

    /// Trace statistics are internally consistent: per-step means lie
    /// within [min, max], and the overall mean equals the mean of
    /// per-step means (equal column sizes).
    #[test]
    fn stats_are_consistent(n_vms in 1..8usize, steps in 1..40usize, seed in 0..50u64) {
        let trace = PlanetLabConfig::new(n_vms, seed).generate_steps(steps);
        let stats = TraceStats::compute(&trace);
        prop_assert_eq!(stats.per_step_mean.len(), steps);
        for &m in &stats.per_step_mean {
            prop_assert!(m >= stats.overall_min - 1e-9);
            prop_assert!(m <= stats.overall_max + 1e-9);
        }
        let mean_of_means: f64 =
            stats.per_step_mean.iter().sum::<f64>() / steps as f64;
        prop_assert!((mean_of_means - stats.overall_mean).abs() < 1e-9);
    }

    /// The log histogram partitions all positive samples.
    #[test]
    fn log_histogram_partitions(values in prop::collection::vec(0.0..1e6f64, 0..100)) {
        let (edges, counts) = log10_histogram(&values, 3);
        let positives = values.iter().filter(|&&v| v > 0.0).count();
        prop_assert_eq!(counts.iter().sum::<usize>(), positives);
        prop_assert_eq!(edges.len(), counts.len());
        for w in edges.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Truncation then statistics equals statistics of the prefix.
    #[test]
    fn truncation_is_a_prefix(steps in 1..30usize, keep in 0..30usize) {
        let trace = PlanetLabConfig::new(4, 9).generate_steps(steps);
        let truncated = trace.truncated(keep);
        prop_assert_eq!(truncated.n_steps(), keep.min(steps));
        for vm in 0..trace.n_vms() {
            prop_assert_eq!(
                truncated.vm_row(vm),
                &trace.vm_row(vm)[..keep.min(steps)]
            );
        }
    }

}

/// `WorkloadTrace::from_rows` is the single validation gate: fuzz it.
#[test]
fn from_rows_validation_gate() {
    assert!(WorkloadTrace::from_rows(300, vec![vec![0.0], vec![100.0]]).is_some());
    assert!(WorkloadTrace::from_rows(300, vec![vec![100.0 + f64::EPSILON * 100.0]]).is_none());
    assert!(WorkloadTrace::from_rows(300, vec![vec![f64::INFINITY]]).is_none());
    assert!(WorkloadTrace::from_rows(0, vec![vec![1.0]]).is_none());
}

/// Reads `source` to exhaustion `chunk_steps` columns at a time and
/// returns the column-major concatenation.
fn drain(source: &mut dyn TraceSource, chunk_steps: usize) -> Vec<f64> {
    let n = source.header().n_vms;
    let mut buf = vec![0.0; chunk_steps * n.max(1)];
    let mut all = Vec::new();
    loop {
        let got = source.fill_chunk(&mut buf);
        assert!(
            got <= chunk_steps,
            "{got} columns from a {chunk_steps}-column buffer"
        );
        if got == 0 {
            return all;
        }
        all.extend_from_slice(&buf[..got * n]);
    }
}

/// `trace` laid out column-major, the order `fill_chunk` streams it in.
fn column_major(trace: &WorkloadTrace) -> Vec<f64> {
    (0..trace.n_steps())
        .flat_map(|step| (0..trace.n_vms()).map(move |vm| trace.utilization(vm, step)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The executed counterpart of the slicing proofs `source.rs` used to
    /// carry: chunked `fill_chunk` reads over a cursor reproduce the trace
    /// column-major, and `take_steps` materializes it back bit for bit —
    /// for empty fleets and chunks longer than the horizon.
    #[test]
    fn chunked_reads_reproduce_materialize(
        n_vms in 0..6usize,
        steps in 0..40usize,
        chunk_steps in 1..70usize,
        seed in 0..50u64,
    ) {
        let trace = PlanetLabConfig::new(n_vms, seed).generate_steps(steps);
        prop_assert_eq!(&drain(&mut trace.cursor(), chunk_steps), &column_major(&trace));
        prop_assert_eq!(&trace.cursor().take_steps(trace.n_steps()), &trace);
    }
}

/// A source that fills what it is given honestly and then claims
/// `usize::MAX` columns — `TraceSource` is a public trait, so nothing
/// stops an implementation from over-reporting.
struct Liar<S>(S);

impl<S: TraceSource> TraceSource for Liar<S> {
    fn header(&self) -> TraceHeader {
        self.0.header()
    }
    fn fill_chunk(&mut self, buf: &mut [f64]) -> usize {
        match self.0.fill_chunk(buf) {
            0 => 0,
            _ => usize::MAX,
        }
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Every consumer of a `fill_chunk` return value holds an over-reporting
/// source to the columns its buffer has room for: no panic, no read past
/// them, and — where the honest source filled the whole buffer — the
/// same values as the honest run.
#[test]
fn over_reporting_source_is_clamped_to_the_buffer() {
    // 3 VMs × 12 steps, read in one 12-column buffer that is filled.
    let trace = PlanetLabConfig::new(3, 5).generate_steps(12);
    assert_eq!(Liar(trace.cursor()).take_steps(12), trace);
    // Past the end of the inner stream the claim can no longer be told
    // from the truth; it must still not read past the buffer.
    assert!(Liar(trace.cursor()).take_steps(100).n_steps() <= 100);
}
