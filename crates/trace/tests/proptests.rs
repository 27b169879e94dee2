//! Property-based tests of the workload generators and trace utilities.

use megh_trace::{
    load_csv, log10_histogram, save_csv, GoogleConfig, PlanetLabConfig, TraceHeader, TraceSource,
    TraceStats, WorkloadTrace, STEP_SECONDS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

    /// Sub-sampling VMs preserves rows verbatim and never duplicates.
    #[test]
    fn vm_sampling_preserves_rows(k in 0..10usize, seed in 0..100u64) {
        let trace = PlanetLabConfig::new(8, 3).generate_steps(30);
        let mut rng = StdRng::seed_from_u64(seed);
        let sub = trace.sample_vms(k, &mut rng);
        prop_assert_eq!(sub.n_vms(), k.min(8));
        // Every sampled row must exist in the original.
        for vm in 0..sub.n_vms() {
            let row = sub.vm_row(vm);
            let found = (0..trace.n_vms()).any(|orig| trace.vm_row(orig) == row);
            prop_assert!(found, "sampled row not found in source");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scaling by a factor then by its inverse is identity wherever no
    /// clamping occurred; all outputs stay in range regardless.
    #[test]
    fn scaling_properties(factor in 0.1..3.0f64, seed in 0..50u64) {
        let trace = PlanetLabConfig::new(4, seed).generate_steps(30);
        let scaled = megh_trace::scale_utilization(&trace, factor);
        for vm in 0..scaled.n_vms() {
            for (step, &u) in scaled.vm_row(vm).iter().enumerate() {
                prop_assert!((0.0..=100.0).contains(&u));
                let raw = trace.utilization(vm, step) * factor;
                if raw <= 100.0 {
                    prop_assert!((u - raw).abs() < 1e-9);
                }
            }
        }
    }

    /// Coarsening preserves the overall mean over whole buckets.
    #[test]
    fn coarsening_preserves_mean(factor in 1..6usize, seed in 0..50u64) {
        let steps = 30 - (30 % factor); // whole buckets only
        let trace = PlanetLabConfig::new(4, seed).generate_steps(steps);
        let coarse = megh_trace::coarsen(&trace, factor);
        prop_assert_eq!(coarse.n_steps(), steps / factor);
        if coarse.n_steps() > 0 {
            prop_assert!((coarse.overall_mean() - trace.overall_mean()).abs() < 1e-9);
        }
    }

    /// Merging keeps every original row findable and the step count is
    /// the max of the two inputs.
    #[test]
    fn merge_properties(n_a in 1..5usize, n_b in 1..5usize, seed in 0..30u64) {
        let a = PlanetLabConfig::new(n_a, seed).generate_steps(20);
        let b = PlanetLabConfig::new(n_b, seed + 1).generate_steps(10);
        let merged = megh_trace::merge_populations(&a, &b);
        prop_assert_eq!(merged.n_vms(), n_a + n_b);
        prop_assert_eq!(merged.n_steps(), 20);
        for vm in 0..n_a {
            prop_assert_eq!(merged.vm_row(vm), a.vm_row(vm));
        }
        // b's rows are zero-padded to a's length.
        for vm in 0..n_b {
            prop_assert_eq!(&merged.vm_row(n_a + vm)[..10], b.vm_row(vm));
            prop_assert!(merged.vm_row(n_a + vm)[10..].iter().all(|&u| u == 0.0));
        }
    }

    /// The diurnal generator stays in range and keeps its period.
    #[test]
    fn diurnal_generator_is_valid(n_vms in 1..10usize, seed in 0..50u64) {
        let trace = megh_trace::DiurnalConfig::new(n_vms, seed).generate_steps(400);
        prop_assert_eq!(trace.n_vms(), n_vms);
        for vm in 0..n_vms {
            for &u in trace.vm_row(vm) {
                prop_assert!((0.0..=100.0).contains(&u));
            }
        }
        prop_assert_eq!(
            &megh_trace::DiurnalConfig::new(n_vms, seed).generate_steps(400),
            &trace
        );
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
    /// carry: chunked `fill_chunk` reads over a cursor and both buffer-
    /// walking adapters reproduce `materialize()` and the adapters'
    /// per-value formulas bit for bit — for empty fleets, chunks longer
    /// than the horizon, and horizons the coarsening factor does not
    /// divide.
    #[test]
    fn chunked_reads_reproduce_materialize(
        n_vms in 0..6usize,
        steps in 0..40usize,
        chunk_steps in 1..70usize,
        factor in 1..5usize,
        scale in 0.1..3.0f64,
        seed in 0..50u64,
    ) {
        let trace = PlanetLabConfig::new(n_vms, seed).generate_steps(steps);
        let raw = column_major(&trace);

        prop_assert_eq!(&drain(&mut trace.cursor(), chunk_steps), &raw);
        prop_assert_eq!(&trace.cursor().materialize(), &trace);

        let scaled = drain(&mut trace.cursor().scaled(scale), chunk_steps);
        let want: Vec<f64> = raw.iter().map(|u| (u * scale).clamp(0.0, 100.0)).collect();
        prop_assert_eq!(&scaled, &want);
        prop_assert_eq!(&scaled, &column_major(&trace.cursor().scaled(scale).materialize()));

        let coarse = drain(&mut trace.cursor().coarsened(factor), chunk_steps);
        let n = trace.n_vms();
        let mut want = Vec::new();
        for bucket in 0..trace.n_steps() / factor {
            for vm in 0..n {
                let mut acc = 0.0;
                for s in 0..factor {
                    acc += raw[(bucket * factor + s) * n + vm];
                }
                want.push(acc / factor as f64);
            }
        }
        prop_assert_eq!(&coarse, &want);
        prop_assert_eq!(&coarse, &column_major(&trace.cursor().coarsened(factor).materialize()));
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
    // 3 VMs × 12 steps, read 4 columns at a time: every buffer is full.
    let trace = PlanetLabConfig::new(3, 5).generate_steps(12);
    assert_eq!(Liar(trace.cursor()).take_steps(12), trace);
    assert_eq!(
        drain(&mut Liar(trace.cursor()).scaled(1.5), 4),
        drain(&mut trace.cursor().scaled(1.5), 4)
    );
    assert_eq!(
        drain(&mut Liar(trace.cursor()).with_noise(2.0, 9), 4),
        drain(&mut trace.cursor().with_noise(2.0, 9), 4)
    );
    assert_eq!(
        drain(&mut Liar(trace.cursor()).coarsened(3), 4),
        drain(&mut trace.cursor().coarsened(3), 4)
    );
    // A buffer with a trailing partial column: the adapter touches whole
    // columns only, and reports no more of them than there are.
    let mut buf = vec![-1.0; 2 * 3 + 2];
    assert_eq!(Liar(trace.cursor()).scaled(2.0).fill_chunk(&mut buf), 2);
    assert_eq!(buf[6..], [-1.0, -1.0]);
    // Past the end of the inner stream the claim can no longer be told
    // from the truth; it must still not read past the buffer.
    assert!(Liar(trace.cursor()).take_steps(100).n_steps() <= 100);
}
