//! Criterion microbenchmark: per-step decision latency of Megh, THR-MMT
//! and MadVM at several data-center sizes.
//!
//! This is the microbenchmark behind the "Execution time (ms)" column of
//! Tables 2–3 and the Figure 6 scaling curves: it measures exactly one
//! `Scheduler::decide` call on a warmed-up scheduler, isolating decision
//! latency from simulation bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use megh_baselines::{MadVmConfig, MadVmScheduler, MmtFlavor, MmtScheduler};
use megh_core::{MeghAgent, MeghConfig};
use megh_sim::{DataCenterConfig, DataCenterView, InitialPlacement, Scheduler, Simulation};
use megh_trace::PlanetLabConfig;

/// Captures a mid-run view after `warmup` steps of the given scheduler,
/// returning the warmed scheduler and the captured view.
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

fn bench_decision_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("decide");
    group.sample_size(20);

    for &(m, n) in &[(50usize, 66usize), (100, 132), (200, 264)] {
        group.bench_with_input(
            BenchmarkId::new("Megh", format!("{m}x{n}")),
            &(m, n),
            |b, _| {
                let (mut megh, view) =
                    warmed(m, n, 30, MeghAgent::new(MeghConfig::paper_defaults(n, m)));
                b.iter(|| std::hint::black_box(megh.decide(&view)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("THR-MMT", format!("{m}x{n}")),
            &(m, n),
            |b, _| {
                let (mut thr, view) = warmed(m, n, 30, MmtScheduler::new(MmtFlavor::Thr));
                b.iter(|| std::hint::black_box(thr.decide(&view)));
            },
        );
    }

    // MadVM only at the small size — it is the slow one by design.
    group.bench_function(BenchmarkId::new("MadVM", "50x66"), |b| {
        let (mut madvm, view) = warmed(50, 66, 30, MadVmScheduler::new(MadVmConfig::default()));
        b.iter(|| std::hint::black_box(madvm.decide(&view)));
    });

    // Evaluation-phase decide with the critic running: learning is
    // paused, `observe` feeds a cost, so the next `decide` computes the
    // preview products B·u and Bᵀ·v on the DOK operator.
    for &(m, n) in &[(100usize, 132usize), (200, 264)] {
        group.bench_with_input(
            BenchmarkId::new("dok_decide", format!("{m}x{n}")),
            &(m, n),
            |b, _| {
                let (mut megh, view) =
                    warmed(m, n, 30, MeghAgent::new(MeghConfig::paper_defaults(n, m)));
                megh.freeze();
                let feedback = megh_sim::StepFeedback {
                    step: 0,
                    energy_cost_usd: 0.05,
                    sla_cost_usd: 0.01,
                    total_cost_usd: 0.06,
                    applied: Vec::new(),
                };
                b.iter(|| {
                    megh.observe(&feedback);
                    std::hint::black_box(megh.decide(&view))
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_decision_latency);
criterion_main!(benches);
