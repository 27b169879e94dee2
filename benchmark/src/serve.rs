//! The daemon-path workloads: a `megh_serve::Server` in this process on
//! loopback TCP, serving a trained agent to one closed-loop client.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use megh_core::{load_checkpoint, save_checkpoint, MeghCheckpoint};
use megh_serve::{Client, Listen, Request, Response, ServeError, ServeOptions, Server};
use megh_sim::{run_streamed, SimOptions};

use crate::floor::{segments_s, Floor};
use crate::metrics::Report;
use crate::probes;
use crate::seeds::{decide_seed, ObserveStream};
use crate::sim::{self, SimSpec};
use crate::spans::{durations_ns, self_time_ns, Recorder, Span, SpanId, TraceCtx};
use crate::stats::{med, percentile_sorted, supported_percentile};
use crate::{RunArgs, MAX_TRACE_OVERHEAD};

/// The fleet every daemon workload trains on in set-up: Figs 4–5's,
/// for 30 days, so θ holds thousands of entries when serving starts.
const TRAIN: SimSpec = SimSpec {
    hosts: 100,
    vms: 150,
    days: 30,
    seeded_days: 0,
    decide_share: (0.0, 1.0),
};
const WARMUP_DECIDES: u64 = 200;
/// Observes (then decides) per cycle of `serve_cycle`.
const BATCH: usize = 16;
const STATS_PROBES: usize = 2_000;
/// Passes of a run that make the whole set-up, training included; their
/// median is `setup_s`. Later passes skip the (identical) training, so
/// that more of them fit in a run.
const FULL_SETUPS: usize = 3;
/// Segment sizes (see `floor`): ≈ 70 ms of a pass each.
const SEGMENT_DECIDES: usize = 200;
const SEGMENT_CYCLES: usize = 8;

/// What one pass of a daemon workload sends in its measured region.
#[derive(Clone, Copy)]
pub enum ServeSpec {
    /// `n` decide requests: the read path alone, writer idle.
    Decide { requests: usize },
    /// `n` cycles of 16 observes, one sync, 16 decides: writes beside
    /// reads.
    Cycle { cycles: usize },
}

impl ServeSpec {
    fn learned_steps(self) -> usize {
        match self {
            ServeSpec::Decide { .. } => 0,
            ServeSpec::Cycle { cycles } => cycles * BATCH,
        }
    }

    fn ops(self) -> usize {
        match self {
            ServeSpec::Decide { requests } => requests,
            ServeSpec::Cycle { cycles } => cycles,
        }
    }
}

/// What training leaves behind. The learning path is fixed (see
/// `sim::Spliced`), so every training run of every pass gives this same
/// state bit for bit; passes after the first `FULL_SETUPS` reuse it.
struct Trained {
    checkpoint: MeghCheckpoint,
    cost_usd: f64,
    train_s: f64,
}

fn train(seed: u64) -> Result<Trained, String> {
    let t0 = Instant::now();
    let inputs = sim::setup(&TRAIN, seed);
    let mut agent = inputs.agent;
    let outcome = run_streamed(
        &inputs.config,
        inputs.source,
        &mut agent,
        SimOptions::default(),
    )
    .map_err(|e| format!("training run failed: {e}"))?;
    Ok(Trained {
        checkpoint: agent.checkpoint(),
        cost_usd: outcome.report().total_cost_usd,
        train_s: t0.elapsed().as_secs_f64(),
    })
}

/// Keeps every core awake while a daemon is measured: one thread per
/// core that does nothing but yield.
///
/// A closed-loop client and its handler hand the work back and forth,
/// so each core idles for a few hundred µs thousands of times a second,
/// and what that costs is up to the host's power management, not to the
/// code under test. On the VM this was written on it was bimodal over
/// minutes: the same binary and seed served 3 200 decides/s in one
/// quarter of an hour and 2 050 in the next, and went back to 2 800 the
/// moment a `nice -n 19` busy loop kept the cores from halting. This is
/// the in-process equivalent of booting with `idle=poll`, the usual
/// condition for latency measurements: a yielding thread gives its core
/// to any thread that becomes runnable, so it takes nothing from the
/// daemon.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                // Relaxed: the flag publishes no other data.
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A yield loop cannot panic; nothing to report.
            let _ = thread.join();
        }
    }
}

/// A running daemon with one connected client.
struct Daemon {
    client: Client,
    server: JoinHandle<Result<(), ServeError>>,
    checkpoint: PathBuf,
    bind_s: f64,
    connect_us: f64,
}

/// Checkpoints the trained state, binds a daemon on it, connects and
/// warms up.
fn start_daemon(trained: &Trained, seed: u64, report: &mut Report) -> Result<Daemon, String> {
    let checkpoint = crate::scratch_dir()?.join(format!("daemon-{}.json", std::process::id()));
    let cp = &trained.checkpoint;
    save_checkpoint(&checkpoint, cp).map_err(|e| format!("saving the checkpoint failed: {e}"))?;

    let t0 = Instant::now();
    let options = ServeOptions::new(Listen::Tcp("127.0.0.1:0".to_string()), checkpoint.clone());
    let server = Server::bind(cp.config.clone(), &options).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .ok_or("the daemon reports no TCP address")?;
    let bind_s = t0.elapsed().as_secs_f64();
    let server = std::thread::spawn(move || server.run());

    let t0 = Instant::now();
    let mut client =
        Client::connect(&Listen::Tcp(addr.to_string())).map_err(|e| format!("connect: {e}"))?;
    let connect_us = t0.elapsed().as_secs_f64() * 1e6;
    for i in 0..WARMUP_DECIDES {
        // Warm-up seeds sit beyond any measured request's index.
        report.attempted += 1;
        if !matches!(
            client.decide(decide_seed(seed, u64::MAX - i)),
            Ok(Response::Decision { .. })
        ) {
            report.failed += 1;
        }
    }
    Ok(Daemon {
        client,
        server,
        checkpoint,
        bind_s,
        connect_us,
    })
}

/// The client side of a measured region: sends requests one at a time,
/// times each round trip, counts what fails, and — when tracing —
/// records a span per call.
struct Session<'a> {
    client: &'a mut Client,
    n_vms: usize,
    n_hosts: usize,
    attempted: u64,
    failed: u64,
    trace: Option<TraceCtx<'a>>,
    decide_us: Vec<f64>,
    observe_us: Vec<f64>,
    sync_us: Vec<f64>,
    queue_depth_max: usize,
}

impl Session<'_> {
    /// One round trip; `None` (and one failure) when the call errs.
    fn call(&mut self, name: &'static str, request: &Request) -> (Option<Response>, f64) {
        self.attempted += 1;
        let start = Instant::now();
        let response = self.client.request(request);
        let end = Instant::now();
        if let Some(t) = self.trace {
            t.record(name, start, end);
        }
        (response.ok(), end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// A decide kept out of the latency samples: the sampled action
    /// (when the answer is a `Decision` within the fleet, else one
    /// failure) and the round trip in µs.
    fn decide_unrecorded(&mut self, seed: u64) -> (Option<usize>, f64) {
        let (response, us) = self.call("serve.decide", &Request::Decide { seed });
        match response {
            Some(Response::Decision {
                action, vm, target, ..
            }) if vm < self.n_vms
                && target < self.n_hosts
                && action < self.n_vms * self.n_hosts =>
            {
                (Some(action), us)
            }
            _ => {
                self.failed += 1;
                (None, us)
            }
        }
    }

    fn decide(&mut self, seed: u64) {
        let (_, us) = self.decide_unrecorded(seed);
        self.decide_us.push(us);
    }

    fn observe(&mut self, action: usize, cost: f64) {
        let (response, us) = self.call("serve.observe", &Request::Observe { action, cost });
        self.observe_us.push(us);
        match response {
            Some(Response::Queued { depth }) => {
                self.queue_depth_max = self.queue_depth_max.max(depth);
            }
            _ => self.failed += 1,
        }
    }

    /// A sync barrier; the daemon's learned-step count.
    fn sync(&mut self) -> Option<usize> {
        let (response, us) = self.call("serve.sync", &Request::Sync);
        self.sync_us.push(us);
        match response {
            Some(Response::Synced { steps }) => Some(steps),
            _ => {
                self.failed += 1;
                None
            }
        }
    }

    /// `(steps, nnz, published, round-trip µs)` from a stats request.
    fn stats(&mut self) -> Option<(usize, usize, u64, f64)> {
        match self.call("serve.stats", &Request::Stats) {
            (
                Some(Response::Stats {
                    steps,
                    nnz,
                    published,
                    ..
                }),
                us,
            ) => Some((steps, nnz, published, us)),
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

/// One pass, reduced to numbers.
struct Pass {
    /// The whole set-up's time and result, when this pass trained.
    full_setup: Option<(f64, Trained)>,
    bind_s: f64,
    connect_us: f64,
    /// Wall time of the measured region, and of each of its fixed
    /// segments (`SEGMENT_DECIDES` decides or `SEGMENT_CYCLES` cycles).
    wall_s: f64,
    segment_s: Vec<f64>,
    decide_us: Vec<f64>,
    observe_us: Vec<f64>,
    sync_us: Vec<f64>,
    stats_us: Vec<f64>,
    queue_depth_max: usize,
    publishes: u64,
    shutdown_s: f64,
    steps_end: usize,
    nnz_end: usize,
    root: Option<SpanId>,
    /// The state the daemon checkpointed at shutdown (traced passes).
    end_state: Option<MeghCheckpoint>,
}

/// Sets up a daemon (training first unless `reuse` hands the trained
/// state in), drives the measured region, probes (traced only), shuts
/// down, and checks what the daemon did.
fn pass(
    spec: ServeSpec,
    args: &RunArgs,
    trace: Option<(&Recorder, u32)>,
    reuse: Option<&Trained>,
    report: &mut Report,
) -> Result<Pass, String> {
    let seed = args.seed;
    let t0 = Instant::now();
    let fresh = match reuse {
        Some(_) => None,
        None => Some(train(seed)?),
    };
    let trained = reuse.or(fresh.as_ref()).expect("reused or just trained");
    let awake = KeepAwake::start();
    let mut daemon = start_daemon(trained, seed, report)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let config = &trained.checkpoint.config;
    let (n_vms, n_hosts, trained_steps) = (config.n_vms, config.n_hosts, trained.checkpoint.steps);
    let mean_cost = trained.cost_usd / trained_steps.max(1) as f64;

    let mut session = Session {
        client: &mut daemon.client,
        n_vms,
        n_hosts,
        attempted: 0,
        failed: 0,
        trace: None,
        decide_us: Vec::new(),
        observe_us: Vec::new(),
        sync_us: Vec::new(),
        queue_depth_max: 0,
    };
    let before = session.stats();

    // The measured region, marked at every segment boundary.
    let mut marks = vec![Instant::now()];
    let root = trace.map(|(rec, run_id)| rec.open("client.pass", None, run_id));
    session.trace = trace
        .zip(root)
        .map(|((rec, run_id), root)| TraceCtx { rec, root, run_id });
    let mut synced_steps = None;
    match spec {
        ServeSpec::Decide { requests } => {
            for i in 0..requests {
                session.decide(decide_seed(seed, i as u64));
                if (i + 1) % SEGMENT_DECIDES == 0 || i + 1 == requests {
                    marks.push(Instant::now());
                }
            }
        }
        ServeSpec::Cycle { cycles } => {
            let mut observed = ObserveStream::new(seed, n_vms * n_hosts, mean_cost);
            let mut next_decide = 0u64;
            for c in 0..cycles {
                for (action, cost) in observed.by_ref().take(BATCH) {
                    session.observe(action, cost);
                }
                synced_steps = session.sync();
                for _ in 0..BATCH {
                    session.decide(decide_seed(seed, next_decide));
                    next_decide += 1;
                }
                if (c + 1) % SEGMENT_CYCLES == 0 || c + 1 == cycles {
                    marks.push(Instant::now());
                }
            }
        }
    }
    if let Some((rec, _)) = trace {
        rec.close(root.expect("a traced pass opened its root"));
    }
    let segment_s = segments_s(&marks);
    let wall_s = segment_s.iter().sum();
    session.trace = None;
    drop(awake);

    // After the region: the daemon's own counters, and its answers to
    // a repeated seed against the (now quiet) snapshot.
    let after = session.stats();
    let repeat = decide_seed(seed, u64::MAX / 2);
    let (first, second) = (
        session.decide_unrecorded(repeat).0,
        session.decide_unrecorded(repeat).0,
    );
    report.check(first.is_some() && first == second, || {
        format!("seed {repeat} decided {first:?} then {second:?} against one snapshot")
    });
    let mut stats_us = Vec::new();
    if trace.is_some() {
        // The floor under every request: transport + parse + lock +
        // serialize, with no sampling.
        stats_us.extend((0..STATS_PROBES).filter_map(|_| session.stats().map(|s| s.3)));
    }

    let expected_steps = trained_steps + spec.learned_steps();
    let (steps_end, nnz_end, published_end) = after.map_or((0, 0, 0), |s| (s.0, s.1, s.2));
    report.check(steps_end == expected_steps, || {
        format!("stats.steps is {steps_end}, expected {expected_steps} (trained + observed)")
    });
    if let ServeSpec::Cycle { .. } = spec {
        report.check(synced_steps == Some(expected_steps), || {
            format!("the last sync reported {synced_steps:?} steps, expected {expected_steps}")
        });
    }
    let publishes = published_end.saturating_sub(before.map_or(0, |s| s.2));

    let Session {
        attempted,
        failed,
        decide_us,
        observe_us,
        sync_us,
        queue_depth_max,
        ..
    } = session;
    report.attempted += attempted;
    report.failed += failed;

    // Shutdown drains, writes the final checkpoint, then says bye.
    report.attempted += 1;
    let t0 = Instant::now();
    let bye = daemon.client.shutdown();
    let joined = daemon.server.join();
    let shutdown_s = t0.elapsed().as_secs_f64();
    if !matches!(bye, Ok(Response::Bye)) {
        report.failed += 1;
    }
    report.check(matches!(joined, Ok(Ok(()))), || {
        "the daemon thread did not stop cleanly".to_string()
    });
    let reloaded = load_checkpoint(&daemon.checkpoint);
    let _ = std::fs::remove_file(&daemon.checkpoint);
    let reloaded_steps = reloaded.as_ref().map(|cp| cp.steps).ok();
    report.check(reloaded_steps == Some(expected_steps), || {
        format!("the shutdown checkpoint holds {reloaded_steps:?} steps, expected {expected_steps}")
    });

    Ok(Pass {
        full_setup: fresh.map(|trained| (setup_s, trained)),
        bind_s: daemon.bind_s,
        connect_us: daemon.connect_us,
        wall_s,
        segment_s,
        decide_us,
        observe_us,
        sync_us,
        stats_us,
        queue_depth_max,
        publishes,
        shutdown_s,
        steps_end,
        nnz_end,
        root,
        // Only a traced pass's end state is probed afterwards.
        end_state: reloaded.ok().filter(|_| trace.is_some()),
    })
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One kind of latency sample from all of `passes`.
fn pooled(passes: &[Pass], samples: impl Fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| samples(p).iter().copied())
        .collect()
}

fn p50(sorted: &[f64]) -> f64 {
    percentile_sorted(sorted, 50.0).unwrap_or(0.0)
}

/// Runs passes until `args.seconds` of measured time have accumulated
/// (at least `FULL_SETUPS`; with `--trace 1`, untraced and traced
/// alternate), and reports.
pub fn run(spec: ServeSpec, args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let rec = Recorder::new();
    let mut untraced = Floor::default();
    let mut traced_floor = Floor::default();
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut trained: Option<Trained> = None;
    let mut traced: Vec<Pass> = Vec::new();
    let mut end_state = None;
    // Raw latencies of the untraced passes, for the printed summaries.
    let mut raw = [Vec::new(), Vec::new(), Vec::new()];
    let mut measured_s = 0.0;
    while measured_s < args.seconds || setup_s.len() < FULL_SETUPS {
        let reuse = trained.as_ref().filter(|_| setup_s.len() >= FULL_SETUPS);
        let p = pass(spec, args, None, reuse, &mut report)?;
        measured_s += p.wall_s;
        untraced.fold(&p.segment_s, &p.decide_us)?;
        if let Some((full_s, fresh)) = p.full_setup {
            setup_s.push(full_s);
            train_s.push(fresh.train_s);
            // What lets later passes reuse it.
            let same = trained.as_ref().is_none_or(|t| {
                t.cost_usd == fresh.cost_usd && t.checkpoint.steps == fresh.checkpoint.steps
            });
            report.check(same, || {
                "two training runs of one workload gave different states".to_string()
            });
            trained = Some(fresh);
        }
        report.pass_ops_per_s.push(spec.ops() as f64 / p.wall_s);
        for (all, one) in raw.iter_mut().zip([p.decide_us, p.observe_us, p.sync_us]) {
            all.extend(one);
        }
        if args.trace {
            let run_id = traced.len() as u32;
            let mut p = pass(
                spec,
                args,
                Some((&rec, run_id)),
                trained.as_ref(),
                &mut report,
            )?;
            measured_s += p.wall_s;
            traced_floor.fold(&p.segment_s, &p.decide_us)?;
            end_state = p.end_state.take().or(end_state);
            traced.push(p);
        }
    }
    let spans = rec.into_spans();
    let trained = trained.expect("the first pass trained");

    // End-to-end, from the floors of the untraced passes; set-up, as
    // everywhere, by its median.
    let n = untraced.passes();
    let decides = n * untraced.decides();
    report.e2e("setup_s", med(setup_s), FULL_SETUPS);
    report.e2e("ops_per_s", spec.ops() as f64 / untraced.wall_s(), n);
    report.e2e("decide_p50_us", untraced.decide_p50_us(), decides);
    let p90 = untraced.decide_percentile_us(90.0);
    report.check(p90.is_some(), || {
        "too few decides per pass to support a p90".to_string()
    });
    report.e2e("decide_p90_us", p90.unwrap_or(0.0), decides);
    report.e2e("total_cost_usd", trained.cost_usd, 1);
    for (name, samples) in ["decide_us", "observe_us", "sync_us"]
        .into_iter()
        .zip(&mut raw)
    {
        report.timing(name, samples);
    }

    if !traced.is_empty() {
        report.layer("serve.train_s", med(train_s), FULL_SETUPS);
        let overhead = (traced_floor.wall_s() - untraced.wall_s()) / untraced.wall_s();
        layers(spec, overhead, traced, &spans, &mut report);
        probes::wire(&mut report);
        if let Some(cp) = end_state {
            probes::core_and_linalg(&cp, args.seed, &mut report)?;
        }
    }
    report.floor_wall_s = untraced.wall_s();
    report.spans = spans;
    Ok(report)
}

/// Per-layer numbers of the traced passes, and the trace accounting.
fn layers(spec: ServeSpec, overhead: f64, traced: Vec<Pass>, spans: &[Span], report: &mut Report) {
    let t = traced.len();
    report.layer("serve.bind_s", med(traced.iter().map(|p| p.bind_s)), t);
    report.layer(
        "serve.connect_us",
        med(traced.iter().map(|p| p.connect_us)),
        t,
    );
    report.layer(
        "serve.shutdown_s",
        med(traced.iter().map(|p| p.shutdown_s)),
        t,
    );
    report.layer("serve.steps_end", traced[t - 1].steps_end as f64, 1);
    report.layer("serve.nnz_end", traced[t - 1].nnz_end as f64, 1);
    report.layer(
        "serve.failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );

    // Busy time per request kind, from the spans under each pass root.
    let mut sums = Vec::new();
    let mut by_kind = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for p in &traced {
        let root = p.root.expect("a traced pass has a root span");
        let of_pass = &spans[root as usize..];
        let busy = |name: &str| {
            of_pass
                .iter()
                .filter(|s| s.parent == Some(root) && s.name == name)
                .map(Span::duration_ns)
                .sum::<u64>() as f64
                * 1e-9
        };
        let kinds = [
            busy("serve.decide"),
            busy("serve.observe"),
            busy("serve.sync"),
            self_time_ns(spans, root) as f64 * 1e-9,
        ];
        for (all, one) in by_kind.iter_mut().zip(kinds) {
            all.push(one);
        }
        sums.push(kinds.iter().sum::<f64>() / p.wall_s);
    }
    let [decide_s, observe_s, sync_s, self_s] = by_kind.map(med);
    report.layer("serve.decide_s", decide_s, t);
    report.layer("serve.observe_s", observe_s, t);
    report.layer("serve.sync_s", sync_s, t);
    report.layer("serve.client_self_s", self_s, t);

    let decide_calls = durations_ns(spans, "serve.decide").count() / t;
    report.layer("serve.decide_calls", decide_calls as f64, 1);
    let mut decides = sorted(pooled(&traced, |p| &p.decide_us));
    let stats = sorted(pooled(&traced, |p| &p.stats_us));
    report.layer("serve.stats_rtt_p50_us", p50(&stats), stats.len());
    report.layer(
        "serve.decide_minus_stats_us",
        p50(&decides) - p50(&stats),
        decides.len(),
    );
    report.layer(
        "serve.decide_p99_us",
        supported_percentile(&mut decides, 99.0).unwrap_or(0.0),
        decides.len(),
    );
    report.layer(
        "serve.decide_p999_us",
        supported_percentile(&mut decides, 99.9).unwrap_or(0.0),
        decides.len(),
    );

    if let ServeSpec::Cycle { cycles } = spec {
        let mut observes = sorted(pooled(&traced, |p| &p.observe_us));
        let mut syncs = sorted(pooled(&traced, |p| &p.sync_us));
        report.layer("serve.observe_rtt_p50_us", p50(&observes), observes.len());
        report.layer(
            "serve.observe_rtt_p99_us",
            supported_percentile(&mut observes, 99.0).unwrap_or(0.0),
            observes.len(),
        );
        report.layer("serve.sync_p50_us", p50(&syncs), syncs.len());
        report.layer(
            "serve.sync_p90_us",
            supported_percentile(&mut syncs, 90.0).unwrap_or(0.0),
            syncs.len(),
        );
        report.layer(
            "serve.queue_depth_max",
            traced.iter().map(|p| p.queue_depth_max).max().unwrap_or(0) as f64,
            1,
        );
        let publishes = med(traced.iter().map(|p| p.publishes as f64));
        report.layer("serve.publishes", publishes, t);
        report.layer("serve.publishes_per_sync", publishes / cycles as f64, t);
        // The first decide of a cycle meets the snapshot the sync just
        // published; the other fifteen meet it again.
        let (mut first, mut later) = (Vec::new(), Vec::new());
        for p in &traced {
            for (i, &us) in p.decide_us.iter().enumerate() {
                if i % BATCH == 0 {
                    &mut first
                } else {
                    &mut later
                }
                .push(us);
            }
        }
        report.layer(
            "serve.first_decide_after_sync_us",
            p50(&sorted(first)),
            cycles * t,
        );
        report.layer(
            "serve.later_decide_us",
            p50(&sorted(later)),
            cycles * t * (BATCH - 1),
        );
    }

    // Accounting: in a closed loop the client is always inside a call
    // or in its own loop, so the kinds must explain the traced wall;
    // and tracing must be cheap.
    let layers_sum = med(sums);
    report.layer("layers_sum_frac", layers_sum, t);
    report.layer("trace_overhead_frac", overhead, t);
    report.check((0.9..=1.1).contains(&layers_sum), || {
        format!("request times sum to {layers_sum:.3} of the traced wall (want within 10 %)")
    });
    report.check(overhead <= MAX_TRACE_OVERHEAD, || {
        format!("trace_overhead_frac {overhead:.4} exceeds {MAX_TRACE_OVERHEAD}")
    });
}
