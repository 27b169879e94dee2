//! CLI subcommand implementations.

use megh_baselines::{MadVmConfig, MadVmScheduler, MmtFlavor, MmtScheduler};
use megh_core::{HierMegh, MeghAgent, MeghConfig};
use megh_serve::{
    Client as ServeClient, Listen, Request as ServeRequest, ServeError, ServeOptions,
};
use megh_sim::sweep::{format_row, run_row, Arm, Row, Setup, Workload};
use megh_sim::{
    run_streamed, DataCenterConfig, HostOutage, NoOpScheduler, Scheduler, SimOptions,
    SimulationOutcome, SlavMetrics, SummaryReport,
};
use megh_trace::{
    CsvSource, PlanetLabDirSource, TraceCsvError, TraceSource, TraceStats, WorkloadTrace,
};

use crate::args::{Args, ArgsError};
use crate::flags::{FlagSpec, FlagTable};

/// The workload families `--workload` accepts, as help and errors
/// spell them.
const WORKLOADS: &str = "planetlab|google";

/// The scheduler names [`build_named_scheduler`] accepts, as help and
/// errors spell them. `simulate --scheduler` also takes `all`.
const SCHEDULERS: &str = "megh|hier|hier<N>|thr-mmt|iqr-mmt|mad-mmt|lr-mmt|lrr-mmt|madvm|noop";

/// Options shared by every simulation-running subcommand. Each table
/// below is the single declaration of its flags: the typed getters and
/// the `megh help` text are both generated from it.
const COMMON_FLAGS: FlagTable = FlagTable::new(
    "COMMON OPTIONS",
    &[
        FlagSpec::opt("workload", WORKLOADS, "planetlab", "workload family"),
        FlagSpec::opt("hosts", "N", "20", "number of hosts"),
        FlagSpec::opt("vms", "N", "40", "number of VMs"),
        FlagSpec::opt("days", "N", "1", "simulated days (288 steps each)"),
        FlagSpec::opt(
            "seed",
            "N",
            "42",
            "seed of the trace and of every scheduler's RNG (sweep: the first seed)",
        ),
        FlagSpec::opt(
            "outage",
            "H:FROM:UNTIL[,..]",
            "none",
            "schedule host outages",
        ),
    ],
);

const SIMULATE_FLAGS: FlagTable = FlagTable::new(
    "simulate",
    &[
        FlagSpec::opt("scheduler", "NAME|all", "megh", SCHEDULERS),
        FlagSpec::switch("slav", "also print SLATAH/PDM/SLAV/ESV"),
        FlagSpec::opt(
            "file",
            "PATH",
            "",
            "simulate a trace CSV (or PlanetLab directory) instead of a generated workload",
        ),
        FlagSpec::switch("mem-stats", "print the process peak RSS after the run"),
        FlagSpec::opt("out", "FILE", "", "write the summary as JSON"),
        FlagSpec::opt(
            "progress-every",
            "N",
            "0",
            "print progress/ETA to stderr every N steps (0 = off)",
        ),
    ],
);

const SWEEP_FLAGS: FlagTable = FlagTable::new(
    "sweep",
    &[
        FlagSpec::opt(
            "schedulers",
            "NAME[,NAME..]",
            "megh",
            "names as for simulate; every other is paired by seed with the first",
        ),
        FlagSpec::opt(
            "seeds",
            "N",
            "8",
            "seeds --seed..--seed+N-1, each driving the trace and every RNG",
        ),
        FlagSpec::opt(
            "threads",
            "T",
            "cores, at most --seeds",
            "sweep worker threads (byte-identical --out for any T)",
        ),
        FlagSpec::opt("out", "FILE", "", "write the paired row report as JSON"),
    ],
);

const TRACE_GEN_FLAGS: FlagTable = FlagTable::new(
    "trace-gen",
    &[FlagSpec::opt(
        "out",
        "FILE",
        "",
        "destination CSV (required)",
    )],
);

const TRACE_STATS_FLAGS: FlagTable = FlagTable::new(
    "trace-stats",
    &[FlagSpec::opt(
        "file",
        "FILE",
        "",
        "trace CSV to summarize (required)",
    )],
);

const SERVE_FLAGS: FlagTable = FlagTable::new(
    "serve",
    &[
        FlagSpec::opt(
            "checkpoint",
            "FILE",
            "",
            "checkpoint path (required); loaded on start if present, written atomically on shutdown",
        ),
        FlagSpec::opt("listen", "ADDR|unix:PATH", "127.0.0.1:7787", "listen address"),
        FlagSpec::opt(
            "checkpoint-every",
            "N",
            "0",
            "auto-checkpoint every N applied updates (0 = only on explicit request/shutdown)",
        ),
        FlagSpec::opt("writer-seed", "N", "", "writer-thread RNG seed"),
        FlagSpec::opt("vms", "N", "40", "cold-start action space: VMs"),
        FlagSpec::opt("hosts", "N", "20", "cold-start action space: hosts"),
    ],
);

const CLIENT_FLAGS: FlagTable = FlagTable::new(
    "client",
    &[
        FlagSpec::opt("connect", "ADDR|unix:PATH", "", "daemon address (required)"),
        FlagSpec::opt(
            "op",
            "decide|observe|sync|checkpoint|stats|shutdown",
            "",
            "request (required)",
        ),
        FlagSpec::opt("seed", "N", "0", "decide: decision seed"),
        FlagSpec::opt("action", "N", "", "observe: applied action index"),
        FlagSpec::opt("cost", "C", "", "observe: observed cost"),
        FlagSpec::opt("retries", "N", "50", "connection attempts, 20ms apart"),
        FlagSpec::opt(
            "timeout-ms",
            "N",
            "5000",
            "connect/read/write deadline per attempt (0 = wait forever)",
        ),
    ],
);

/// Common simulation parameters parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Workload, fleet, days and outages; demand-packed at the default
    /// oversubscription ratio.
    pub setup: Setup,
    /// Seed of the trace and of every scheduler's RNG.
    pub seed: u64,
}

impl SimSpec {
    /// Extracts the common parameters, with sane small defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] for unparsable or unknown values.
    pub fn from_args(args: &Args) -> Result<Self, ArgsError> {
        let workload = match COMMON_FLAGS.get(args, "workload").unwrap_or("planetlab") {
            "planetlab" => Workload::PlanetLab,
            "google" => Workload::Google,
            other => {
                return Err(ArgsError::Invalid {
                    key: "workload".into(),
                    value: other.to_string(),
                    expected: WORKLOADS,
                })
            }
        };
        // --outage HOST:FROM:UNTIL (repeatable via comma separation).
        let mut outages = Vec::new();
        if let Some(spec) = COMMON_FLAGS.get(args, "outage") {
            for part in spec.split(',') {
                let fields: Vec<&str> = part.split(':').collect();
                let parse = |s: &str| -> Result<usize, ArgsError> {
                    s.parse().map_err(|_| ArgsError::Invalid {
                        key: "outage".into(),
                        value: part.to_string(),
                        expected: "HOST:FROM:UNTIL with integers",
                    })
                };
                if fields.len() != 3 {
                    return Err(ArgsError::Invalid {
                        key: "outage".into(),
                        value: part.to_string(),
                        expected: "HOST:FROM:UNTIL with integers",
                    });
                }
                outages.push(HostOutage {
                    host: parse(fields[0])?,
                    from_step: parse(fields[1])?,
                    until_step: parse(fields[2])?,
                });
            }
        }
        let setup = Setup {
            outages,
            ..Setup::new(
                workload,
                COMMON_FLAGS.parsed(args, "hosts", 20, "integer")?,
                COMMON_FLAGS.parsed(args, "vms", 40, "integer")?,
                COMMON_FLAGS.parsed(args, "days", 1, "integer")?,
            )
        };
        Ok(Self {
            setup,
            seed: COMMON_FLAGS.parsed(args, "seed", 42, "integer")?,
        })
    }

    /// The data-center configuration for `n_vms` VMs: [`Setup::config`]
    /// with the VM count from `--vms` or from the trace file's header.
    pub fn config(&self, n_vms: usize) -> DataCenterConfig {
        let setup = Setup {
            vms: n_vms,
            ..self.setup.clone()
        };
        setup.config(self.seed)
    }

    /// The generated workload, materialized ([`Setup::trace`]).
    pub fn trace(&self) -> WorkloadTrace {
        self.setup.trace(self.seed)
    }
}

/// Instantiates a scheduler by CLI name, or `None` for a name not in
/// [`SCHEDULERS`].
///
/// The boxed return type is what lets `sweep` fan one `name` across
/// worker threads: each worker calls this factory with its own seed and
/// gets an owned, `Send` scheduler.
pub fn build_named_scheduler(
    name: &str,
    config: &DataCenterConfig,
    seed: u64,
) -> Option<Box<dyn Scheduler + Send>> {
    let megh_cfg = || {
        let mut cfg = MeghConfig::paper_defaults(config.vms.len(), config.pms.len());
        cfg.seed = seed;
        cfg
    };
    let scheduler: Box<dyn Scheduler + Send> = match name {
        "megh" => Box::new(MeghAgent::new(megh_cfg())),
        "thr-mmt" => Box::new(MmtScheduler::new(MmtFlavor::Thr)),
        "iqr-mmt" => Box::new(MmtScheduler::new(MmtFlavor::Iqr)),
        "mad-mmt" => Box::new(MmtScheduler::new(MmtFlavor::Mad)),
        "lr-mmt" => Box::new(MmtScheduler::new(MmtFlavor::Lr)),
        "lrr-mmt" => Box::new(MmtScheduler::new(MmtFlavor::Lrr)),
        "madvm" => Box::new(MadVmScheduler::new(MadVmConfig::default())),
        "noop" => Box::new(NoOpScheduler),
        // hier: the two-level sharded Megh with auto-sized shards
        // (~64 hosts per shard).
        "hier" => {
            let shards = config.pms.len().div_ceil(64).max(1);
            Box::new(HierMegh::sharded(megh_cfg(), shards))
        }
        other => {
            // hier<N>: explicit shard count.
            let shards = other
                .strip_prefix("hier")
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&s| s > 0 && s <= config.pms.len().max(1))?;
            Box::new(HierMegh::sharded(megh_cfg(), shards))
        }
    };
    Some(scheduler)
}

/// The error for a scheduler name `--key` does not accept.
fn unknown_scheduler(key: &str, name: &str) -> ArgsError {
    ArgsError::Invalid {
        key: key.to_string(),
        value: name.to_string(),
        expected: SCHEDULERS,
    }
}

/// Runs one named scheduler over `simulate`'s workload, streamed: the
/// engine pulls the trace chunk-by-chunk from the `--workload` generator,
/// or from `file` through [`CsvSource`]/[`PlanetLabDirSource`], and never
/// materializes it, so memory stays flat in `--days` and in file length.
///
/// # Errors
///
/// Returns [`ArgsError`] for unknown scheduler names, an inconsistent
/// configuration, or an unreadable or malformed trace file — including a
/// malformed line met mid-run, named with its line number.
pub fn run_streamed_named(
    name: &str,
    spec: &SimSpec,
    file: Option<&str>,
    options: &SimOptions,
) -> Result<SimulationOutcome, ArgsError> {
    let Some(path) = file else {
        return run_source(name, spec, spec.setup.source(spec.seed), options);
    };
    // A file reader ends its stream at a malformed line, which the engine
    // cannot tell from the end of the file: report what stopped it.
    let file_error = |e| trace_file_error(path, e);
    if std::path::Path::new(path).is_dir() {
        let mut source = PlanetLabDirSource::open(path).map_err(file_error)?;
        let outcome = run_source(name, spec, &mut source, options)?;
        source
            .take_error()
            .map_or(Ok(outcome), |e| Err(file_error(e)))
    } else {
        let mut source = CsvSource::open(path).map_err(file_error)?;
        let outcome = run_source(name, spec, &mut source, options)?;
        source
            .take_error()
            .map_or(Ok(outcome), |e| Err(file_error(e)))
    }
}

/// Runs one named scheduler over `source`, sizing the data center from
/// the source's VM count.
fn run_source<T: TraceSource>(
    name: &str,
    spec: &SimSpec,
    source: T,
    options: &SimOptions,
) -> Result<SimulationOutcome, ArgsError> {
    let config = spec.config(source.header().n_vms);
    let scheduler = build_named_scheduler(name, &config, spec.seed)
        .ok_or_else(|| unknown_scheduler("scheduler", name))?;
    run_streamed(&config, source, scheduler, *options).map_err(setup_error)
}

fn setup_error(e: megh_sim::SimError) -> ArgsError {
    ArgsError::Invalid {
        key: "setup".into(),
        value: e.to_string(),
        expected: "consistent configuration",
    }
}

fn trace_file_error(path: &str, e: TraceCsvError) -> ArgsError {
    ArgsError::Invalid {
        key: "file".into(),
        value: format!("{path}: {e}"),
        expected: "readable trace CSV or PlanetLab directory",
    }
}

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `megh simulate`: one scheduler (or `all`), one workload, summary to
/// stdout. The trace is always streamed ([`run_streamed_named`]).
///
/// # Errors
///
/// Returns [`ArgsError`] for bad arguments.
pub fn cmd_simulate(args: &Args) -> Result<String, ArgsError> {
    let spec = SimSpec::from_args(args)?;
    let options = SimOptions {
        progress_every: SIMULATE_FLAGS.parsed(args, "progress-every", 0, "integer")?,
    };
    let scheduler = SIMULATE_FLAGS.get(args, "scheduler").unwrap_or("megh");
    let file = SIMULATE_FLAGS.get(args, "file").filter(|p| !p.is_empty());
    let mut out = String::new();
    let names: Vec<&str> = if scheduler == "all" {
        vec![
            "noop", "thr-mmt", "iqr-mmt", "mad-mmt", "lr-mmt", "lrr-mmt", "madvm", "megh", "hier",
        ]
    } else {
        vec![scheduler]
    };
    let mut reports = Vec::new();
    for name in names {
        let outcome = run_streamed_named(name, &spec, file, &options)?;
        let report = outcome.report();
        out.push_str(&render_summary(&report));
        if SIMULATE_FLAGS.switch(args, "slav") {
            let m = SlavMetrics::from_run(&outcome);
            out.push_str(&format!(
                "  SLATAH {:.4}  PDM {:.6}  SLAV {:.8}  ESV {:.6}\n",
                m.slatah, m.pdm, m.slav, m.esv
            ));
        }
        reports.push(report);
    }
    if SIMULATE_FLAGS.switch(args, "mem-stats") {
        match peak_rss_kb() {
            Some(kb) => out.push_str(&format!("peak RSS {kb} kB\n")),
            None => out.push_str("peak RSS unavailable\n"),
        }
    }
    if let Some(path) = SIMULATE_FLAGS.get(args, "out") {
        let unwritable = || ArgsError::Invalid {
            key: "out".into(),
            value: path.to_string(),
            expected: "writable path",
        };
        // One JSON document covering every scheduler that ran.
        let json = serde_json::to_string_pretty(&reports).map_err(|_| unwritable())?;
        std::fs::write(path, json).map_err(|_| unwritable())?;
    }
    Ok(out)
}

/// `megh sweep`: the `--schedulers` compared on one setup over paired
/// seeds, fanned across threads — a one-setup row of
/// [`megh_sim::sweep::run_row`].
///
/// Seeds are `--seed, --seed+1, …, --seed+N-1`; each drives the trace
/// and every scheduler's RNG, and the first scheduler is the reference
/// every other is paired with. The stdout table includes the wall-clock
/// time; the `--out` file contains only the deterministic row report, so
/// its bytes are identical for any `--threads` value (the determinism
/// contract `megh-sim::sweep` documents and CI enforces).
///
/// # Errors
///
/// Returns [`ArgsError`] for bad arguments or an unwritable output.
pub fn cmd_sweep(args: &Args) -> Result<String, ArgsError> {
    let spec = SimSpec::from_args(args)?;
    let list = SWEEP_FLAGS.get(args, "schedulers").unwrap_or("megh");
    let names: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err(ArgsError::Invalid {
            key: "schedulers".into(),
            value: list.to_string(),
            expected: "comma-separated scheduler names",
        });
    }
    let n_seeds: usize = SWEEP_FLAGS.positive_usize(args, "seeds", 8)?;
    // The report bytes are thread-invariant, so the default is what
    // the machine has; more workers than seeds would sit idle.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads: usize = SWEEP_FLAGS.positive_usize(args, "threads", cores.min(n_seeds))?;
    // Validate every scheduler name once, up front: an arm's constructor
    // has no error channel. The fleet, hence the valid names, is the
    // same for every seed.
    let config = spec.config(spec.setup.vms);
    for name in &names {
        build_named_scheduler(name, &config, spec.seed)
            .ok_or_else(|| unknown_scheduler("schedulers", name))?;
    }
    let makers: Vec<_> = names
        .iter()
        .map(|name| {
            move |config: &DataCenterConfig, seed| {
                build_named_scheduler(name, config, seed).expect("scheduler name validated above")
            }
        })
        .collect();
    let title = names.join(" vs ");
    let row = Row {
        name: "sweep",
        title: &title,
        setups: vec![spec.setup.clone()],
        arms: names
            .iter()
            .zip(&makers)
            .map(|(label, make)| Arm { label, make })
            .collect(),
        outputs: Vec::new(),
    };
    let seeds: Vec<u64> = (0..n_seeds as u64)
        .map(|i| spec.seed.wrapping_add(i))
        .collect();
    let started = std::time::Instant::now();
    let run = run_row(&row, &seeds, threads).map_err(setup_error)?;
    let mut out = format_row(&run);
    out.push_str(&format!(
        "{} scheduler(s) x {n_seeds} seed(s) on {threads} thread(s) in {:.2} s\n",
        names.len(),
        started.elapsed().as_secs_f64()
    ));
    if let Some(path) = SWEEP_FLAGS.get(args, "out") {
        let unwritable = || ArgsError::Invalid {
            key: "out".into(),
            value: path.to_string(),
            expected: "writable path",
        };
        let json = serde_json::to_string_pretty(&run.report).map_err(|_| unwritable())?;
        std::fs::write(path, json).map_err(|_| unwritable())?;
    }
    Ok(out)
}

/// `megh trace-gen`: write a synthetic trace to CSV.
///
/// # Errors
///
/// Returns [`ArgsError`] for bad arguments or an unwritable output.
pub fn cmd_trace_gen(args: &Args) -> Result<String, ArgsError> {
    let spec = SimSpec::from_args(args)?;
    let out = TRACE_GEN_FLAGS.required(args, "out")?;
    let trace = spec.trace();
    megh_trace::save_csv(&trace, out).map_err(|e| ArgsError::Invalid {
        key: "out".into(),
        value: format!("{out}: {e}"),
        expected: "writable path",
    })?;
    Ok(format!(
        "wrote {} ({} VMs × {} steps, {:?} workload)\n",
        out,
        trace.n_vms(),
        trace.n_steps(),
        spec.setup.workload
    ))
}

/// `megh trace-stats`: summarize a trace CSV.
///
/// # Errors
///
/// Returns [`ArgsError`] for a missing or unreadable file.
pub fn cmd_trace_stats(args: &Args) -> Result<String, ArgsError> {
    let file = TRACE_STATS_FLAGS.required(args, "file")?;
    let trace = megh_trace::load_csv(file).map_err(|e| ArgsError::Invalid {
        key: "file".into(),
        value: format!("{file}: {e}"),
        expected: "readable trace csv",
    })?;
    let stats = TraceStats::compute(&trace);
    Ok(format!(
        "{}: {} VMs × {} steps @ {}s\n  mean {:.2} %  std {:.2} %  range [{:.2}, {:.2}] %\n",
        file,
        trace.n_vms(),
        trace.n_steps(),
        trace.step_seconds(),
        stats.overall_mean,
        stats.overall_std,
        stats.overall_min,
        stats.overall_max
    ))
}

/// `megh serve`: run the crash-safe decision daemon (blocks until a
/// client sends `shutdown`).
///
/// # Errors
///
/// Returns [`ArgsError`] for bad arguments or daemon failures (bind
/// errors, corrupt checkpoints).
pub fn cmd_serve(args: &Args) -> Result<String, ArgsError> {
    let listen_spec = SERVE_FLAGS.get(args, "listen").unwrap_or("127.0.0.1:7787");
    let listen = Listen::parse(listen_spec);
    let checkpoint = SERVE_FLAGS.required(args, "checkpoint")?;
    let mut opts = ServeOptions::new(listen, std::path::PathBuf::from(checkpoint));
    opts.checkpoint_every = SERVE_FLAGS.parsed(args, "checkpoint-every", 0, "integer")?;
    opts.writer_seed = SERVE_FLAGS.parsed(args, "writer-seed", opts.writer_seed, "integer")?;
    let vms: usize = SERVE_FLAGS.parsed(args, "vms", 40, "integer")?;
    let hosts: usize = SERVE_FLAGS.parsed(args, "hosts", 20, "integer")?;
    let config = MeghConfig::paper_defaults(vms, hosts);
    megh_serve::run(config, &opts).map_err(|e| match e {
        // The daemon fails on what it loads or on where it listens;
        // the error names the flag that supplied it.
        ServeError::Checkpoint(e) => ArgsError::Invalid {
            key: "checkpoint".into(),
            value: format!("{checkpoint}: {e}"),
            expected: "megh checkpoint",
        },
        other => ArgsError::Invalid {
            key: "listen".into(),
            value: format!("{listen_spec}: {other}"),
            expected: "listen address",
        },
    })?;
    Ok(format!(
        "serve: shutdown complete, checkpoint at {checkpoint}\n"
    ))
}

/// `megh client`: send one request to a running daemon and print the
/// raw response line (the crash-recovery smoke test diffs these bytes).
///
/// # Errors
///
/// Returns [`ArgsError`] for bad arguments, unreachable daemons, or
/// failed requests.
pub fn cmd_client(args: &Args) -> Result<String, ArgsError> {
    let connect = CLIENT_FLAGS.required(args, "connect")?;
    let op = CLIENT_FLAGS.required(args, "op")?;
    let request = match op {
        "decide" => ServeRequest::Decide {
            seed: CLIENT_FLAGS.parsed(args, "seed", 0, "integer")?,
        },
        "observe" => ServeRequest::Observe {
            action: CLIENT_FLAGS
                .required(args, "action")?
                .parse()
                .map_err(|_| ArgsError::Invalid {
                    key: "action".into(),
                    value: args.get_or("action", "").to_string(),
                    expected: "action index (integer)",
                })?,
            cost: CLIENT_FLAGS
                .required(args, "cost")?
                .parse()
                .map_err(|_| ArgsError::Invalid {
                    key: "cost".into(),
                    value: args.get_or("cost", "").to_string(),
                    expected: "cost (number)",
                })?,
        },
        "sync" => ServeRequest::Sync,
        "checkpoint" => ServeRequest::Checkpoint,
        "stats" => ServeRequest::Stats,
        "shutdown" => ServeRequest::Shutdown,
        other => {
            return Err(ArgsError::Invalid {
                key: "op".into(),
                value: other.to_string(),
                expected: "one of decide|observe|sync|checkpoint|stats|shutdown",
            })
        }
    };
    let listen = Listen::parse(connect);
    let attempts: u32 = CLIENT_FLAGS.parsed(args, "retries", 50, "integer")?;
    // Deadline on connect and on every read/write: a wedged daemon must
    // fail the invocation (and the ci.sh smoke stage) instead of
    // hanging it. 0 disables the deadline.
    let timeout_ms: u64 = CLIENT_FLAGS.parsed(args, "timeout-ms", 5000, "integer")?;
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let mut client = ServeClient::connect_retry_timeout(
        &listen,
        attempts,
        std::time::Duration::from_millis(20),
        timeout,
    )
    .map_err(|e| ArgsError::Invalid {
        key: "connect".into(),
        value: format!("{connect}: {e}"),
        expected: "reachable megh serve daemon",
    })?;
    let line = client
        .request_raw(&request)
        .map_err(|e| ArgsError::Invalid {
            key: "op".into(),
            value: e.to_string(),
            expected: "completed request",
        })?;
    Ok(format!("{line}\n"))
}

fn render_summary(r: &SummaryReport) -> String {
    format!(
        "{}: total {:.2} USD (energy {:.2}, SLA {:.2}), {} migrations, \
         {:.1} active hosts, {:.3} ms/decision over {} steps\n",
        r.scheduler,
        r.total_cost_usd,
        r.energy_cost_usd,
        r.sla_cost_usd,
        r.total_migrations,
        r.mean_active_hosts,
        r.mean_decision_ms,
        r.steps
    )
}

/// The help text, generated from the same flag tables the subcommands
/// parse with — the two cannot drift apart.
pub fn help() -> String {
    let mut out = String::from(
        "megh — live-migration scheduling simulator (Basu et al., ICDCS 2017 reproduction)

USAGE:
  megh <command> [options]

COMMANDS:
  simulate     run scheduler(s) over a streamed workload or trace file
  sweep        compare schedulers over paired seeds in parallel
  trace-gen    write a synthetic workload trace to CSV
  trace-stats  summarize a trace CSV
  serve        run the long-lived decision daemon
  client       send one request to a running daemon
  help         show this message

",
    );
    for table in [
        &COMMON_FLAGS,
        &SIMULATE_FLAGS,
        &SWEEP_FLAGS,
        &TRACE_GEN_FLAGS,
        &TRACE_STATS_FLAGS,
        &SERVE_FLAGS,
        &CLIENT_FLAGS,
    ] {
        out.push_str(&table.render_help());
        out.push('\n');
    }
    out.pop();
    out
}

type Command = fn(&Args) -> Result<String, ArgsError>;

/// The flag tables a subcommand reads, and its implementation.
fn command(name: &str) -> Option<(&'static [&'static FlagTable], Command)> {
    Some(match name {
        "simulate" => (&[&COMMON_FLAGS, &SIMULATE_FLAGS], cmd_simulate),
        "sweep" => (&[&COMMON_FLAGS, &SWEEP_FLAGS], cmd_sweep),
        "trace-gen" => (&[&COMMON_FLAGS, &TRACE_GEN_FLAGS], cmd_trace_gen),
        "trace-stats" => (&[&TRACE_STATS_FLAGS], cmd_trace_stats),
        "serve" => (&[&SERVE_FLAGS], cmd_serve),
        "client" => (&[&CLIENT_FLAGS], cmd_client),
        _ => return None,
    })
}

/// Rejects the first supplied option or switch that none of `tables`
/// declares. `Args::parse` stores any `--key`, and the commands look up
/// only the names they know, so without this a misspelt or removed flag
/// would run with the default and say nothing.
fn reject_undeclared(command: &str, args: &Args, tables: &[&FlagTable]) -> Result<(), ArgsError> {
    let supplied = args.options.keys().chain(&args.flags);
    for key in supplied {
        if !tables.iter().any(|table| table.spec(key).is_some()) {
            return Err(ArgsError::UnknownOption {
                command: command.to_string(),
                key: key.clone(),
            });
        }
    }
    Ok(())
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`ArgsError`] for unknown commands, options the command does
/// not declare, or bad arguments.
pub fn dispatch(args: &Args) -> Result<String, ArgsError> {
    let name = match args.command.as_deref() {
        Some("help") | None => return Ok(help()),
        Some(name) => name,
    };
    let (tables, run) = command(name).ok_or_else(|| ArgsError::UnknownCommand(name.to_string()))?;
    reject_undeclared(name, args, tables)?;
    run(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megh_sim::Simulation;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn simulate_runs_megh_by_default() {
        let out = dispatch(&parse("simulate --hosts 4 --vms 6 --days 1")).unwrap();
        assert!(out.contains("Megh:"), "{out}");
        assert!(out.contains("total"));
    }

    #[test]
    fn simulate_with_slav_prints_metrics() {
        let out = dispatch(&parse(
            "simulate --hosts 3 --vms 4 --days 1 --scheduler noop --slav",
        ))
        .unwrap();
        assert!(out.contains("SLATAH"));
    }

    #[test]
    fn trace_gen_and_stats_roundtrip() {
        let path = std::env::temp_dir().join(format!("megh-cli-{}.csv", std::process::id()));
        let line = format!("trace-gen --vms 3 --days 1 --out {}", path.display());
        let out = dispatch(&parse(&line)).unwrap();
        assert!(out.contains("wrote"));
        let line = format!("trace-stats --file {}", path.display());
        let out = dispatch(&parse(&line)).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("3 VMs"));
        assert!(out.contains("mean"));
    }

    #[test]
    fn serve_requires_checkpoint_path() {
        let err = dispatch(&parse("serve --listen 127.0.0.1:0")).unwrap_err();
        assert!(matches!(err, ArgsError::Missing("checkpoint")), "{err:?}");
    }

    #[test]
    fn serve_start_up_failures_name_the_flag_that_caused_them() {
        let dir = std::env::temp_dir().join(format!("megh-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A checkpoint whose θ names action 999 of an 18-action space.
        let state = MeghAgent::new(MeghConfig::paper_defaults(6, 3)).checkpoint();
        let legacy = serde_json::to_string(&state).unwrap();
        let hostile = legacy.replace(
            "\"theta\":{\"dim\":18,\"entries\":[]}",
            "\"theta\":{\"dim\":18,\"entries\":[[999,-0.5]]}",
        );
        assert_ne!(
            legacy, hostile,
            "the checkpoint must carry an empty θ to replace"
        );
        let checkpoint = dir.join("cp.json");
        std::fs::write(&checkpoint, hostile).unwrap();

        let line = format!(
            "serve --listen 127.0.0.1:0 --checkpoint {} --vms 6 --hosts 3",
            checkpoint.display()
        );
        let err = dispatch(&parse(&line)).unwrap_err().to_string();
        assert!(err.starts_with("option --checkpoint="), "{err}");
        assert!(
            err.contains("sparse vector index 999 outside dim 18"),
            "{err}"
        );
        assert!(err.ends_with("is not a valid megh checkpoint"), "{err}");

        // An address that cannot be bound (a local port already taken)
        // is the listen flag's fault.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let line = format!(
            "serve --listen {addr} --checkpoint {}",
            dir.join("fresh.json").display()
        );
        let err = dispatch(&parse(&line)).unwrap_err().to_string();
        assert!(
            err.starts_with(&format!("option --listen=\"{addr}: ")),
            "{err}"
        );
        assert!(err.ends_with("is not a valid listen address"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_rejects_unknown_op() {
        let err = dispatch(&parse("client --connect 127.0.0.1:1 --op frobnicate")).unwrap_err();
        let ArgsError::Invalid { key, value, .. } = err else {
            panic!("expected invalid op");
        };
        assert_eq!((key.as_str(), value.as_str()), ("op", "frobnicate"));
    }

    #[test]
    fn client_observe_requires_action_and_cost() {
        let err = dispatch(&parse("client --connect 127.0.0.1:1 --op observe")).unwrap_err();
        assert!(matches!(err, ArgsError::Missing("action")), "{err:?}");
    }

    #[test]
    fn unknown_command_and_scheduler_error() {
        assert!(matches!(
            dispatch(&parse("frobnicate")),
            Err(ArgsError::UnknownCommand(_))
        ));
        assert!(dispatch(&parse("simulate --scheduler bogus --hosts 2 --vms 2")).is_err());
        assert!(dispatch(&parse("simulate --workload mars")).is_err());
    }

    #[test]
    fn missing_required_options_error() {
        assert_eq!(
            dispatch(&parse("trace-gen")),
            Err(ArgsError::Missing("out"))
        );
        assert_eq!(
            dispatch(&parse("trace-stats")),
            Err(ArgsError::Missing("file"))
        );
    }

    #[test]
    fn help_is_returned_for_empty_invocation() {
        let out = dispatch(&parse("")).unwrap();
        assert!(out.contains("USAGE"));
        assert!(dispatch(&parse("help")).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn simulate_all_writes_every_report_to_out() {
        let dir = std::env::temp_dir().join(format!("megh-cli-all-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        let line = format!(
            "simulate --hosts 3 --vms 4 --days 1 --scheduler all --out {}",
            path.display()
        );
        dispatch(&parse(&line)).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(written, ["r.json"], "--out writes its file and no other");
        let reports: serde_json::Value = serde_json::from_str(&json).unwrap();
        let names: Vec<&str> = reports
            .as_array()
            .expect("an array of reports")
            .iter()
            .filter_map(|r| r["scheduler"].as_str())
            .collect();
        assert_eq!(
            names,
            [
                "NoOp", "THR-MMT", "IQR-MMT", "MAD-MMT", "LR-MMT", "LRR-MMT", "MadVM", "Megh",
                "Megh-H1"
            ],
            "all nine schedulers must be in the file"
        );
    }

    #[test]
    fn sweep_reports_a_paired_row() {
        let out = dispatch(&parse(
            "sweep --hosts 3 --vms 4 --days 1 --seeds 3 --threads 2 --schedulers noop,thr-mmt",
        ))
        .unwrap();
        assert!(out.contains("### sweep — noop vs thr-mmt"), "{out}");
        assert!(out.contains("; seeds 42–44"), "{out}");
        assert!(out.contains("\n| noop | "), "{out}");
        assert!(out.contains("\n| thr-mmt | "), "{out}");
        assert!(out.contains("Δ = arm − noop"), "{out}");
        assert!(out.contains("> 4.303 · SE (Student t, 2 df"), "{out}");
        // One name is a one-arm row; the default is megh.
        let out = dispatch(&parse("sweep --hosts 3 --vms 4 --days 1 --seeds 2")).unwrap();
        assert!(out.contains("\n| megh | "), "{out}");
    }

    /// A `--out` report's arms: `(label, scheduler, runs, has Δ)`.
    fn out_arms(bytes: &[u8]) -> Vec<(String, String, usize, bool)> {
        let report: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(bytes).unwrap()).unwrap();
        assert_eq!(report["row"], "sweep");
        let blocks = report["blocks"].as_array().expect("blocks");
        assert_eq!(blocks.len(), 1, "a sweep is one setup");
        blocks[0]["arms"]
            .as_array()
            .expect("arms")
            .iter()
            .map(|arm| {
                (
                    arm["label"].as_str().unwrap().to_string(),
                    arm["sweep"]["scheduler"].as_str().unwrap().to_string(),
                    arm["sweep"]["runs"].as_array().map_or(0, Vec::len),
                    !arm["vs_reference"].is_null(),
                )
            })
            .collect()
    }

    /// `sweep <line> --threads T --out FILE` for each `T`: the `--out`
    /// bytes and the stdout of each.
    fn sweep_out_per_thread_count(
        tag: &str,
        line: &str,
        threads: &[usize],
    ) -> Vec<(Vec<u8>, String)> {
        let dir = std::env::temp_dir().join(format!("megh-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let runs = threads
            .iter()
            .map(|threads| {
                let path = dir.join(format!("t{threads}.json"));
                let line = format!("{line} --threads {threads} --out {}", path.display());
                let text = dispatch(&parse(&line)).unwrap();
                (std::fs::read(&path).unwrap(), text)
            })
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        runs
    }

    #[test]
    fn sweep_determinism_thread_count_never_changes_out_file() {
        // CI runs this by name (ci.sh filters on `sweep_determinism`):
        // the --out report must be byte-identical for any --threads.
        let runs = sweep_out_per_thread_count(
            "sweep",
            "sweep --hosts 3 --vms 4 --days 1 --seeds 4 --schedulers megh",
            &[1, 8],
        );
        assert_eq!(
            runs[0].0, runs[1].0,
            "sweep report bytes must not depend on the thread count"
        );
        assert_eq!(
            out_arms(&runs[0].0),
            [("megh".to_string(), "Megh".to_string(), 4, false)]
        );
    }

    #[test]
    fn hier_scheduler_names_parse_and_simulate() {
        let out = dispatch(&parse(
            "simulate --hosts 4 --vms 6 --days 1 --scheduler hier",
        ))
        .unwrap();
        assert!(out.contains("Megh-H"), "{out}");
        let out = dispatch(&parse(
            "simulate --hosts 4 --vms 6 --days 1 --scheduler hier2",
        ))
        .unwrap();
        assert!(out.contains("Megh-H"), "{out}");
        // More shards than hosts is rejected as an argument error, not
        // a panic inside the agent.
        assert!(dispatch(&parse(
            "simulate --hosts 4 --vms 6 --days 1 --scheduler hier9"
        ))
        .is_err());
        assert!(dispatch(&parse(
            "simulate --hosts 4 --vms 6 --days 1 --scheduler hier0"
        ))
        .is_err());
        // `sweep` validates every name before any arm runs.
        assert!(dispatch(&parse(
            "sweep --hosts 4 --vms 6 --days 1 --seeds 2 --schedulers megh,hier9"
        ))
        .is_err());
    }

    #[test]
    fn sweep_determinism_sharded_hier_out_is_thread_invariant() {
        // CI runs this by name (ci.sh filters on `sweep_determinism`):
        // a sweep of the hierarchical scheduler must produce the same
        // --out bytes for any worker thread count.
        let runs = sweep_out_per_thread_count(
            "hsweep",
            "sweep --hosts 4 --vms 6 --days 1 --seeds 4 --schedulers hier2",
            &[1, 8],
        );
        assert_eq!(
            runs[0].0, runs[1].0,
            "sharded sweep report bytes must not depend on the thread count"
        );
        assert_eq!(
            out_arms(&runs[0].0),
            [("hier2".to_string(), "Megh-H2".to_string(), 4, false)]
        );
    }

    #[test]
    fn sweep_determinism_multi_scheduler_out_is_stable_and_paired() {
        // CI runs this by name (ci.sh filters on `sweep_determinism`):
        // the multi-scheduler --out report must be byte-identical for
        // any --threads, with the arms in --schedulers order and every
        // arm after the first paired with it.
        let runs = sweep_out_per_thread_count(
            "msweep",
            "sweep --hosts 3 --vms 4 --days 1 --seeds 3 --schedulers noop,megh,thr-mmt",
            &[1, 4],
        );
        assert_eq!(
            runs[0].0, runs[1].0,
            "multi-scheduler sweep report bytes must not depend on the thread count"
        );
        let arms = out_arms(&runs[0].0);
        let expected = [
            ("noop", "NoOp", false),
            ("megh", "Megh", true),
            ("thr-mmt", "THR-MMT", true),
        ];
        assert_eq!(arms.len(), expected.len());
        for (arm, (label, scheduler, paired)) in arms.iter().zip(expected) {
            assert_eq!(
                (arm.0.as_str(), arm.1.as_str(), arm.2, arm.3),
                (label, scheduler, 3, paired)
            );
        }
        assert!(runs[0].1.contains("Δ = arm − noop"), "{}", runs[0].1);
        assert!(!runs[0].1.contains("ranking"), "{}", runs[0].1);
    }

    #[test]
    fn sweep_with_one_seed_marks_no_difference_separated() {
        // One seed: SD = SE = 0, so any non-zero Δ would pass a t rule.
        // A paired difference needs two seeds to be judged at all.
        let out = dispatch(&parse(
            "sweep --hosts 3 --vms 4 --days 1 --seeds 1 --schedulers noop,thr-mmt",
        ))
        .unwrap();
        let thr = out
            .lines()
            .find(|l| l.starts_with("| thr-mmt |"))
            .expect("thr-mmt row");
        let cells: Vec<&str> = thr.split('|').map(str::trim).collect();
        assert!(
            cells[3].starts_with('+') || cells[3].starts_with('-'),
            "{thr}"
        );
        assert_ne!(cells[3], "+0.0 ± 0.0", "the Δ must be non-zero: {thr}");
        assert!(!thr.contains('*'), "{thr}");
        assert!(out.contains("one seed judges no Δ"), "{out}");
    }

    #[test]
    fn sweep_rejects_bad_scheduler_and_zero_counts() {
        assert!(dispatch(&parse("sweep --hosts 2 --vms 2 --schedulers bogus")).is_err());
        assert!(dispatch(&parse("sweep --hosts 2 --vms 2 --seeds 0")).is_err());
        assert!(dispatch(&parse("sweep --hosts 2 --vms 2 --threads 0")).is_err());
        // A list with no names, or any bad name in the list, is rejected.
        assert!(dispatch(&parse("sweep --hosts 2 --vms 2 --schedulers ,,")).is_err());
        assert!(dispatch(&parse("sweep --hosts 2 --vms 2 --schedulers megh,bogus")).is_err());
    }

    #[test]
    fn sweep_rejects_all_without_offering_it() {
        // `all` is a simulate-only pseudo-name: the error names the value
        // and lists the names sweep takes, which do not include `all`.
        let err = dispatch(&parse("sweep --hosts 2 --vms 2 --schedulers all")).unwrap_err();
        let ArgsError::Invalid {
            key,
            value,
            expected,
        } = &err
        else {
            panic!("expected an invalid value: {err:?}");
        };
        assert_eq!((key.as_str(), value.as_str()), ("schedulers", "all"));
        assert!(expected.split('|').all(|name| name != "all"), "{err}");
        assert!(expected.contains("megh"), "{err}");
        assert!(help().contains("--scheduler NAME|all"));
    }

    /// A summary line minus its wall-clock `ms/decision` figure.
    fn deterministic_summary(line: &str) -> String {
        let (head, tail) = line.split_once(" active hosts, ").expect("summary line");
        let (_, steps) = tail.split_once(" ms/decision").expect("summary line");
        format!("{head}{steps}")
    }

    #[test]
    fn stream_matches_materialized_total_cost() {
        // `simulate` streams the generator; the library's in-memory
        // `Simulation` over the materialized trace is the reference. Every
        // workload, plus an outage under a learning scheduler.
        for (workload, scheduler, extra) in [
            ("planetlab", "thr-mmt", ""),
            ("google", "thr-mmt", ""),
            ("planetlab", "megh", " --outage 0:10:40"),
        ] {
            let line = format!(
                "simulate --workload {workload} --hosts 3 --vms 5 --days 1 \
                 --scheduler {scheduler}{extra}"
            );
            let args = parse(&line);
            let streamed = dispatch(&args).unwrap();
            let spec = SimSpec::from_args(&args).unwrap();
            let config = spec.config(spec.setup.vms);
            let run = build_named_scheduler(scheduler, &config, spec.seed).unwrap();
            let want = Simulation::new(config, spec.trace()).unwrap().run(run);
            assert_eq!(
                deterministic_summary(&streamed),
                deterministic_summary(&render_summary(&want.report())),
                "{line}"
            );
        }
    }

    #[test]
    fn stream_file_csv_matches_materialized_run() {
        // A trace CSV written by trace-gen, streamed through CsvSource by
        // `simulate --file`, must simulate exactly like the library run
        // over the loaded trace — for a learning scheduler.
        let dir = std::env::temp_dir().join(format!("megh-cli-fstream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("trace.csv");
        dispatch(&parse(&format!(
            "trace-gen --vms 5 --days 1 --seed 9 --out {}",
            csv.display()
        )))
        .unwrap();
        let args = parse(&format!(
            "simulate --hosts 3 --scheduler megh --file {}",
            csv.display()
        ));
        let streamed = dispatch(&args).unwrap();
        let trace = megh_trace::load_csv(&csv).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let spec = SimSpec::from_args(&args).unwrap();
        let config = spec.config(trace.n_vms());
        let run = build_named_scheduler("megh", &config, spec.seed).unwrap();
        let want = Simulation::new(config, trace).unwrap().run(run);
        assert_eq!(
            deterministic_summary(&streamed),
            deterministic_summary(&render_summary(&want.report()))
        );
        assert!(streamed.contains("288 steps"), "{streamed}");
    }

    #[test]
    fn stream_file_errors_are_reported() {
        let err = dispatch(&parse("simulate --hosts 3 --file /no/such/trace.csv"));
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn stream_file_malformed_csv_row_fails_naming_its_line() {
        // A 288-step CSV whose line 151 (step 149; line 1 is the header)
        // holds a non-number: the reader stops there, and the run must
        // fail naming the line instead of reporting a 149-step run.
        let dir = std::env::temp_dir().join(format!("megh-cli-badcsv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("trace.csv");
        dispatch(&parse(&format!(
            "trace-gen --vms 4 --days 1 --out {}",
            csv.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 289, "header + 288 steps");
        lines[150] = "1.0,2.0,oops,4.0";
        std::fs::write(&csv, lines.join("\n")).unwrap();
        let result = dispatch(&parse(&format!(
            "simulate --hosts 2 --scheduler noop --file {}",
            csv.display()
        )));
        std::fs::remove_dir_all(&dir).ok();
        let err = result.unwrap_err().to_string();
        assert!(err.contains("line 151"), "{err}");
        assert!(err.contains("trace.csv"), "{err}");
    }

    #[test]
    fn stream_file_corrupt_planetlab_file_fails_naming_its_line() {
        // One VM file of three has a bad value on its line 100: a
        // non-number, then an out-of-range utilization. The error names
        // the file and the line.
        for bad in ["xyz", "150"] {
            let dir =
                std::env::temp_dir().join(format!("megh-cli-baddir-{}-{bad}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let series: Vec<String> = (0..288).map(|s| (s % 50).to_string()).collect();
            for vm in ["vm_a", "vm_b", "vm_c"] {
                let mut lines = series.clone();
                if vm == "vm_b" {
                    lines[99] = bad.into();
                }
                std::fs::write(dir.join(vm), lines.join("\n")).unwrap();
            }
            let result = dispatch(&parse(&format!(
                "simulate --hosts 2 --scheduler noop --file {}",
                dir.display()
            )));
            std::fs::remove_dir_all(&dir).ok();
            let err = result.unwrap_err().to_string();
            assert!(err.contains("line 100"), "{bad}: {err}");
            assert!(err.contains("vm_b"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn engine_progress_flag_rejects_garbage() {
        assert!(dispatch(&parse("simulate --hosts 2 --vms 2 --progress-every x")).is_err());
    }

    #[test]
    fn undeclared_options_are_rejected_and_documented_ones_accepted() {
        // The flags PRs 13 and 21 removed, a misspelling of a real flag
        // and a flag of another command must fail by name instead of
        // running with the default. PR 13's names are spelt in two pieces
        // so a grep for them over the sources stays empty.
        for (command_line, flag) in [
            ("simulate --hosts 2 --vms 2", concat!("sim", "-threads")),
            ("serve --checkpoint x", concat!("sha", "rds")),
            ("simulate", "stream"),
            ("simulate", "chunk-steps"),
            ("sweep", "stream"),
            ("sweep", "chunk-steps"),
            // One flag per choice: a single name is a one-element
            // --schedulers, and parallel workers print no progress.
            ("sweep", "scheduler"),
            ("sweep", "progress-every"),
            ("simulate", "chunk-step"),
            ("trace-gen", "scheduler"),
        ] {
            let line = format!("{command_line} --{flag} 2");
            let err = dispatch(&parse(&line)).unwrap_err();
            assert!(
                matches!(&err, ArgsError::UnknownOption { key, .. } if key == flag),
                "{line}: {err:?}"
            );
            assert!(err.to_string().contains(&format!("--{flag}")), "{err}");
        }
        // `compare` is gone: `simulate --scheduler all` runs its rows.
        let err = dispatch(&parse("compare --hosts 2")).unwrap_err();
        assert_eq!(err, ArgsError::UnknownCommand("compare".into()));
        assert!(err.to_string().contains("compare"), "{err}");

        // Every flag line `help()` prints is accepted by each command
        // its section is for.
        let mut commands: Vec<&str> = Vec::new();
        let mut checked = 0;
        for line in help().lines() {
            if let Some(usage) = line.strip_prefix("  --") {
                let flag = usage.split_whitespace().next().expect("flag name");
                // Help columns are two spaces apart; a placeholder sits
                // one space after the name.
                let takes_value = !usage[flag.len()..].starts_with("  ");
                for cmd in &commands {
                    let value = if takes_value { " x" } else { "" };
                    let args = parse(&format!("{cmd} --{flag}{value}"));
                    let (tables, _) = command(cmd).expect("a dispatchable command");
                    assert_eq!(
                        reject_undeclared(cmd, &args, tables),
                        Ok(()),
                        "help documents --{flag} for {cmd}"
                    );
                    checked += 1;
                }
            } else if let Some(title) = line.strip_suffix(':') {
                commands = match title {
                    "COMMON OPTIONS" => vec!["simulate", "sweep", "trace-gen"],
                    command_name => vec![command_name],
                };
            }
        }
        assert!(checked > 40, "help parsing found only {checked} flag uses");
    }

    #[test]
    fn mem_stats_prints_peak_rss() {
        let out = dispatch(&parse(
            "simulate --hosts 2 --vms 2 --days 1 --scheduler noop --mem-stats",
        ))
        .unwrap();
        assert!(out.contains("peak RSS"), "{out}");
    }

    #[test]
    fn help_documents_streaming_flags() {
        let h = help();
        for flag in ["--progress-every", "--mem-stats", "--file"] {
            assert!(h.contains(flag), "missing {flag} in help:\n{h}");
        }
    }

    #[test]
    fn outage_option_parses_and_rejects_garbage() {
        let out = dispatch(&parse(
            "simulate --hosts 4 --vms 6 --days 1 --scheduler noop --outage 0:2:5",
        ))
        .unwrap();
        assert!(out.contains("NoOp"));
        assert!(dispatch(&parse("simulate --outage nonsense")).is_err());
        assert!(dispatch(&parse("simulate --outage 1:2")).is_err());
    }

    #[test]
    fn google_workload_is_selectable() {
        let out = dispatch(&parse(
            "simulate --workload google --hosts 3 --vms 5 --days 1 --scheduler thr-mmt",
        ))
        .unwrap();
        assert!(out.contains("THR-MMT"));
    }
}
