//! The discrete-time simulation loop.
//!
//! Each observation interval (τ = 300 s by default) the engine:
//!
//! 1. reads every VM's utilization from the trace and derives host loads,
//! 2. hands the scheduler a read-only [`DataCenterView`] and times its
//!    decision (that wall-clock time is the "execution time" metric of
//!    Tables 2–3 and Figures 2(d)–6),
//! 3. validates the requested migrations (in-range, not self-migrations,
//!    one per VM) and truncates to the configured per-step cap,
//! 4. applies them: the VM moves, and `migration_downtime_fraction × TM`
//!    seconds of downtime accrue to it, where [`migration_seconds`]
//!    gives `TM = 8·RAM/B` over the slower of the two NICs, or over the
//!    destination's NIC when the source host is down (§3.3),
//! 5. accounts energy (SPECpower draw × τ; hosts with no VMs sleep at
//!    0 W) and SLA costs (hosts whose demand exceeds capacity add the
//!    unserved fraction of τ as downtime to each of their VMs;
//!    cumulative downtime fractions map to payback bands),
//! 6. reports the per-stage cost `ΔC_p + ΔC_v` back to the scheduler.
//!
//! Placement changes take effect within the step; migration duration
//! affects only downtime accounting, not when capacity moves. This is the
//! same granularity CloudSim's power-aware examples use.
//!
//! # Streaming
//!
//! The loop is driven by any [`TraceSource`], pulling utilization
//! columns one simulated day ([`STEPS_PER_DAY`] steps) at a time, or
//! fewer steps where a day of columns would exceed 8 MiB, so a run
//! holds only the current chunk in memory regardless of trace length.
//! [`Simulation::run`] streams from an in-memory [`WorkloadTrace`]
//! cursor; [`run_streamed`] drives the same loop from a lazy source
//! (generator or file reader) without ever materializing the trace.
//! Outcomes do not depend on the chunk size (the engine's tests sweep
//! it; see [`SimulationOutcome::fingerprint`]).
//!
//! A step runs on one thread: the phase-5 accounting is a few
//! microseconds of arithmetic, less than one hand-off to a worker
//! (DESIGN.md §15). Runs parallelize across seeds instead, in
//! [`crate::sweep::run_row`].

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use megh_trace::{TraceSource, WorkloadTrace, STEPS_PER_DAY};

use crate::step::{host_metrics_chunk, vm_sla_chunk};
use crate::{
    config::InitialPlacement, migration_seconds, DataCenterConfig, DataCenterView, Scheduler,
    SimError, StepFeedback, StepRecord, SummaryReport,
};

/// Trace memory the step loop holds at once: 8 MiB of utilization
/// columns, which is a whole day up to 3 640 VMs (and at least one step
/// at any fleet size).
const CHUNK_BYTES: usize = 8 << 20;

/// Length of the per-host utilization history handed to schedulers
/// ([`DataCenterView::host_history`]); the adaptive MMT detectors read
/// the last 10–12 observations.
const HISTORY_WINDOW: usize = 12;

/// Operator knobs for the step loop. None of them changes the
/// [`SimulationOutcome`]; the default prints nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    /// Emit a progress/ETA line on stderr roughly every this many
    /// steps (reported at chunk boundaries); 0 disables progress output.
    pub progress_every: usize,
}

/// A configured simulation, ready to run a scheduler over a trace.
///
/// # Examples
///
/// ```
/// use megh_sim::{DataCenterConfig, NoOpScheduler, Simulation};
/// use megh_trace::PlanetLabConfig;
///
/// let trace = PlanetLabConfig::new(8, 3).generate_steps(10);
/// let sim = Simulation::new(DataCenterConfig::paper_planetlab(4, 8), trace)?;
/// let outcome = sim.run(NoOpScheduler::default());
/// assert_eq!(outcome.records().len(), 10);
/// # Ok::<(), megh_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: DataCenterConfig,
    trace: WorkloadTrace,
    initial_placement: Vec<usize>,
    options: SimOptions,
}

impl Simulation {
    /// Builds a simulation, validating the configuration against the
    /// trace and computing the initial placement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid configurations or when the trace
    /// row count differs from the configured VM count.
    pub fn new(config: DataCenterConfig, trace: WorkloadTrace) -> Result<Self, SimError> {
        config.validate()?;
        if trace.n_vms() != config.vms.len() {
            return Err(SimError::TraceMismatch {
                config_vms: config.vms.len(),
                trace_vms: trace.n_vms(),
            });
        }
        let step0 = if trace.n_steps() > 0 {
            Some(trace.step_column(0))
        } else {
            None
        };
        let initial_placement = Self::place_initial(&config, step0.as_deref())?;
        Ok(Self {
            config,
            trace,
            initial_placement,
            options: SimOptions::default(),
        })
    }

    /// Replaces the step-loop options (builder style).
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// The validated configuration.
    pub fn config(&self) -> &DataCenterConfig {
        &self.config
    }

    /// The driving workload trace.
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    /// The VM→host assignment used at step 0.
    pub fn initial_placement(&self) -> &[usize] {
        &self.initial_placement
    }

    /// The active step-loop options.
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    fn place_initial(
        config: &DataCenterConfig,
        step0_util: Option<&[f64]>,
    ) -> Result<Vec<usize>, SimError> {
        let m = config.pms.len();
        let n = config.vms.len();
        if m == 0 {
            return Ok(Vec::new());
        }
        Ok(match config.initial_placement {
            InitialPlacement::Explicit(ref hosts) => {
                // `validate()` has already vetted the list, but the
                // placement is this function's postcondition — recheck
                // locally so every VM index produced below is in range
                // regardless of how we were reached.
                if hosts.len() != n {
                    return Err(SimError::PlacementLengthMismatch {
                        n_vms: n,
                        listed: hosts.len(),
                    });
                }
                if let Some(vm) = hosts.iter().position(|&h| h >= m) {
                    return Err(SimError::PlacementHostOutOfRange {
                        vm,
                        host: hosts[vm],
                        n_hosts: m,
                    });
                }
                hosts.clone()
            }
            InitialPlacement::RoundRobin => (0..n).map(|j| j % m).collect(),
            InitialPlacement::RandomUniform { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..n).map(|_| rng.gen_range(0..m)).collect()
            }
            InitialPlacement::DemandPacked => {
                let loads: Vec<f64> = (0..n)
                    .map(|j| step0_util.map_or(0.0, |u| u[j]) / 100.0 * config.vms[j].mips)
                    .collect();
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]).then(a.cmp(&b)));
                Self::first_fit(config, order, &loads)
            }
        })
    }

    /// First-fit of `order`ed VMs by the given per-VM `loads`, keeping
    /// each host at or below β × capacity in load and within the
    /// oversubscription ratio in *requested* MIPS; falls back to the
    /// least-loaded host when nothing fits (overcommit the scheduler
    /// must repair).
    fn first_fit(config: &DataCenterConfig, order: Vec<usize>, loads: &[f64]) -> Vec<usize> {
        let m = config.pms.len();
        let beta = config.cost.beta_overload;
        let ratio = config.oversubscription_ratio;
        let mut used = vec![0.0f64; m];
        let mut reserved = vec![0.0f64; m];
        let mut placement = vec![0usize; order.len()];
        for &j in &order {
            let requested = config.vms[j].mips;
            let host = (0..m)
                .find(|&h| {
                    let cap = config.pms[h].mips;
                    (used[h] + loads[j]) / cap <= beta && reserved[h] + requested <= ratio * cap
                })
                .unwrap_or_else(|| {
                    (0..m)
                        .min_by(|&a, &b| {
                            let la = used[a] / config.pms[a].mips;
                            let lb = used[b] / config.pms[b].mips;
                            la.total_cmp(&lb)
                        })
                        // The caller returns early when m == 0, so the
                        // range is never empty; 0 keeps the path total.
                        .unwrap_or(0)
                });
            used[host] += loads[j];
            reserved[host] += requested;
            placement[j] = host;
        }
        placement
    }

    /// Runs the scheduler over the whole trace and returns the outcome.
    pub fn run<S: Scheduler>(&self, scheduler: S) -> SimulationOutcome {
        self.run_steps(scheduler, self.trace.n_steps())
    }

    /// Runs at most `max_steps` steps (truncated to the trace length).
    pub fn run_steps<S: Scheduler>(&self, scheduler: S, max_steps: usize) -> SimulationOutcome {
        run_core(
            &self.config,
            &self.initial_placement,
            self.trace.cursor(),
            max_steps,
            scheduler,
            &self.options,
            STEPS_PER_DAY,
        )
    }
}

/// Runs a scheduler directly over a lazy [`TraceSource`] without ever
/// materializing the full trace: peak trace memory is one chunk (at
/// most [`STEPS_PER_DAY`] columns and at most 8 MiB), independent of
/// trace length.
///
/// The source must be freshly constructed or [`TraceSource::reset`];
/// its declared header drives validation and the step count. The
/// outcome is byte-identical to materializing the same source with
/// [`TraceSource::take_steps`] and running [`Simulation::run`] (the
/// take-steps path sanitizes values, which streaming sources already
/// guarantee by contract).
///
/// # Errors
///
/// Returns [`SimError`] for invalid configurations or when the source
/// header's VM count differs from the configured VM count.
pub fn run_streamed<T: TraceSource, S: Scheduler>(
    config: &DataCenterConfig,
    mut source: T,
    scheduler: S,
    options: SimOptions,
) -> Result<SimulationOutcome, SimError> {
    config.validate()?;
    let header = source.header();
    if header.n_vms != config.vms.len() {
        return Err(SimError::TraceMismatch {
            config_vms: config.vms.len(),
            trace_vms: header.n_vms,
        });
    }
    // Peek the first column for demand-aware initial placement, then
    // rewind so the run replays the stream from the start.
    let step0: Option<Vec<f64>> = if header.n_vms > 0 && header.n_steps > 0 {
        let mut col = vec![0.0f64; header.n_vms];
        let got = source.fill_chunk(&mut col);
        source.reset();
        (got > 0).then_some(col)
    } else {
        None
    };
    let placement = Simulation::place_initial(config, step0.as_deref())?;
    Ok(run_core(
        config,
        &placement,
        source,
        header.n_steps,
        scheduler,
        &options,
        STEPS_PER_DAY,
    ))
}

/// The step loop shared by [`Simulation::run_steps`] and
/// [`run_streamed`]. `source` must be positioned at step 0; the loop
/// pulls `chunk_steps` columns at a time, capped at [`CHUNK_BYTES`] of
/// them (both callers pass one day; the tests sweep it), and stops
/// early if the source dries up before its declared `n_steps` (e.g. a
/// file reader that hit a malformed line, which the reader keeps for
/// its caller to report).
fn run_core<T: TraceSource, S: Scheduler>(
    config: &DataCenterConfig,
    initial_placement: &[usize],
    mut source: T,
    max_steps: usize,
    mut scheduler: S,
    opts: &SimOptions,
    chunk_steps: usize,
) -> SimulationOutcome {
    let header = source.header();
    let n = config.vms.len();
    let m = config.pms.len();
    let tau = header.step_seconds as f64;
    let steps = max_steps.min(header.n_steps);
    let cap = config.migration_cap();
    let cost = &config.cost;
    let chunk_steps = chunk_steps
        .min(CHUNK_BYTES / (std::mem::size_of::<f64>() * n.max(1)))
        .max(1);

    let mut placement = initial_placement.to_vec();
    let mut vm_downtime_s = vec![0.0f64; n];
    let mut vm_requested_s = vec![0.0f64; n];
    let mut host_history: Vec<Vec<f64>> = vec![Vec::new(); m];
    let mut host_energy_joules = vec![0.0f64; m];
    let mut cumulative_migrations = 0usize;
    let mut records = Vec::with_capacity(steps.min(1 << 20));
    let mut events: Vec<crate::StepEvents> = Vec::with_capacity(steps.min(1 << 20));
    // Occupancy before the first step, for sleep/wake event edges.
    let mut prev_active: Vec<bool> = {
        let mut counts = vec![0usize; m];
        for &h in &placement {
            counts[h] += 1;
        }
        counts.iter().map(|&c| c > 0).collect()
    };

    let vm_mips: Vec<f64> = config.vms.iter().map(|v| v.mips).collect();
    let vm_ram: Vec<f64> = config.vms.iter().map(|v| v.ram_mb).collect();
    let host_mips: Vec<f64> = config.pms.iter().map(|p| p.mips).collect();
    let host_bw: Vec<f64> = config.pms.iter().map(|p| p.bw_mbps).collect();
    // Shared once: the power curves never change during a run.
    let host_power = std::sync::Arc::new(
        config
            .pms
            .iter()
            .map(|p| p.power.clone())
            .collect::<Vec<_>>(),
    );

    // One chunk of trace columns plus the per-step kernel output slots,
    // allocated once and reused every step.
    let mut chunk = vec![0.0f64; chunk_steps * n.max(1)];
    let mut step_joules = vec![0.0f64; m];
    let mut step_deficit = vec![0.0f64; m];
    let mut step_util_frac = vec![0.0f64; m];
    let mut step_sla = vec![0.0f64; n];

    #[expect(
        clippy::disallowed_methods,
        reason = "wall clock for operator progress lines only; never feeds results"
    )]
    let run_started = Instant::now();
    let mut last_report = 0usize;

    let mut step = 0usize;
    while step < steps {
        let want = chunk_steps.min(steps - step);
        let got = if n == 0 {
            // No VMs means no columns to read; the steps still elapse.
            want
        } else {
            // `TraceSource` is a public trait: hold an implementation
            // that over-reports to the columns it was given room for.
            source.fill_chunk(&mut chunk[..want * n]).min(want)
        };
        if got == 0 {
            break; // source exhausted before its declared length
        }
        for local in 0..got {
            let util_col = &chunk[local * n..(local + 1) * n];
            let step_idx = step + local;

            // 0. Scheduled outages active this interval.
            let down: Vec<bool> = (0..m)
                .map(|h| {
                    config
                        .outages
                        .iter()
                        .any(|o| o.host == h && o.covers(step_idx))
                })
                .collect();

            // 1. Demands from the trace column.
            let util: Vec<f64> = util_col.to_vec();
            let demand: Vec<f64> = (0..n).map(|j| util[j] / 100.0 * vm_mips[j]).collect();

            let mut host_used = vec![0.0f64; m];
            let mut host_vms: Vec<Vec<usize>> = vec![Vec::new(); m];
            for j in 0..n {
                host_used[placement[j]] += demand[j];
                host_vms[placement[j]].push(j);
            }

            // 2. Histories (ending with the current observation).
            for h in 0..m {
                let u = if host_mips[h] > 0.0 {
                    host_used[h] / host_mips[h]
                } else {
                    0.0
                };
                host_history[h].push(u);
                if host_history[h].len() > HISTORY_WINDOW {
                    let excess = host_history[h].len() - HISTORY_WINDOW;
                    host_history[h].drain(..excess);
                }
            }

            let view = DataCenterView {
                step: step_idx,
                step_seconds: header.step_seconds,
                vm_mips: vm_mips.clone(),
                vm_ram_mb: vm_ram.clone(),
                vm_util_percent: util,
                vm_demand_mips: demand.clone(),
                placement: placement.clone(),
                host_mips: host_mips.clone(),
                host_bw_mbps: host_bw.clone(),
                host_used_mips: host_used.clone(),
                host_vms,
                host_history: host_history.clone(),
                host_power: host_power.clone(),
                host_down: down.clone(),
                beta_overload: cost.beta_overload,
                migration_cap: cap,
            };

            // 3. Timed decision.
            #[expect(
                clippy::disallowed_methods,
                reason = "wall clock here only measures the scheduler; it never feeds back into any decision"
            )]
            let started = Instant::now();
            let requested = scheduler.decide(&view);
            let decision_micros = started.elapsed().as_micros() as u64;

            // 4. Validate, dedupe per VM, cap, and apply.
            let mut seen = vec![false; n];
            let mut applied = Vec::new();
            let mut migration_events = Vec::new();
            for req in requested {
                if applied.len() >= cap {
                    break;
                }
                let (j, dst) = (req.vm.0, req.target.0);
                if j >= n || dst >= m || placement[j] == dst || seen[j] || down[dst] {
                    continue; // a down host cannot receive a VM
                }
                seen[j] = true;
                let src = placement[j];
                // Evacuating a down host copies from storage at the
                // destination's speed; otherwise the slower NIC binds.
                let bw = if down[src] {
                    host_bw[dst]
                } else {
                    host_bw[src].min(host_bw[dst])
                };
                vm_downtime_s[j] += cost.migration_downtime_fraction.clamp(0.0, 1.0)
                    * migration_seconds(vm_ram[j], bw);
                host_used[src] -= demand[j];
                host_used[dst] += demand[j];
                placement[j] = dst;
                applied.push(crate::MigrationRequest::new(
                    crate::VmId(j),
                    crate::PmId(dst),
                ));
                migration_events.push(crate::MigrationEvent {
                    vm: crate::VmId(j),
                    from: crate::PmId(src),
                    to: crate::PmId(dst),
                });
            }
            let migrations = applied.len();
            cumulative_migrations += migrations;

            // 5. Energy + SLA accounting on the post-migration
            // placement, via the kernels in [`crate::step`]. The
            // fraction of each host's demanded work it cannot serve is
            // §3.3's overloading downtime: "overloading happens when
            // VMs try to use more resources than the capacity of the
            // host" — VMs on a host demanding 130 % of capacity lose
            // the unserved 23 % of the interval as downtime. The β
            // threshold remains the *management* signal (detectors,
            // placement, the overloaded-hosts metric).
            let mut host_vm_count = vec![0usize; m];
            for j in 0..n {
                host_vm_count[placement[j]] += 1;
            }
            host_metrics_chunk(
                &host_used,
                &host_mips,
                &host_vm_count,
                &down,
                &host_power,
                tau,
                &mut step_joules,
                &mut step_deficit,
                &mut step_util_frac,
            );
            // Fixed ascending host order: the float accumulation order
            // is part of the byte-identical outcome contract.
            let mut joules = 0.0;
            let mut active_hosts = 0;
            let mut overloaded_hosts = 0;
            for h in 0..m {
                if down[h] || host_vm_count[h] == 0 {
                    continue;
                }
                active_hosts += 1;
                joules += step_joules[h];
                host_energy_joules[h] += step_joules[h];
                if step_util_frac[h] > cost.beta_overload {
                    overloaded_hosts += 1;
                }
            }
            let energy_cost_usd = cost.energy_cost_usd(joules);

            vm_sla_chunk(
                &placement,
                &step_deficit,
                tau,
                cost,
                &mut vm_downtime_s,
                &mut vm_requested_s,
                &mut step_sla,
            );
            let mut sla_cost_usd = 0.0;
            for &s in &step_sla {
                sla_cost_usd += s;
            }

            let total_cost_usd = energy_cost_usd + sla_cost_usd;

            // 6. Events, feedback, record.
            let current_active: Vec<bool> =
                (0..m).map(|h| host_vm_count[h] > 0 && !down[h]).collect();
            events.push(crate::StepEvents {
                migrations: migration_events,
                hosts_slept: (0..m)
                    .filter(|&h| prev_active[h] && !current_active[h])
                    .collect(),
                hosts_woken: (0..m)
                    .filter(|&h| !prev_active[h] && current_active[h])
                    .collect(),
                hosts_down: (0..m).filter(|&h| down[h]).collect(),
            });
            prev_active = current_active;

            scheduler.observe(&StepFeedback {
                step: step_idx,
                energy_cost_usd,
                sla_cost_usd,
                total_cost_usd,
                applied: applied.clone(),
            });
            records.push(StepRecord {
                step: step_idx,
                energy_cost_usd,
                sla_cost_usd,
                total_cost_usd,
                migrations,
                cumulative_migrations,
                active_hosts,
                decision_micros,
                overloaded_hosts,
            });
        }
        step += got;
        if opts.progress_every > 0 && (step - last_report >= opts.progress_every || step >= steps) {
            last_report = step;
            let elapsed = run_started.elapsed().as_secs_f64();
            let frac = step as f64 / steps.max(1) as f64;
            let eta = if frac > 0.0 {
                elapsed * (1.0 - frac) / frac
            } else {
                0.0
            };
            eprintln!(
                "[sim] step {step}/{steps} ({:.0}%) elapsed {elapsed:.1}s eta {eta:.1}s",
                frac * 100.0
            );
        }
    }

    SimulationOutcome {
        scheduler: scheduler.name().to_string(),
        records,
        events,
        final_placement: placement,
        vm_downtime_s,
        vm_requested_s,
        host_energy_joules,
    }
}

/// The result of running one scheduler over one trace.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    scheduler: String,
    records: Vec<StepRecord>,
    events: Vec<crate::StepEvents>,
    final_placement: Vec<usize>,
    vm_downtime_s: Vec<f64>,
    vm_requested_s: Vec<f64>,
    host_energy_joules: Vec<f64>,
}

impl SimulationOutcome {
    /// The scheduler's reported name.
    pub fn scheduler(&self) -> &str {
        &self.scheduler
    }

    /// Per-step records, one per simulated interval.
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// The VM→host assignment after the final step.
    pub fn final_placement(&self) -> &[usize] {
        &self.final_placement
    }

    /// Per-VM cumulative downtime in seconds.
    pub fn vm_downtime_seconds(&self) -> &[f64] {
        &self.vm_downtime_s
    }

    /// Per-VM cumulative requested (active) time in seconds.
    pub fn vm_requested_seconds(&self) -> &[f64] {
        &self.vm_requested_s
    }

    /// The structured event log, one entry per step.
    pub fn events(&self) -> &[crate::StepEvents] {
        &self.events
    }

    /// Per-host energy consumed over the run, in Joules.
    pub fn host_energy_joules(&self) -> &[f64] {
        &self.host_energy_joules
    }

    /// A bit-exact digest of every deterministic field of the outcome:
    /// costs and counters per step (floats via [`f64::to_bits`]), the
    /// event log, the final placement, and the per-VM / per-host
    /// accumulators. `decision_micros` is excluded — it measures wall
    /// clock. Two runs of the same scheduler over the same trace must
    /// produce equal fingerprints regardless of [`SimOptions`] and of the
    /// chunk size; the CI equivalence tests assert exactly that.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "scheduler={};", self.scheduler);
        for r in &self.records {
            let _ = write!(
                out,
                "r{}:{:016x},{:016x},{:016x},{},{},{},{};",
                r.step,
                r.energy_cost_usd.to_bits(),
                r.sla_cost_usd.to_bits(),
                r.total_cost_usd.to_bits(),
                r.migrations,
                r.cumulative_migrations,
                r.active_hosts,
                r.overloaded_hosts,
            );
        }
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(out, "e{i}:");
            for mv in &e.migrations {
                let _ = write!(out, "m{}-{}-{},", mv.vm.0, mv.from.0, mv.to.0);
            }
            let _ = write!(
                out,
                "s{:?}w{:?}d{:?};",
                e.hosts_slept, e.hosts_woken, e.hosts_down
            );
        }
        let _ = write!(out, "p{:?};", self.final_placement);
        for &v in &self.vm_downtime_s {
            let _ = write!(out, "{:016x},", v.to_bits());
        }
        out.push(';');
        for &v in &self.vm_requested_s {
            let _ = write!(out, "{:016x},", v.to_bits());
        }
        out.push(';');
        for &v in &self.host_energy_joules {
            let _ = write!(out, "{:016x},", v.to_bits());
        }
        out
    }

    /// Aggregates the run into a Table 2/3-style summary row.
    pub fn report(&self) -> SummaryReport {
        SummaryReport::from_records(&self.scheduler, &self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MigrationRequest, NoOpScheduler, PmId, VmId};
    use megh_trace::{PlanetLabConfig, WorkloadTrace};

    fn flat_trace(n_vms: usize, steps: usize, util: f64) -> WorkloadTrace {
        WorkloadTrace::from_rows(300, vec![vec![util; steps]; n_vms]).unwrap()
    }

    /// A scheduler that always asks for one fixed migration.
    struct OneMove {
        vm: usize,
        target: usize,
    }

    impl Scheduler for OneMove {
        fn name(&self) -> &str {
            "OneMove"
        }
        fn decide(&mut self, _view: &DataCenterView) -> Vec<MigrationRequest> {
            vec![MigrationRequest::new(VmId(self.vm), PmId(self.target))]
        }
    }

    #[test]
    fn trace_mismatch_is_rejected() {
        let trace = flat_trace(3, 5, 10.0);
        let config = DataCenterConfig::paper_planetlab(2, 4);
        assert_eq!(
            Simulation::new(config, trace).unwrap_err(),
            SimError::TraceMismatch {
                config_vms: 4,
                trace_vms: 3
            }
        );
    }

    #[test]
    fn round_robin_initial_placement() {
        let trace = flat_trace(5, 2, 10.0);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 5), trace).unwrap();
        assert_eq!(sim.initial_placement(), &[0, 1, 0, 1, 0]);
    }

    #[test]
    fn random_placement_is_seeded() {
        let mut config = DataCenterConfig::paper_planetlab(4, 10);
        config.initial_placement = InitialPlacement::RandomUniform { seed: 9 };
        let trace = flat_trace(10, 2, 10.0);
        let a = Simulation::new(config.clone(), trace.clone()).unwrap();
        let b = Simulation::new(config, trace).unwrap();
        assert_eq!(a.initial_placement(), b.initial_placement());
    }

    #[test]
    fn noop_run_has_no_migrations_and_positive_cost() {
        let trace = flat_trace(4, 6, 20.0);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 4), trace).unwrap();
        let outcome = sim.run(NoOpScheduler);
        let report = outcome.report();
        assert_eq!(report.total_migrations, 0);
        assert!(report.total_cost_usd > 0.0);
        assert_eq!(report.steps, 6);
        assert_eq!(report.sla_cost_usd, 0.0, "20 % util must not violate SLAs");
    }

    #[test]
    fn energy_cost_matches_hand_computation() {
        // 1 host awake, 1 asleep. Two small VMs on host 0 at 0 %
        // utilization.
        let mut config = DataCenterConfig::paper_planetlab(2, 2);
        config.vms = vec![
            crate::VmSpec::new(500.0, 613.0, 100.0),
            crate::VmSpec::new(500.0, 613.0, 100.0),
        ];
        let trace = flat_trace(2, 1, 0.0);
        config.initial_placement = InitialPlacement::Explicit(vec![0, 0]);
        let sim = Simulation::new(config.clone(), trace).unwrap();
        let outcome = sim.run(NoOpScheduler);
        let r = &outcome.records()[0];
        // Host 0 is a G4 idling at 86 W for 300 s; host 1 sleeps.
        let want = config.cost.energy_cost_usd(86.0 * 300.0);
        assert!((r.energy_cost_usd - want).abs() < 1e-9);
        assert_eq!(r.active_hosts, 1);
    }

    #[test]
    fn migration_moves_vm_and_counts() {
        let trace = flat_trace(2, 3, 10.0);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(3, 2), trace).unwrap();
        let outcome = sim.run(OneMove { vm: 0, target: 2 });
        // First step migrates vm0 to host 2; later steps are self-moves
        // (vm0 already there) and are ignored.
        assert_eq!(outcome.report().total_migrations, 1);
        assert_eq!(outcome.final_placement()[0], 2);
        assert!(outcome.vm_downtime_seconds()[0] > 0.0);
        assert_eq!(outcome.vm_downtime_seconds()[1], 0.0);
    }

    #[test]
    fn migration_downtime_is_alpha_tm_over_the_binding_nic() {
        // vm0 leaves host 0, whose NIC is slow, for host 2: the slower
        // NIC binds. With host 0 down the copy runs at host 2's speed.
        let downtime = |source_down: bool| {
            let mut config = DataCenterConfig::paper_planetlab(3, 2);
            config.pms[0].bw_mbps = 100.0;
            config.initial_placement = InitialPlacement::Explicit(vec![0, 1]);
            if source_down {
                config.outages = vec![crate::HostOutage {
                    host: 0,
                    from_step: 0,
                    until_step: 1,
                }];
            }
            let sim = Simulation::new(config, flat_trace(2, 1, 10.0)).unwrap();
            sim.run(OneMove { vm: 0, target: 2 }).vm_downtime_seconds()[0]
        };
        let config = DataCenterConfig::paper_planetlab(3, 2);
        let alpha = config.cost.migration_downtime_fraction;
        let ram = config.vms[0].ram_mb;
        assert_eq!(downtime(false), alpha * migration_seconds(ram, 100.0));
        assert_eq!(downtime(true), alpha * migration_seconds(ram, 1000.0));
    }

    #[test]
    fn out_of_range_requests_are_ignored() {
        let trace = flat_trace(2, 2, 10.0);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 2), trace).unwrap();
        let outcome = sim.run(OneMove { vm: 7, target: 1 });
        assert_eq!(outcome.report().total_migrations, 0);
        let outcome = sim.run(OneMove { vm: 0, target: 9 });
        assert_eq!(outcome.report().total_migrations, 0);
    }

    #[test]
    fn migration_cap_is_enforced() {
        struct MoveAll;
        impl Scheduler for MoveAll {
            fn name(&self) -> &str {
                "MoveAll"
            }
            fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
                view.vms()
                    .map(|vm| {
                        let h = view.host_of(vm).0;
                        MigrationRequest::new(vm, PmId((h + 1) % view.n_hosts()))
                    })
                    .collect()
            }
        }
        let trace = flat_trace(10, 1, 10.0);
        let mut config = DataCenterConfig::paper_planetlab(4, 10);
        config.migration_cap_fraction = 0.02;
        let sim = Simulation::new(config, trace).unwrap();
        let outcome = sim.run(MoveAll);
        // cap = ceil(0.02 × 10) = 1.
        assert_eq!(outcome.report().total_migrations, 1);
    }

    #[test]
    fn overload_accrues_downtime_and_sla_cost() {
        // 2 VMs of up to 2500 MIPS at 100 % on one G4 host (3720 MIPS)
        // → guaranteed overload.
        let mut config = DataCenterConfig::paper_planetlab(1, 2);
        config.vms = vec![
            crate::VmSpec::new(2500.0, 1024.0, 100.0),
            crate::VmSpec::new(2500.0, 1024.0, 100.0),
        ];
        let trace = flat_trace(2, 4, 100.0);
        let sim = Simulation::new(config, trace).unwrap();
        let outcome = sim.run(NoOpScheduler);
        assert!(outcome.vm_downtime_seconds().iter().all(|&d| d > 0.0));
        let report = outcome.report();
        assert!(report.sla_cost_usd > 0.0, "sustained overload must cost");
        assert!(outcome.records().iter().all(|r| r.overloaded_hosts == 1));
    }

    #[test]
    fn per_step_costs_sum_to_total() {
        let trace = PlanetLabConfig::new(6, 5).generate_steps(30);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(3, 6), trace).unwrap();
        let outcome = sim.run(NoOpScheduler);
        let report = outcome.report();
        let sum: f64 = outcome.records().iter().map(|r| r.total_cost_usd).sum();
        assert!((report.total_cost_usd - sum).abs() < 1e-9);
        assert!(
            (report.total_cost_usd - report.energy_cost_usd - report.sla_cost_usd).abs() < 1e-9
        );
    }

    #[test]
    fn run_steps_truncates() {
        let trace = flat_trace(2, 10, 10.0);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 2), trace).unwrap();
        assert_eq!(sim.run_steps(NoOpScheduler, 4).records().len(), 4);
        assert_eq!(sim.run_steps(NoOpScheduler, 99).records().len(), 10);
    }

    #[test]
    fn duplicate_requests_for_same_vm_keep_first() {
        struct TwoForOne;
        impl Scheduler for TwoForOne {
            fn name(&self) -> &str {
                "TwoForOne"
            }
            fn decide(&mut self, _v: &DataCenterView) -> Vec<MigrationRequest> {
                vec![
                    MigrationRequest::new(VmId(0), PmId(1)),
                    MigrationRequest::new(VmId(0), PmId(2)),
                ]
            }
        }
        let mut config = DataCenterConfig::paper_planetlab(3, 2);
        config.migration_cap_fraction = 1.0; // cap is not the limiter here
        let trace = flat_trace(2, 1, 10.0);
        let sim = Simulation::new(config, trace).unwrap();
        let outcome = sim.run(TwoForOne);
        assert_eq!(outcome.report().total_migrations, 1);
        assert_eq!(outcome.final_placement()[0], 1);
    }

    #[test]
    fn demand_packed_initial_placement_packs_by_first_step_demand() {
        let mut config = DataCenterConfig::paper_planetlab(4, 4);
        config.vms = vec![crate::VmSpec::new(1000.0, 512.0, 100.0); 4];
        config.initial_placement = InitialPlacement::DemandPacked;
        // All four demand 10 % of 1000 = 100 MIPS: they pack onto one
        // host (400 ≪ β × 3720, reservation 4000 ≤ 2 × 3720).
        let trace = flat_trace(4, 2, 10.0);
        let sim = Simulation::new(config, trace).unwrap();
        let first = sim.initial_placement()[0];
        assert!(sim.initial_placement().iter().all(|&h| h == first));
    }

    #[test]
    fn demand_packed_respects_oversubscription() {
        let mut config = DataCenterConfig::paper_planetlab(4, 8);
        config.vms = vec![crate::VmSpec::new(2500.0, 512.0, 100.0); 8];
        config.initial_placement = InitialPlacement::DemandPacked;
        let trace = flat_trace(8, 2, 1.0); // near-idle demand
        let sim = Simulation::new(config.clone(), trace).unwrap();
        let mut reserved = [0.0; 4];
        for (j, &h) in sim.initial_placement().iter().enumerate() {
            reserved[h] += config.vms[j].mips;
        }
        for (h, r) in reserved.iter().enumerate() {
            assert!(
                *r <= config.oversubscription_ratio * config.pms[h].mips + 1e-9,
                "host {h} over-reserved at {r}"
            );
        }
    }

    #[test]
    fn event_log_tracks_sleep_and_wake_edges() {
        // vm0 moves from host 0 (shared with vm1) to empty host 2 at
        // step 0: host 2 wakes; nothing sleeps. No further changes.
        let trace = flat_trace(2, 3, 10.0);
        let mut config = DataCenterConfig::paper_planetlab(3, 2);
        config.initial_placement = InitialPlacement::Explicit(vec![0, 0]);
        let sim = Simulation::new(config, trace).unwrap();
        let outcome = sim.run(OneMove { vm: 0, target: 2 });
        let step0 = &outcome.events()[0];
        assert_eq!(step0.migrations.len(), 1);
        assert_eq!(step0.migrations[0].from, PmId(0));
        assert_eq!(step0.migrations[0].to, PmId(2));
        assert_eq!(step0.hosts_woken, vec![2]);
        assert!(step0.hosts_slept.is_empty());
        let step1 = &outcome.events()[1];
        assert!(step1.migrations.is_empty());
        assert!(step1.hosts_woken.is_empty() && step1.hosts_slept.is_empty());
    }

    #[test]
    fn host_energy_breakdown_sums_to_total() {
        let trace = flat_trace(4, 6, 30.0);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(3, 4), trace).unwrap();
        let outcome = sim.run(NoOpScheduler);
        let per_host: f64 = outcome.host_energy_joules().iter().sum();
        let cost = crate::CostParams::paper_defaults();
        let total_cost = outcome.report().energy_cost_usd;
        assert!((cost.energy_cost_usd(per_host) - total_cost).abs() < 1e-9);
    }

    #[test]
    fn explicit_placement_with_wrong_length_is_rejected() {
        // Regression: `place_initial` used to clone the list blindly,
        // so a 2-entry placement over 3 VMs produced out-of-bounds VM
        // indexing later in the run instead of a clean error here.
        let trace = flat_trace(3, 3, 10.0);
        let mut config = DataCenterConfig::paper_planetlab(3, 3);
        config.initial_placement = InitialPlacement::Explicit(vec![0, 1]);
        assert_eq!(
            Simulation::new(config, trace).unwrap_err(),
            SimError::PlacementLengthMismatch {
                n_vms: 3,
                listed: 2
            }
        );
    }

    #[test]
    fn explicit_placement_with_unknown_host_is_rejected() {
        let trace = flat_trace(2, 2, 10.0);
        let mut config = DataCenterConfig::paper_planetlab(2, 2);
        config.initial_placement = InitialPlacement::Explicit(vec![0, 5]);
        assert_eq!(
            Simulation::new(config, trace).unwrap_err(),
            SimError::PlacementHostOutOfRange {
                vm: 1,
                host: 5,
                n_hosts: 2
            }
        );
    }

    #[test]
    fn empty_data_center_runs() {
        let trace = WorkloadTrace::from_rows(300, vec![]).unwrap();
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 0), trace).unwrap();
        let outcome = sim.run(NoOpScheduler);
        // Hosts with no VMs sleep: zero cost.
        assert_eq!(outcome.report().total_cost_usd, 0.0);
    }

    #[test]
    fn host_history_is_bounded() {
        struct HistoryProbe {
            max_seen: usize,
        }
        impl Scheduler for HistoryProbe {
            fn name(&self) -> &str {
                "HistoryProbe"
            }
            fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
                for h in view.hosts() {
                    self.max_seen = self.max_seen.max(view.host_history(h).len());
                }
                Vec::new()
            }
        }
        let trace = flat_trace(2, 40, 10.0);
        let sim = Simulation::new(DataCenterConfig::paper_planetlab(2, 2), trace).unwrap();
        // Run and inspect via a probe-owned max (scheduler is consumed).
        let mut probe = HistoryProbe { max_seen: 0 };
        sim.run(&mut probe);
        assert_eq!(probe.max_seen, HISTORY_WINDOW);
    }

    /// A contrived scheduler that migrates a rotating VM every step so
    /// the equivalence tests exercise the migration, downtime, and
    /// overload paths, not just idle accounting.
    struct Rotor;
    impl Scheduler for Rotor {
        fn name(&self) -> &str {
            "Rotor"
        }
        fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
            let n = view.n_vms();
            let m = view.n_hosts();
            if n == 0 || m < 2 {
                return Vec::new();
            }
            let j = view.step() % n;
            let h = view.host_of(VmId(j)).0;
            vec![MigrationRequest::new(VmId(j), PmId((h + 1) % m))]
        }
    }

    fn busy_setup(steps: usize) -> (DataCenterConfig, WorkloadTrace) {
        let mut config = DataCenterConfig::paper_planetlab(4, 8);
        // High per-VM demand so some hosts overload and SLA costs flow.
        config.vms = vec![crate::VmSpec::new(2000.0, 1024.0, 100.0); 8];
        config.initial_placement = InitialPlacement::Explicit(vec![0, 0, 0, 1, 1, 2, 2, 3]);
        let trace = PlanetLabConfig::new(8, 77).generate_steps(steps);
        (config, trace)
    }

    #[test]
    fn streaming_chunk_size_is_invisible() {
        let (config, trace) = busy_setup(50);
        let sim = Simulation::new(config.clone(), trace.clone()).unwrap();
        let base = sim.run(Rotor);
        for chunk_steps in [1usize, 7, 64, 50] {
            let out = run_core(
                &config,
                sim.initial_placement(),
                trace.cursor(),
                trace.n_steps(),
                Rotor,
                &SimOptions::default(),
                chunk_steps,
            );
            assert_eq!(
                out.fingerprint(),
                base.fingerprint(),
                "chunk_steps = {chunk_steps} changed the outcome"
            );
        }
    }

    #[test]
    fn streaming_run_matches_materialized_run() {
        // Drive the engine straight from the lazy generator and compare
        // against materialize-then-run.
        let gen = PlanetLabConfig::new(8, 21);
        let (mut config, _) = busy_setup(1);
        config.initial_placement = InitialPlacement::DemandPacked;
        let trace = gen.generate_steps(30);
        let base = Simulation::new(config.clone(), trace).unwrap().run(Rotor);
        let out = run_streamed(&config, gen.source(30), Rotor, SimOptions::default()).unwrap();
        assert_eq!(out.fingerprint(), base.fingerprint());
    }

    #[test]
    fn streaming_run_clamps_an_over_reporting_source() {
        // `TraceSource` is a public trait: a source that fills its buffer
        // honestly but claims `usize::MAX` columns must neither panic the
        // step loop nor make it read past the chunk — so the run is the
        // honest run, bit for bit.
        struct Liar<S>(S);
        impl<S: TraceSource> TraceSource for Liar<S> {
            fn header(&self) -> megh_trace::TraceHeader {
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
        let gen = PlanetLabConfig::new(8, 21);
        let (config, _) = busy_setup(1);
        let options = SimOptions::default();
        let honest = run_streamed(&config, gen.source(30), Rotor, options).unwrap();
        let lied = run_streamed(&config, Liar(gen.source(30)), Rotor, options).unwrap();
        assert_eq!(lied.records().len(), 30);
        assert_eq!(lied.fingerprint(), honest.fingerprint());
    }

    #[test]
    fn run_streamed_rejects_vm_count_mismatch() {
        let config = DataCenterConfig::paper_planetlab(2, 4);
        let source = PlanetLabConfig::new(3, 1).source(5);
        assert_eq!(
            run_streamed(&config, source, NoOpScheduler, SimOptions::default()).unwrap_err(),
            SimError::TraceMismatch {
                config_vms: 4,
                trace_vms: 3
            }
        );
    }

    #[test]
    fn fingerprint_excludes_wall_clock() {
        let (config, trace) = busy_setup(10);
        let a = Simulation::new(config.clone(), trace.clone())
            .unwrap()
            .run(Rotor);
        let b = Simulation::new(config, trace).unwrap().run(Rotor);
        // decision_micros certainly differs between runs; fingerprints
        // must not.
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
