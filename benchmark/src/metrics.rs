//! The benchmark's metric tables (mirrored by `BENCHMARK.json`) and the
//! report one workload run produces.

use std::fmt::Write as _;

use crate::spans::Span;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload's untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// `ops_per_s` counts simulated steps on `sim_*`, decide requests on
/// `serve_decide` and observe/sync/decide cycles on `serve_cycle`.
/// `decide_*_us` is the in-process `Scheduler::decide` call on `sim_*`
/// and the client-side round trip on `serve_*`. `total_cost_usd` is the
/// `SummaryReport` cost of the measured simulation on `sim_*` and of
/// the set-up's training simulation on `serve_*`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "decide_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "decide_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "total_cost_usd",
        unit: "USD",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit)`, reported by every workload's
/// traced run; a layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("trace.fill_chunk_s", "s"),
    ("trace.fill_chunk_calls", "count"),
    ("trace.ns_per_value", "ns"),
    ("sim.self_s", "s"),
    ("sim.ns_per_vm_step", "ns"),
    ("sim.migrations_applied", "count"),
    ("sim.active_hosts_mean", "count"),
    ("core.decide_s", "s"),
    ("core.decide_calls", "count"),
    ("core.decide_p50_us", "us"),
    ("core.decide_p99_us", "us"),
    ("core.decide_last_decile_mean_us", "us"),
    ("core.observe_s", "s"),
    ("core.theta_nnz", "count"),
    ("core.qtable_nnz", "count"),
    ("core.agent_new_ms", "ms"),
    ("core.policy_sample_us", "us"),
    ("core.policy_greedy_us", "us"),
    ("core.lspi_update_us", "us"),
    ("core.lspi_clone_us", "us"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.checkpoint_load_ms", "ms"),
    ("core.checkpoint_bytes", "count"),
    ("linalg.dok_outer_us", "us"),
    ("linalg.dok_matvec_us", "us"),
    ("linalg.dok_matvec_left_us", "us"),
    ("linalg.dok_nnz", "count"),
    ("serve.train_s", "s"),
    ("serve.bind_s", "s"),
    ("serve.connect_us", "us"),
    ("serve.stats_rtt_p50_us", "us"),
    ("serve.decide_minus_stats_us", "us"),
    ("serve.wire_request_parse_us", "us"),
    ("serve.wire_response_encode_us", "us"),
    ("serve.decide_s", "s"),
    ("serve.decide_calls", "count"),
    ("serve.decide_p99_us", "us"),
    ("serve.decide_p999_us", "us"),
    ("serve.observe_s", "s"),
    ("serve.observe_rtt_p50_us", "us"),
    ("serve.observe_rtt_p99_us", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.sync_s", "s"),
    ("serve.sync_p50_us", "us"),
    ("serve.sync_p90_us", "us"),
    ("serve.publishes", "count"),
    ("serve.publishes_per_sync", "count"),
    ("serve.first_decide_after_sync_us", "us"),
    ("serve.later_decide_us", "us"),
    ("serve.client_self_s", "s"),
    ("serve.shutdown_s", "s"),
    ("serve.steps_end", "count"),
    ("serve.nnz_end", "count"),
    ("serve.failed_frac", "frac"),
    ("layers_sum_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

/// One reported number; `samples` is how many measurements it reduces.
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Reading>,
    pub per_layer: Vec<Reading>,
    /// Raw timing distributions behind the percentile metrics, each
    /// as median and highest supported tail percentile.
    pub timings: Vec<(&'static str, crate::stats::Summary)>,
    /// `ops_per_s` of each untraced pass as a whole, in order, beside
    /// the floor's: how disturbed the run was.
    pub pass_ops_per_s: Vec<f64>,
    /// Wall time of an undisturbed pass (see `floor`).
    pub floor_wall_s: f64,
    /// Correctness and accounting checks that did not hold.
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.end_to_end.push(Reading {
            name,
            value,
            samples,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.per_layer.push(Reading {
            name,
            value,
            samples,
        });
    }

    /// Summarises the timing samples `name_us` (sorting them).
    pub fn timing(&mut self, name_us: &'static str, samples: &mut [f64]) {
        self.timings
            .extend(crate::stats::summarize(samples).map(|s| (name_us, s)));
    }

    /// Records `what` as a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn value_of(readings: &[Reading], name: &str) -> Option<(f64, usize)> {
        readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| (r.value, r.samples))
    }

    /// `(name, unit, value, samples)` for every metric of the selected
    /// table, in table order. A per-layer metric the workload did not
    /// report reads 0; a missing end-to-end metric is a failed check.
    pub fn table(&mut self, traced: bool) -> Vec<(&'static str, &'static str, f64, usize)> {
        let mut rows = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let (value, samples) = Self::value_of(&self.per_layer, name).unwrap_or((0.0, 0));
                rows.push((name, unit, value, samples));
            }
        } else {
            for def in &END_TO_END {
                match Self::value_of(&self.end_to_end, def.name) {
                    Some((value, samples)) => rows.push((def.name, def.unit, value, samples)),
                    None => self
                        .failures
                        .push(format!("end-to-end metric {} was not measured", def.name)),
                }
            }
        }
        for &(name, _, value, _) in &rows {
            if !value.is_finite() {
                self.failures.push(format!("{name} is not finite"));
            }
        }
        rows
    }
}

/// The result line the PR driver reads: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&'static str, &'static str, f64, usize)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value, _)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; `Report::table` already
        // flagged them, so the line stays parseable and `correct` false.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_object() {
        let rows = [("setup_s", "s", 0.8127, 5), ("ops_per_s", "1/s", 1200.5, 3)];
        let line = result_line(true, 1000, 0, &rows);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(1000));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.8127));
        assert_eq!(v["metrics"]["ops_per_s"]["unit"].as_str(), Some("1/s"));
    }

    #[test]
    fn unreported_layers_read_zero_and_missing_end_to_end_fails() {
        let mut report = Report::default();
        report.layer("core.decide_s", 1.5, 100);
        let rows = report.table(true);
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.iter().any(|r| r.0 == "core.decide_s" && r.2 == 1.5));
        assert!(rows.iter().any(|r| r.0 == "serve.bind_s" && r.2 == 0.0));
        assert!(report.correct());
        report.table(false);
        assert!(!report.correct());
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics, units, directions and bounds of the tables above.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let e2e = v["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(row["name"].as_str(), Some(def.name));
            assert_eq!(row["unit"].as_str(), Some(def.unit));
            assert_eq!(row["better"].as_str(), Some(def.better.as_str()));
            assert_eq!(row["bound"].as_f64(), Some(def.bound), "{}", def.name);
        }
        let layers = v["per_layer"].as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(row["name"].as_str(), Some(name));
            assert_eq!(row["unit"].as_str(), Some(unit));
        }
        let workloads: Vec<(&str, &str)> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|w| w["name"].as_str().zip(w["why"].as_str()))
            .collect();
        let ours: Vec<(&str, &str)> = crate::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            v["run_seconds"].as_f64(),
            Some(crate::DEFAULT_SECONDS),
            "run_seconds"
        );
    }
}
