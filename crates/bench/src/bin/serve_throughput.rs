//! `serve_throughput` — sustained decision throughput and tail latency
//! of the `megh serve` daemon under concurrent write load.
//!
//! Usage:
//!   cargo run --release -p megh-bench --bin serve_throughput \
//!       [--snapshot LABEL] [--out FILE] [--clients N] [--decides N]
//!
//! Starts an in-process daemon on a loopback TCP port, keeps one
//! background connection streaming `observe` updates (so the writer
//! thread continuously learns and republishes snapshots), and measures
//! `--clients` concurrent connections each issuing `--decides` seeded
//! decide requests. Appends a `{snapshot, results}` entry to `FILE`
//! (default `BENCH_serve_throughput.json`, repo root) in the same
//! series schema `bench-diff` reads; re-running with an existing label
//! replaces that snapshot instead of duplicating it.
//!
//! Probes recorded:
//! - `serve/decide_p99_under_load` — per-request latency distribution
//!   across all client samples, with `p99_ns` filled in;
//! - `serve/decide_sustained` — wall-clock ns per decision across the
//!   whole fleet, with `throughput_per_sec` = decisions/sec.
//!
//! Like every latency probe these numbers are advisory in `bench-diff`;
//! only the snapshot shape is a gate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use megh_bench::{BenchResult, BenchSnapshot};
use megh_core::MeghConfig;
use megh_serve::{Client, Listen, Request, Response, ServeOptions, Server};

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_serve_throughput.json".to_string();
    let mut label = "PR6".to_string();
    let mut clients = 4usize;
    let mut decides = 1500usize;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        match args[i].as_str() {
            "--out" => out = value.unwrap_or(out),
            "--snapshot" => label = value.unwrap_or(label),
            "--clients" => clients = value.and_then(|v| v.parse().ok()).unwrap_or(clients),
            "--decides" => decides = value.and_then(|v| v.parse().ok()).unwrap_or(decides),
            other => {
                eprintln!("serve_throughput: unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    // Daemon on an ephemeral loopback port; checkpoint in a temp dir.
    let dir = std::env::temp_dir().join(format!("megh-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let opts = ServeOptions::new(Listen::parse("127.0.0.1:0"), dir.join("checkpoint.json"));
    let config = MeghConfig::paper_defaults(40, 20);
    let dim = config.n_vms * config.n_hosts;
    let server = Server::bind(config, &opts).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let listen = Listen::parse(&addr.to_string());
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    // Warm the model so decides run against a learned snapshot.
    let mut warm = Client::connect(&listen).expect("connect");
    for s in 0..200 {
        warm.observe(s % dim, 0.05 + (s % 9) as f64 * 0.01)
            .expect("warm observe");
    }
    warm.sync().expect("warm sync");

    // Background write load for the whole measurement window: the
    // writer keeps batching updates and publishing fresh snapshots
    // while the clients read.
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        let listen = listen.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&listen).expect("load connect");
            let mut s = 0usize;
            while !stop.load(Ordering::Relaxed) {
                c.observe(s % dim, 0.02 + (s % 11) as f64 * 0.01)
                    .expect("load observe");
                s += 1;
                if s.is_multiple_of(64) {
                    c.sync().expect("load sync");
                }
            }
            s
        })
    };

    // The measured fleet.
    let wall = Instant::now();
    let mut fleet = Vec::new();
    for t in 0..clients {
        let listen = listen.clone();
        fleet.push(std::thread::spawn(move || {
            let mut c = Client::connect(&listen).expect("client connect");
            let mut samples_ns = Vec::with_capacity(decides);
            for k in 0..decides {
                let seed = (t * decides + k) as u64;
                let started = Instant::now();
                let r = c.request(&Request::Decide { seed }).expect("decide");
                samples_ns.push(started.elapsed().as_nanos() as f64);
                assert!(matches!(r, Response::Decision { .. }), "{r:?}");
            }
            samples_ns
        }));
    }
    let mut samples_ns: Vec<f64> = fleet
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let wall_s = wall.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    let load_updates = load.join().expect("load thread");
    Client::connect(&listen)
        .expect("shutdown connect")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);

    samples_ns.sort_by(f64::total_cmp);
    let total = samples_ns.len();
    let mean_ns = samples_ns.iter().sum::<f64>() / total as f64;
    let p99_ns = percentile(&samples_ns, 0.99);
    let per_decision_ns = wall_s * 1e9 / total as f64;
    let decisions_per_sec = total as f64 / wall_s;

    let results = vec![
        BenchResult {
            id: format!("serve/decide_p99_under_load/{clients}c"),
            mean_ns,
            median_ns: percentile(&samples_ns, 0.50),
            min_ns: samples_ns[0],
            max_ns: samples_ns[total - 1],
            samples: total,
            allocs: None,
            p99_ns: Some(p99_ns),
            throughput_per_sec: None,
            p25_ns: Some(percentile(&samples_ns, 0.25)),
            p75_ns: Some(percentile(&samples_ns, 0.75)),
        },
        BenchResult {
            id: format!("serve/decide_sustained/{clients}c"),
            mean_ns: per_decision_ns,
            median_ns: per_decision_ns,
            min_ns: per_decision_ns,
            max_ns: per_decision_ns,
            samples: total,
            allocs: None,
            p99_ns: None,
            throughput_per_sec: Some(decisions_per_sec),
            // A single wall-clock window has no repetition spread.
            p25_ns: None,
            p75_ns: None,
        },
    ];

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

    println!(
        "serve_throughput [{label}]: {clients} clients x {decides} decides \
         under write load ({load_updates} background updates)"
    );
    println!(
        "  sustained: {decisions_per_sec:.0} decisions/sec ({per_decision_ns:.0} ns/decision fleet-wide)"
    );
    println!(
        "  latency:   median {:.0} ns, mean {mean_ns:.0} ns, p99 {p99_ns:.0} ns",
        percentile(&samples_ns, 0.50)
    );
    println!("  series:    {out} ({} snapshot(s))", series.len());
}
