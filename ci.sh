#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

# `cargo test <filter>` passes when the filter matches nothing, so a
# filtered stage also fails unless some test binary ran at least one test.
filtered_test() {
  local out
  if ! out=$(cargo test "$@" 2>&1); then
    echo "$out"
    return 1
  fi
  echo "$out" | grep '^test result' || true
  if ! echo "$out" | grep -Eq '^test result: ok\. [1-9]'; then
    echo "filter selected no test: cargo test $*" >&2
    return 1
  fi
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings (explicit panics, determinism types, docs, hot-path indexing/division)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings (the nine megh crates: dangling or private intra-doc links)"
# Not --workspace: that also documents the vendored proptest, whose `[vec]`
# links are ambiguous.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p megh -p megh-linalg -p megh-trace \
  -p megh-sim -p megh-core -p megh-serve -p megh-baselines -p megh-cli \
  -p megh-bench

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> two-level cost guard (Table 2 fleet, 4 seeds, $(nproc) cores): hier <= 1.25 x flat"
# The sweep prints a markdown table with one `| <name> | <mean> ± <sd> | …`
# row per scheduler, in --schedulers order; each seed drives the trace and
# both schedulers' RNGs. Expected 20504.1 (megh) and 18435.6 (hier); the
# score coordinator this guard keeps out cost ~39 000.
target/release/megh sweep --hosts 800 --vms 1052 --days 30 --schedulers megh,hier \
  --seeds 4 --seed 1 | awk -F'|' '
  $3 ~ /^ *-?[0-9]/ { split($3, cell, " "); mean[n++] = cell[1] }
  END {
    if (n != 2) { print "cost guard: expected 2 scheduler rows, got " n; exit 1 }
    printf "flat %s USD, hier %s USD (means over the seeds)\n", mean[0], mean[1]
    if (mean[1] > 1.25 * mean[0]) { print "cost guard: hier exceeds 1.25 x flat"; exit 1 }
  }'

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> sweep determinism (thread count never changes --out)"
filtered_test -q -p megh-cli sweep_determinism

echo "==> experiment determinism (thread count never changes results/<row>.json)"
filtered_test -q -p megh-bench experiment_determinism

echo "==> fig1_workloads and experiment fig8 run end to end in a scratch directory"
# Both write under ./results; each must exit 0 and leave its files.
REPO_DIR="$(pwd)"
RUN_DIR="$(mktemp -d)"
(cd "$RUN_DIR" && "$REPO_DIR/target/release/fig1_workloads" >/dev/null \
  && "$REPO_DIR/target/release/experiment" fig8 >/dev/null)
if ! [ -s "$RUN_DIR/results/fig8.json" ] || ! compgen -G "$RUN_DIR/results/fig1a_*.csv" >/dev/null; then
  echo "missing results/fig8.json or results/fig1a_*.csv" >&2
  exit 1
fi
rm -rf "$RUN_DIR"

echo "==> streamed runs equal in-memory runs (engine chunk sizes; CLI vs library; file errors)"
filtered_test -q -p megh-sim streaming_
filtered_test -q -p megh-cli stream_

# Runs a `--mem-stats` command and fails unless the `peak RSS <N> kB` line
# it ends with is under the budget (kB, first argument).
rss_budget() {
  local budget=$1 line kb
  shift
  line=$("$@" | tail -n 1)
  echo "$line"
  kb=$(echo "$line" | awk '/^peak RSS/ {print $3}')
  if ! [ "${kb:-99999999}" -lt "$budget" ] 2>/dev/null; then
    echo "RSS budget exceeded: ${kb:-unparsable} kB (budget: <$budget kB): $*" >&2
    return 1
  fi
}

echo "==> simulate peak-RSS budget (500 VMs x 30 days, noop, budget <32768 kB)"
rss_budget 32768 target/release/megh simulate --workload planetlab --hosts 250 --vms 500 \
  --days 30 --scheduler noop --mem-stats

echo "==> simulate --file peak-RSS budget (500 VMs x 30 days CSV, noop, budget <32768 kB)"
TRACE_DIR="$(mktemp -d)"
target/release/megh trace-gen --workload planetlab --vms 500 --days 30 --seed 11 \
  --out "$TRACE_DIR/trace.csv" >/dev/null
rss_budget 32768 target/release/megh simulate --file "$TRACE_DIR/trace.csv" --hosts 250 \
  --scheduler noop --mem-stats
rm -rf "$TRACE_DIR"

echo "==> flat Megh peak-RSS budget (5000 hosts x 6600 VMs x 1 day, megh, budget <65536 kB)"
# d = 33 M actions: the agent's state must grow with what it learns, not
# with d (an empty list per action held 1.5 GB here).
rss_budget 65536 target/release/megh simulate --scheduler megh --hosts 5000 --vms 6600 \
  --days 1 --mem-stats

echo "==> serve smoke: checkpoint, kill -9, restart, byte-identical decides"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
MEGH=target/release/megh
SOCK="unix:$SMOKE_DIR/megh.sock"
"$MEGH" serve --listen "$SOCK" --checkpoint "$SMOKE_DIR/cp.json" \
  --vms 8 --hosts 4 --checkpoint-every 0 &
SERVE_PID=$!
for i in $(seq 0 24); do
  "$MEGH" client --connect "$SOCK" --op observe --action "$i" --cost 0.1 >/dev/null
done
"$MEGH" client --connect "$SOCK" --op sync >/dev/null
"$MEGH" client --connect "$SOCK" --op checkpoint >/dev/null
for seed in $(seq 0 9); do
  "$MEGH" client --connect "$SOCK" --op decide --seed "$seed"
done > "$SMOKE_DIR/before.txt"
# Learning after the checkpoint must not survive the crash.
"$MEGH" client --connect "$SOCK" --op observe --action 3 --cost 0.9 >/dev/null
"$MEGH" client --connect "$SOCK" --op sync >/dev/null
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$MEGH" serve --listen "$SOCK" --checkpoint "$SMOKE_DIR/cp.json" \
  --vms 8 --hosts 4 --checkpoint-every 0 &
SERVE_PID=$!
for seed in $(seq 0 9); do
  "$MEGH" client --connect "$SOCK" --op decide --seed "$seed"
done > "$SMOKE_DIR/after.txt"
"$MEGH" client --connect "$SOCK" --op shutdown >/dev/null
wait "$SERVE_PID"
diff -u "$SMOKE_DIR/before.txt" "$SMOKE_DIR/after.txt"
echo "serve smoke: decisions identical across SIGKILL + restart"

echo "==> benchmark builds and smoke-runs against this tree ($(nproc) cores; exit status only)"
# PR acceptance runs BENCHMARK.json's command against the committed tree;
# this is the same build and the two daemon workloads, briefly, so an API
# the benchmark links to cannot be broken unnoticed. Timings printed here
# mean nothing; each run fails on its own correctness checks.
# benchmark/ is a separate package (own lockfile, path deps on crates/) and
# links to: MeghAgent::{new,checkpoint,decide,observe,name,theta_nnz,
# qtable_nnz}, MeghConfig, MeghCheckpoint {config, lspi, temperature,
# steps}, save_checkpoint / load_checkpoint, fnv1a64,
# BoltzmannPolicy::{with_temperature,sample,greedy},
# SparseLspi::{dim,update,clone}, DokMatrix::{zeros,add_outer_product,
# mul_sparse_vec_into,mul_sparse_vec_left_into,nnz}, SparseVec::{from_pairs,
# zeros}, run_streamed, SimOptions::default, DataCenterConfig, DataCenterView,
# MigrationRequest, Scheduler, StepFeedback,
# SimulationOutcome::{records,report,fingerprint}, PlanetLabConfig /
# PlanetLabSource / TraceHeader / TraceSource / STEPS_PER_DAY, and Server /
# Client / Listen / ServeOptions::new / ServeError / Request / Response.
# Each trains through run_streamed + MeghAgent, saves and loads a checkpoint
# and binds a Server; serve_cycle drives every wire op, and serve_decide
# checks that a repeated seed decides identically on one snapshot.
for workload in serve_cycle serve_decide; do
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seconds 1
done

echo "CI OK"
