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

echo "==> rustdoc -D warnings (the ten megh crates: dangling or private intra-doc links)"
# Not --workspace: that also documents the vendored proptest, whose `[vec]`
# links are ambiguous.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p megh -p megh-linalg -p megh-trace \
  -p megh-sim -p megh-core -p megh-serve -p megh-baselines -p megh-flags -p megh-cli \
  -p megh-bench

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> two-level cost guard (Table 2 fleet, 4 seeds, $(nproc) cores): hier <= 1.25 x flat"
# The sweep prints one `total cost <mean> ± <sd> USD …` line per scheduler,
# in --schedulers order. Expected 19562.96 (megh) and 17984.70 (hier); the
# score coordinator this guard keeps out cost ~39 000.
target/release/megh sweep --hosts 800 --vms 1052 --days 30 --schedulers megh,hier \
  --seeds 4 --seed 1 | awk '
  /^total cost/ { mean[n++] = $3 }
  END {
    if (n != 2) { print "cost guard: expected 2 total-cost lines, got " n; exit 1 }
    printf "flat %.2f USD, hier %.2f USD\n", mean[0], mean[1]
    if (mean[1] > 1.25 * mean[0]) { print "cost guard: hier exceeds 1.25 x flat"; exit 1 }
  }'

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --workspace --features check-invariants"
cargo test --workspace --features check-invariants -q

echo "==> sweep determinism under check-invariants"
filtered_test -q -p megh-cli --features megh-core/check-invariants sweep_determinism

echo "==> streamed runs equal in-memory runs (engine chunk sizes; CLI vs library; file errors)"
filtered_test -q -p megh-sim streaming_
filtered_test -q -p megh-cli stream_

echo "==> simulate peak-RSS budget (500 VMs x 30 days, noop, budget <32768 kB)"
RSS_LINE=$(target/release/megh simulate --workload planetlab --hosts 250 --vms 500 \
  --days 30 --scheduler noop --mem-stats | tail -n 1)
echo "$RSS_LINE"
RSS_KB=$(echo "$RSS_LINE" | awk '/^peak RSS/ {print $3}')
if ! [ "${RSS_KB:-99999999}" -lt 32768 ] 2>/dev/null; then
  echo "simulate RSS budget exceeded: ${RSS_KB:-unparsable} kB (budget: <32768 kB)" >&2
  exit 1
fi

echo "==> simulate --file peak-RSS budget (500 VMs x 30 days CSV, noop, budget <32768 kB)"
TRACE_DIR="$(mktemp -d)"
target/release/megh trace-gen --workload planetlab --vms 500 --days 30 --seed 11 \
  --out "$TRACE_DIR/trace.csv" >/dev/null
RSS_LINE=$(target/release/megh simulate --file "$TRACE_DIR/trace.csv" --hosts 250 \
  --scheduler noop --mem-stats | tail -n 1)
rm -rf "$TRACE_DIR"
echo "$RSS_LINE"
RSS_KB=$(echo "$RSS_LINE" | awk '/^peak RSS/ {print $3}')
if ! [ "${RSS_KB:-99999999}" -lt 32768 ] 2>/dev/null; then
  echo "simulate --file RSS budget exceeded: ${RSS_KB:-unparsable} kB (budget: <32768 kB)" >&2
  exit 1
fi

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
# this is the same build and one short workload, so an API the benchmark
# links to cannot be broken unnoticed. Timings printed here mean nothing.
# benchmark/ is a separate package (own lockfile, path deps on crates/) and
# links to: MeghAgent::{new,checkpoint,theta_nnz,qtable_nnz}, MeghConfig,
# MeghCheckpoint {config, lspi, temperature, steps}, save_checkpoint /
# load_checkpoint, fnv1a64, BoltzmannPolicy::{with_temperature,sample,greedy},
# SparseLspi::{dim,update,clone}, DokMatrix::{zeros,add_outer_product,
# mul_sparse_vec_into,mul_sparse_vec_left_into,nnz}, SparseVec::{from_pairs,
# zeros}, run_streamed, SimOptions::default, DataCenterConfig, DataCenterView,
# Scheduler, StepFeedback, SimulationOutcome::{records,report,fingerprint},
# PlanetLabConfig / PlanetLabSource / TraceHeader / TraceSource /
# STEPS_PER_DAY, and Server / Client / Listen / ServeOptions::new /
# ServeError / Request / Response. serve_cycle trains through run_streamed +
# MeghAgent, saves and loads a checkpoint, binds a Server and drives every
# wire op.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
  run --workload serve_cycle --seconds 1

echo "CI OK"
