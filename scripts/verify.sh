#!/usr/bin/env sh
# Repo verification gate: the dynbc-lint static analysis, tier-1
# build+tests, the host-thread determinism regression at 1 and 4 threads,
# the racecheck tier, profiler, memsim, and serve smoke tests, and a
# clippy-clean / warnings-clean / rustdoc-warning-clean workspace.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== formatting gate (first-party crates; vendor/ is exempt) =="
cargo fmt --check \
    -p dynbc -p dynbc-bc -p dynbc-bench -p dynbc-graph \
    -p dynbc-gpusim -p dynbc-lint -p dynbc-serve \
    -p dynbc-telemetry

echo "== static analysis gate: dynbc-lint =="
# Cheap (tens of ms once built) and run before the expensive builds so
# contract violations fail fast. Covers ordered iteration in commit
# paths, wall-clock use in model code, raw DYNBC_* env literals, unsafe
# without SAFETY comments, un-slabbed float accumulation in kernels, and
# anonymous launches/buffers. See crates/lint and DESIGN.md §4i.
cargo run -q -p dynbc-lint

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
# --no-fail-fast: one failing test binary must not hide the results of
# the binaries after it; the step still fails if any test failed.
cargo test -q --no-fail-fast

echo "== workspace tests =="
cargo test --workspace -q --no-fail-fast

echo "== determinism regression: DYNBC_HOST_THREADS=1 =="
DYNBC_HOST_THREADS=1 cargo test -q --test determinism_host_threads

echo "== determinism regression: DYNBC_HOST_THREADS=4 =="
DYNBC_HOST_THREADS=4 cargo test -q --test determinism_host_threads

echo "== native backend determinism: DYNBC_BACKEND=native, 1 and 4 threads =="
DYNBC_BACKEND=native DYNBC_HOST_THREADS=1 cargo test -q --test determinism_host_threads
DYNBC_BACKEND=native DYNBC_HOST_THREADS=4 cargo test -q --test determinism_host_threads

echo "== backend equivalence: native (inline and fanned-out stages) bit-identical to the simulator =="
cargo test -q -p dynbc-bc --test native_equivalence

echo "== racecheck tier: checked execution of every BC kernel =="
DYNBC_RACECHECK=1 cargo test -q racecheck

echo "== profiler + telemetry smoke test: DYNBC_PROFILE=1 DYNBC_TELEMETRY=1 end-to-end =="
# Profile one short update stream through the engine and validate every
# sink carries the expected markers (per-kernel counters, trace events,
# Prometheus exposition, unified trace, per-update event log).
PROF_DIR="$(mktemp -d)"
DYNBC_PROFILE=1 DYNBC_TELEMETRY=1 \
    cargo run --release --example profile_trace -- "$PROF_DIR" > /dev/null
for marker in '"edges_scanned"' '"kernels"' '"batch::fused::node#0"' \
    '"cache"' '"l1_hits"' '"buffer_misses"'; do
    grep -q "$marker" "$PROF_DIR/profile_report.json" || {
        echo "profile_report.json missing $marker"; exit 1; }
done
# Prometheus exposition parses: every required family present with HELP
# and TYPE lines, histograms terminated by the +Inf bucket, and no
# family declared twice.
for family in dynbc_batches_total dynbc_ops_total dynbc_cases_total \
    dynbc_update_latency_model_seconds dynbc_update_latency_wall_seconds \
    dynbc_batch_size_ops dynbc_touched_fraction \
    dynbc_memsim_l1_requests_total dynbc_memsim_l2_requests_total \
    dynbc_memsim_evictions_total dynbc_memsim_l1_hit_ratio \
    dynbc_memsim_l2_hit_ratio; do
    grep -q "^# HELP $family " "$PROF_DIR/metrics.prom" || {
        echo "metrics.prom missing HELP for $family"; exit 1; }
    grep -q "^# TYPE $family " "$PROF_DIR/metrics.prom" || {
        echo "metrics.prom missing TYPE for $family"; exit 1; }
done
grep -q 'le="+Inf"' "$PROF_DIR/metrics.prom" || {
    echo "metrics.prom missing +Inf histogram bucket"; exit 1; }
DUP_FAMILIES="$(grep '^# TYPE' "$PROF_DIR/metrics.prom" | sort | uniq -d)"
[ -z "$DUP_FAMILIES" ] || {
    echo "metrics.prom declares families twice:"; echo "$DUP_FAMILIES"; exit 1; }
for marker in '"traceEvents"' '"displayTimeUnit"' '"host pipeline"' \
    '"cat": "pipeline"' '"cat": "block"' '"edge work"' '"edges_scanned"' \
    '"L1/L2 hit rate"' '"cat": "memsim"'; do
    grep -q "$marker" "$PROF_DIR/unified_trace.json" || {
        echo "unified_trace.json missing $marker"; exit 1; }
done
# The engine's kernel spans ride on the host pipeline track: the exec
# layer records one per launch it issues, beside the device's own
# launch events.
for kernel in 'batch::classify#0' 'batch::fused::node#0'; do
    grep -q "\"name\": \"$kernel\", \"cat\": \"pipeline\"" \
        "$PROF_DIR/unified_trace.json" || {
        echo "unified_trace.json missing the $kernel span on the host pipeline"; exit 1; }
done
grep -q '"event": "update"' "$PROF_DIR/events.jsonl" || {
    echo "events.jsonl missing update events"; exit 1; }
rm -rf "$PROF_DIR"

echo "== memsim tier: DYNBC_MEMSIM=1 observability-only contract =="
# The cache-hierarchy model must fill every report sink while changing
# no BC bit and no simulated second relative to a memsim-off run;
# tests/memsim.rs drives mixed streams through the GPU engine and
# checks exactly that, plus report bit-determinism across host-thread
# counts.
DYNBC_MEMSIM=1 cargo test -q --test memsim

echo "== interpreter golden counters: DYNBC_PROFILE=1 DYNBC_MEMSIM=1 =="
# With the profiler on, every lane access takes the per-warp segment set;
# with it off (the tier-1 run above), repeats stop at the previous-lane
# memo. Both paths must charge the pinned counters and simulated seconds.
DYNBC_PROFILE=1 DYNBC_MEMSIM=1 cargo test -q --test model_invariants \
    interpreter_counters_match_golden_values

echo "== interpreter golden counters: DYNBC_RACECHECK=1 =="
# Checked execution records every lane access, the uniform lanes of the
# init and commit sweeps included; it too must charge the pinned counters
# and simulated seconds.
DYNBC_RACECHECK=1 cargo test -q --test model_invariants \
    interpreter_counters_match_golden_values

echo "== interpreter golden counters: DYNBC_HOST_THREADS=1 =="
# One host worker runs every block of a launch on one segment table,
# where the default run fans blocks out over one table per worker; both
# must charge the pinned counters and simulated seconds.
DYNBC_HOST_THREADS=1 cargo test -q --test model_invariants \
    interpreter_counters_match_golden_values

echo "== golden counters and profile: DYNBC_BACKEND=native =="
# The golden tests pin the simulator backend themselves, so a native
# backend selected in the environment must leave every pin in place.
DYNBC_BACKEND=native cargo test -q --test model_invariants

echo "== profile golden report: DYNBC_HOST_THREADS=1 =="
# The golden stream's profile, with the profiler and the memsim cache
# model on, on one host worker: its total and the hash of its JSON
# report are pinned (the default run above fans blocks out).
DYNBC_HOST_THREADS=1 cargo test -q --test model_invariants \
    profile_report_matches_golden_values

echo "== gpu-sim instrument switches: DYNBC_MEMSIM=1 DYNBC_PROFILE=1 =="
# The simulator's own tests must pin every switch they depend on, so an
# instrumentation variable set in the environment cannot flip them.
DYNBC_MEMSIM=1 DYNBC_PROFILE=1 cargo test -q -p dynbc-gpusim

echo "== serve smoke test: shard ingest + top-k vs the CpuDynamicBc oracle =="
# One shard over the CPU engine, a short insertion stream with
# backpressure-aware submission, rank-change subscription, and a final
# bit-identity check of the served scores against a raw engine replay.
cargo run --release --example serve_topk | grep -q \
    'served scores match the CpuDynamicBc oracle bit for bit' || {
    echo "serve_topk smoke test failed its oracle check"; exit 1; }

echo "== warnings-clean workspace build =="
RUSTFLAGS="-D warnings" cargo build --workspace --all-targets

echo "== clippy-clean workspace =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc-warning-clean first-party crates =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p dynbc -p dynbc-bc -p dynbc-bench -p dynbc-graph \
    -p dynbc-gpusim -p dynbc-lint -p dynbc-serve \
    -p dynbc-telemetry

echo "verify.sh: all gates passed"
