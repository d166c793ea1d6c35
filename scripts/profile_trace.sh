#!/usr/bin/env sh
# Profile a dynamic-BC update stream and export a Chrome trace.
#
# Usage: scripts/profile_trace.sh [OUT_DIR]
#
# Writes OUT_DIR/profile_report.json (the structured per-kernel/per-stage
# counter report), OUT_DIR/unified_trace.json (Chrome trace-event format
# — open at https://ui.perfetto.dev or chrome://tracing: one process for
# the host update pipeline, one per device with its launches, block
# placement, futile-vs-useful edge and memsim L1/L2 hit-rate counter
# tracks),
# OUT_DIR/metrics.prom (Prometheus text exposition including the
# dynbc_memsim_* families), and OUT_DIR/events.jsonl (per-update event
# log). OUT_DIR defaults to the current directory.
set -eu

cd "$(dirname "$0")/.."
OUT_DIR="${1:-.}"
mkdir -p "$OUT_DIR"
cargo run --release --example profile_trace -- "$OUT_DIR"
