#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test command.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Remember whether the caller asked for the bench smoke step, then scrub
# the flag so the build/test steps run with normal harness behavior.
RUN_BENCH_SMOKE="${BENCH_SMOKE:-0}"
unset BENCH_SMOKE

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test -q --workspace

# Telemetry smoke: run the flagship example with the stderr heartbeat and
# the event log on, then check the log with mc-report (the std-only
# analysis CLI). The example runs thousands of explorations and every one
# appends its start, level, heartbeat and end events to the one log, so
# `validate` checks each exploration's sequence, `ledger` renders every
# finished run, `tail` reads the latest status and a self-diff must report
# no regression.
echo "==> telemetry smoke: MC_PROGRESS=1 + MC_LOG, impossibility_search"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
log="$smoke_dir/mc.jsonl"
MC_PROGRESS=1 MC_LOG="$log" \
  cargo run --release -q --example impossibility_search >"$smoke_dir/example.log"
report() { cargo run --release -q --bin mc-report -- "$@"; }
report validate "$log"
report ledger "$log" >/dev/null \
  || { echo "telemetry smoke: a finished run failed to render" >&2; exit 1; }
report tail "$log" \
  || { echo "telemetry smoke: tail found no status" >&2; exit 1; }
report diff "$log" "$log" >/dev/null \
  || { echo "telemetry smoke: self-diff of the event log reported regressions" >&2; exit 1; }
echo "telemetry smoke: OK (every exploration validated, ledger + tail rendered)"
# The example's closing demo runs an every-expansion heartbeat; its absence
# means the progress-callback path broke. (The MC_PROGRESS=1 stderr default
# fires every 100k expansions — these fixtures are far smaller, so stderr
# staying quiet is expected.)
grep -q 'heartbeat: level' "$smoke_dir/example.log" \
  || { echo "telemetry smoke: example emitted no heartbeat" >&2; exit 1; }

# Verdict-goal smoke: the hierarchy-table example ends with streaming
# verdict spot checks of the E1 claims (`grouped_consensus_check` explores
# under ExploreGoal::Verdict). Every VERDICT row must carry a decided
# yes/no answer — the early-exit path regressing to "undecided" (or the
# section disappearing) fails the gate.
echo "==> verdict smoke: hierarchy_table example (ExploreGoal::Verdict path)"
cargo run --release -q --example hierarchy_table >/tmp/mc_hierarchy.log
grep -c '^VERDICT ' /tmp/mc_hierarchy.log | grep -qx 4 \
  || { echo "verdict smoke: expected 4 VERDICT rows" >&2; exit 1; }
if grep '^VERDICT ' /tmp/mc_hierarchy.log | awk '{print $5}' | grep -qv -E '^(yes|no)$'; then
  echo "verdict smoke: a VERDICT row left the consensus question undecided" >&2
  exit 1
fi
echo "verdict smoke: OK (4 decided VERDICT rows)"

if [[ "$RUN_BENCH_SMOKE" == "1" ]]; then
  # Smoke-run the model-check bench (two untimed iterations per kernel, no
  # JSON write — see harness::smoke_mode), diffing its GUARD facts
  # against the committed BENCH_modelcheck.json, so bench bit-rot,
  # reduction regressions (graphs growing back) and per-config memory
  # regressions all fail the gate.
  # INTERNER_STATS=1 surfaces the hash-consing arena summaries, which the
  # guard's disk-store gate diffs either way.
  echo "==> bench guard (BENCH_SMOKE=1): e9_modelcheck vs BENCH_modelcheck.json"
  INTERNER_STATS=1 bash scripts/bench_guard.sh
fi

echo "OK"
