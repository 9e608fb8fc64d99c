#!/usr/bin/env bash
# Repo-wide checks: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# Deterministic fault-schedule simulation smoke (crates/sim): four fixed
# seeds cover the fault-free, SN-churn, CM-restart and full-mix schedules
# (the last adds PN crashes mid-commit to the other two). The
# verdict line is bit-reproducible per seed, so a change in behavior —
# not just an SI violation — shows up as a diff here. A long nightly run
# (not gated; violations there open issues rather than block merges) is
#   cargo run --release --example tell_sim -- --seed "$(date +%s)" --seconds 30 --faults all
run_sim_smoke() {
  echo "==> sim smoke (tell_sim seeds 1/none 2/sn 3/cm 6/all)"
  cargo build -q --example tell_sim
  cargo run -q --example tell_sim -- --seed 1 --seconds 0.2 --faults none
  cargo run -q --example tell_sim -- --seed 2 --seconds 0.2 --faults sn
  cargo run -q --example tell_sim -- --seed 3 --seconds 0.2 --faults cm
  cargo run -q --example tell_sim -- --seed 6 --seconds 0.2 --faults all

  # Isolation matrix: three fixed seeds x four levels, each cell checked
  # against its own oracle plus every weaker one, and re-run to prove the
  # history JSON and stats are bit-reproducible (crates/sim/tests/
  # isolation_matrix.rs holds the seed list).
  echo "==> isolation matrix (3 seeds x 4 levels, per-level oracles, bit-reproducible)"
  cargo test -q -p tell-sim --test isolation_matrix
}

if [[ "${1:-}" == "--sim" ]]; then
  run_sim_smoke
  exit 0
fi

# Durable-tier gate (crates/durable + the seams it plugs into): the
# crash-recovery proptests at a reduced case count, the over-TCP
# kill/restart test, and one durable sim seed whose death budget exceeds
# rf-1 — a schedule only log recovery can survive.
run_durable_gate() {
  echo "==> durable gate (crash proptests, e2e restart, durable sim seed)"
  PROPTEST_CASES=8 cargo test -q -p tell-durable --test crash_proptests
  cargo test -q -p tell-rpc --test durable_restart
  cargo run -q --example tell_sim -- --seed 4 --seconds 0.2 --faults sn --durable
}

if [[ "${1:-}" == "--durable" ]]; then
  run_durable_gate
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q"
cargo test -q

echo "==> rpc e2e (reactor lifecycle, wire proptests, client/server suite, scan parity)"
# Named explicitly even though the workspace run above includes them: the
# reactor's failure-shape tests (shutdown under load, peers dying
# mid-frame, backpressure) are the gate for any transport change, and an
# explicit invocation keeps them from silently falling out of the suite.
# The range read is pinned on both sides of the wire: every scan form
# returns the same rows locally and remotely, and `srv_scan` matches a
# sorted-map model.
cargo test -q -p tell-rpc --test e2e --test reactor_e2e --test wire_proptests
cargo test -q -p tell-rpc --lib local_and_remote_scans_return_the_same_rows
cargo test -q -p tell-store --test proptests

echo "==> bench JSON smoke (scripts/bench_report.sh --smoke)"
scripts/bench_report.sh --smoke

echo "==> end-to-end benchmark smoke (tell_e2e --smoke)"
# The BENCHMARK.json build of the end-to-end benchmark: every workload
# boots a loopback SN + CM pair, runs briefly and must pass its
# correctness check (about two minutes). A non-zero exit fails the script.
cargo run --release --quiet --offline \
  --manifest-path crates/bench/src/bin/tell_e2e/Cargo.toml -- --smoke

echo "==> wire batching gate (tell_e2e --workload batch_read --trace 1, 2 s)"
# A warm indexed read sends its leaf read and the record read the cached
# leaf predicts as one batched frame, so batch_read must coalesce ops on
# the wire and stay well under the 41 frames per commit of two serial
# calls per lookup. A change that silently un-batches it fails here.
batch_read_json="$(cargo run --release --quiet --offline \
  --manifest-path crates/bench/src/bin/tell_e2e/Cargo.toml -- \
  --workload batch_read --seed 1 --seconds 2 --trace 1 | tail -n 1)"
python3 - "$batch_read_json" <<'EOF'
import json, sys

metrics = json.loads(sys.argv[1])["metrics"]
ops_per_frame = metrics["rpc.batch_ops_per_frame"]["value"]
frames = metrics["rpc.frames_per_commit"]["value"]
print(f"batch_read: rpc.batch_ops_per_frame {ops_per_frame:.2f}, rpc.frames_per_commit {frames:.1f}")
if not (ops_per_frame > 0 and frames <= 30):
    sys.exit("error: batch_read needs rpc.batch_ops_per_frame > 0 and rpc.frames_per_commit <= 30")
EOF

echo "==> lone commit manager gate (tell_e2e --workload point_rw --trace 1, 2 s)"
# The benchmark runs one commit manager. Nobody reads a lone manager's
# state, so it keeps it in memory: its starts and completions send no
# frame to storage, and a commit costs the PN's own frames only (7.0;
# publishing every completion and syncing on a cadence read 8.4).
point_rw_json="$(cargo run --release --quiet --offline \
  --manifest-path crates/bench/src/bin/tell_e2e/Cargo.toml -- \
  --workload point_rw --seed 1 --seconds 2 --trace 1 | tail -n 1)"
python3 - "$point_rw_json" <<'EOF'
import json, sys

metrics = json.loads(sys.argv[1])["metrics"]
publish = metrics["commitmgr.publish_call_us"]["value"]
frames = metrics["rpc.frames_per_commit"]["value"]
print(f"point_rw: commitmgr.publish_call_us {publish:.1f}, rpc.frames_per_commit {frames:.2f}")
if not (publish == 0 and frames <= 7.2):
    sys.exit("error: point_rw needs commitmgr.publish_call_us = 0 and rpc.frames_per_commit <= 7.2")
EOF

echo "==> trace smoke (tell_top trace against a loopback cluster)"
# The tool validates the emitted Chrome trace-event JSON and exits
# nonzero when it is malformed or no trace was assembled. The run is one
# insert plus 4 updates: 5 transactions. A 1 us slow-op budget keeps every
# one's trace; a budget none reaches keeps only the tick-sampled ones, so
# arming the budget must not retain every fast trace.
trace_roots() { # slow-op budget in us
  TELL_SLOW_OP_US="$1" cargo run -q --example tell_top -- trace --loopback --txns 4 |
    { grep -o '"name":"txn"' || true; } | wc -l
}
slow_roots="$(trace_roots 1)"
fast_roots="$(trace_roots 1000000000)"
echo "trace smoke: $slow_roots root txn spans kept over a 1 us budget, $fast_roots over 1000 s"
if [[ "$slow_roots" -ne 5 || "$fast_roots" -ge "$slow_roots" ]]; then
  echo "error: want 5 roots kept over budget and fewer under it" >&2
  exit 1
fi

echo "==> metrics smoke (tell_top metrics against a loopback cluster)"
# One Request::Metrics scrape, parsed and rendered as Prometheus text.
metrics_text="$(cargo run -q --example tell_top -- metrics --loopback)"
if [[ "$metrics_text" != *'tell_txn_committed_total'* ]]; then
  echo "error: tell_top metrics --loopback rendered no transaction counters:" >&2
  echo "$metrics_text" >&2
  exit 1
fi

echo "==> telemetry smoke (tell_top watch --json against a loopback cluster)"
# One collector poll over Request::Telemetry against an in-process SN+CM
# pair: both nodes must answer and the snapshot must carry ring points.
top_json="$(cargo run -q --example tell_top -- watch --loopback --json)"
if [[ "$top_json" != *'"reachable":true'* || "$top_json" != *'"polls":1'* ]]; then
  echo "error: tell_top watch --loopback --json returned an unhealthy snapshot:" >&2
  echo "$top_json" >&2
  exit 1
fi

echo "==> flame smoke (tell_top flame --loopback over the wire)"
# Boot a loopback cluster, collect its spans over Request::Spans for a
# one-second window, and require a non-empty folded flame graph that saw
# the transaction path and the server's dispatches.
flame_folded="$(cargo run -q --example tell_top -- flame --loopback 2>/dev/null)"
if [[ "$flame_folded" != *'txn'* || "$flame_folded" != *'rpc.dispatch'* ]]; then
  echo "error: tell_top flame --loopback produced no transaction/dispatch stacks:" >&2
  echo "$flame_folded" >&2
  exit 1
fi
# The speedscope rendering of the same kind of window: the tool validates
# the JSON before printing it, and it must name the dispatch frame.
flame_json="$(cargo run -q --example tell_top -- flame --loopback --json 2>/dev/null)"
if [[ "$flame_json" != *'"exporter":"tell_flame"'* || "$flame_json" != *'rpc.dispatch'* ]]; then
  echo "error: tell_top flame --loopback --json produced no speedscope profile:" >&2
  echo "$flame_json" >&2
  exit 1
fi

echo "==> sim flame replay (folded output matches the committed golden, seed 5)"
# The verdict line and the span fold on the virtual clock are a pure
# function of the seed, so a diff against the file earlier builds produced
# catches any change in which spans the probes record or where the sim
# charges time.
golden=crates/sim/golden/tell_sim_seed5_profile.txt
if ! diff -u "$golden" \
  <(cargo run -q --example tell_sim -- --seed 5 --seconds 0.1 --flame); then
  echo "error: sim flame replay diverged from $golden" >&2
  exit 1
fi

run_sim_smoke

run_durable_gate

echo "All checks passed."
