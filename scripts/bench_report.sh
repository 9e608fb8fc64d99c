#!/usr/bin/env bash
# Run benches with machine-readable output: every participating bench
# writes a BENCH_<name>.json snapshot (driver report + the process-global
# metrics registry) into $TELL_BENCH_JSON.
#
# Usage:
#   scripts/bench_report.sh            # default-size run into the repo root
#   scripts/bench_report.sh --smoke    # tiny run used by scripts/check.sh
#   TELL_BENCH_JSON=/tmp/x scripts/bench_report.sh   # custom output dir
#
# The default output dir is the repo root on purpose: the BENCH_*.json
# snapshots are committed, so every checked-in change carries the bench
# trajectory it produced.
set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="${TELL_BENCH_JSON:-.}"
mkdir -p "$out_dir"
# Absolutize: cargo runs benches with the package dir as cwd, so a
# relative path would land the snapshots in crates/bench/.
out_dir="$(cd "$out_dir" && pwd)"
export TELL_BENCH_JSON="$out_dir"

if [[ "${1:-}" == "--smoke" ]]; then
  # Small enough to ride along in scripts/check.sh.
  export TELL_BENCH_SCALE=tiny
  export TELL_BENCH_WH=2
  export TELL_BENCH_TXNS=20
  export TELL_BENCH_WORKERS=1
fi

cargo bench -q -p tell-bench --bench table2_mixes

# Durable-tier characterization: restart recovery time vs log size, with
# and without checkpoints.
cargo bench -q -p tell-bench --bench durable_recovery

# Real-wire server comparison: the epoll reactor vs the thread-per-
# connection baseline, in committed transactions per wall second at 4 and
# 64 concurrent connections (tiny scale shortens the measure window).
cargo bench -q -p tell-bench --bench rpc_reactor

# Telemetry poll overhead: full update transactions with a thread taking
# a registry snapshot and diffing it every 5 ms vs that thread idle,
# A-B-B-A paired blocks. Bounds the observability tier's hot-path cost at
# < 5 %, and reports one snapshot's µs and Response::Metrics frame bytes.
cargo bench -q -p tell-bench --bench telemetry_overhead

# Lock-contention probe: three workers commit updates against two commit
# managers, and the top contended locks are reported (the commit path's
# cm.state must lead with nonzero contention). Not scaled for --smoke.
cargo bench -q -p tell-bench --bench prof_overhead

# Simulation throughput snapshot: how many transactions the deterministic
# fault-schedule harness pushes through the full stack per virtual and
# per wall second, under the all-faults mix. Fixed seed: the virtual-side
# numbers are reproducible; wall-side numbers track host speed.
sim_secs=0.5
[[ "${1:-}" == "--smoke" ]] && sim_secs=0.1
cargo run -q --release --example tell_sim -- --seed 1 --seconds "$sim_secs" \
  --faults all --bench-json "$out_dir/BENCH_sim_throughput.json" > /dev/null

# Isolation-level matrix: the same seeded fault-free workload once per
# level, so the snapshot shows what each level costs — commits per wall
# second and the abort rate climb together as the level strengthens
# (serializable certifies the read set; rc never promotes a snapshot).
# Virtual-side numbers are reproducible for the seed.
iso_field() { sed -n "s/^ *\"$2\": \([0-9.]*\),\{0,1\}\$/\1/p" "$1"; }
iso_out="$out_dir/BENCH_isolation_matrix.json"
{
  printf '{\n  "bench": "isolation_matrix",\n  "seed": 1,\n  "faults": "none",\n'
  printf '  "virtual_secs": %s,\n  "levels": {\n' "$sim_secs"
  sep=''
  for level in rc nmsi si serializable; do
    tmp="$out_dir/.bench_iso_$level.json"
    cargo run -q --release --example tell_sim -- --seed 1 --seconds "$sim_secs" \
      --isolation "$level" --bench-json "$tmp" > /dev/null
    txns="$(iso_field "$tmp" txns)"
    commits="$(iso_field "$tmp" commits)"
    aborts="$(iso_field "$tmp" aborts)"
    cpv="$(iso_field "$tmp" commits_per_virtual_sec)"
    cpw="$(iso_field "$tmp" commits_per_wall_sec)"
    rate="$(awk -v a="$aborts" -v t="$txns" 'BEGIN { printf "%.3f", t ? a / t : 0 }')"
    printf '%s    "%s": { "txns": %s, "commits": %s, "aborts": %s, "abort_rate": %s, "commits_per_virtual_sec": %s, "commits_per_wall_sec": %s }' \
      "$sep" "$level" "$txns" "$commits" "$aborts" "$rate" "$cpv" "$cpw"
    sep=$',\n'
    rm -f "$tmp"
  done
  printf '\n  }\n}\n'
} > "$iso_out"

shopt -s nullglob
files=("$out_dir"/BENCH_*.json)
if (( ${#files[@]} == 0 )); then
  echo "error: no BENCH_*.json snapshots were written to $out_dir" >&2
  exit 1
fi
echo "snapshots:"
for f in "${files[@]}"; do
  echo "  $f ($(wc -c <"$f") bytes)"
done
