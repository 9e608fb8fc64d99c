#!/usr/bin/env bash
# Paired A/B of the end-to-end benchmark: a parent revision against the
# working tree, the method crates/bench/src/bin/tell_e2e/README.md
# prescribes for stating a claim.
#
# Usage:
#   scripts/ab.sh <parent-rev> <name> [workload...]
#
# The parent is extracted (git archive) under .bench_build/<sha>/ and built
# there; the change is this working tree. For each workload (default: every
# workload in BENCHMARK.json) it runs BENCHMARK.json's command for 10 pairs
# with seeds 1-10 at BENCHMARK.json's run_seconds, one run per side per
# pair, alternating which side goes first. Pair count and seeds are fixed.
#
# Writes BENCH_ab_<name>.json at the repository root: per workload and
# end-to-end metric, each side's median/Q1/Q3 and raw values, the pairs the
# change won, the relative change of the medians, the parent's spread
# (IQR / median), a verdict against the metric's bound — `worse`,
# `unresolved` (the parent's spread exceeds the bound) or `ok` — and
# `claim_met`, the benchmark README's rule for a claimed gain: the change
# wins at least 9 of the 10 pairs and its median is better than the
# parent's by more than the parent's interquartile range; per workload,
# each side's failed and attempted counts, and the retry tail: per run,
# tell_e2e's `max_attempts` note (how close the unluckiest transaction came
# to the retry limit), its exit code, and the first `transaction failed
# after K attempts` line of its stderr, if any. Raw run output stays in
# .bench_build/ab-<name>/. Needs python3 for the JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
  echo "usage: scripts/ab.sh <parent-rev> <name> [workload...]" >&2
  exit 2
fi
parent_rev="$1"
name="$2"
shift 2

sha="$(git rev-parse --verify "${parent_rev}^{commit}")"
parent_dir=".bench_build/$sha"
if [[ ! -d "$parent_dir" ]]; then
  mkdir -p "$parent_dir.partial"
  git archive "$sha" | tar -x -C "$parent_dir.partial"
  mv "$parent_dir.partial" "$parent_dir"
fi
runs_dir=".bench_build/ab-$name"
rm -rf "$runs_dir"
mkdir -p "$runs_dir"

read_manifest() {
  python3 -c 'import json, sys; m = json.load(open("BENCHMARK.json")); exec(sys.argv[1])' "$1"
}
mapfile -t cmd < <(read_manifest 'print("\n".join(m["command"]))')
run_seconds="$(read_manifest 'print(m["run_seconds"])')"
if [[ $# -eq 0 ]]; then
  mapfile -t workloads < <(read_manifest 'print("\n".join(w["name"] for w in m["workloads"]))')
else
  workloads=("$@")
fi

# Build both sides before timing anything. `cargo run` in the command then
# only checks freshness.
manifest_path=""
for ((i = 0; i < ${#cmd[@]}; i++)); do
  [[ "${cmd[$i]}" == "--manifest-path" ]] && manifest_path="${cmd[$((i + 1))]}"
done
for dir in "$parent_dir" .; do
  echo "==> building $dir"
  (cd "$dir" && cargo build --release --quiet --offline --manifest-path "$manifest_path")
done

run_one() { # side dir workload seed
  local out="$runs_dir/$3.$1.seed$4"
  echo "==> $3 seed $4: $1"
  # A failed correctness check exits non-zero; the result line still says
  # why, so record it and carry on.
  local rc=0
  (cd "$2" && "${cmd[@]}" --workload "$3" --seed "$4" --seconds "$run_seconds" --trace 0) \
    >"$out.out" 2>"$out.err" || rc=$?
  echo "$rc" >"$out.exit"
  if ((rc != 0)); then echo "    (exit $rc)"; fi
}

for w in "${workloads[@]}"; do
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    if ((seed % 2)); then
      run_one parent "$parent_dir" "$w" "$seed"
      run_one change . "$w" "$seed"
    else
      run_one change . "$w" "$seed"
      run_one parent "$parent_dir" "$w" "$seed"
    fi
  done
done

python3 - "$name" "$sha" "$(git describe --always --dirty)" "$runs_dir" "${workloads[@]}" <<'EOF'
import json, sys

name, parent, change, runs_dir, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
manifest = json.load(open("BENCHMARK.json"))
seeds = list(range(1, 11))


def result(side, workload, seed):
    """The run's last stdout line (its JSON result), or None."""
    try:
        lines = open(f"{runs_dir}/{workload}.{side}.seed{seed}.out").read().split("\n")
        return json.loads([l for l in lines if l.strip()][-1])
    except (OSError, IndexError, ValueError):
        return None


def retry_tail(side, workload, seed):
    """The run's max_attempts note, exit code and first give-up line."""
    base = f"{runs_dir}/{workload}.{side}.seed{seed}"
    tail = {"max_attempts": None, "exit_code": None, "failure": None}
    try:
        for line in open(f"{base}.out"):
            parts = line.split()
            if len(parts) >= 2 and parts[0] == "max_attempts":
                tail["max_attempts"] = float(parts[1])
        tail["exit_code"] = int(open(f"{base}.exit").read())
        for line in open(f"{base}.err"):
            if "transaction failed after" in line:
                tail["failure"] = line.strip()
                break
    except (OSError, ValueError):
        pass
    return tail


def quantile(sorted_values, q):
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def stats(values):
    present = sorted(v for v in values if v is not None)
    if not present:
        return {"median": None, "q1": None, "q3": None, "values": values}
    return {
        "median": quantile(present, 0.5),
        "q1": quantile(present, 0.25),
        "q3": quantile(present, 0.75),
        "values": values,
    }


out = {
    "bench": "ab",
    "name": name,
    "parent": parent,
    "change": change,
    "pairs": len(seeds),
    "seeds": seeds,
    "run_seconds": manifest["run_seconds"],
    "workloads": {},
}
for w in workloads:
    runs = {side: [result(side, w, s) for s in seeds] for side in ("parent", "change")}
    entry = {"failed": {}, "attempted": {}, "failed_share": {}, "retry_tail": {}, "metrics": {}}
    for side, results in runs.items():
        tails = [retry_tail(side, w, s) for s in seeds]
        entry["retry_tail"][side] = {
            key: [t[key] for t in tails] for key in ("max_attempts", "exit_code", "failure")
        }
        failed = [r["failed"] if r else None for r in results]
        attempted = [r["attempted"] if r else None for r in results]
        entry["failed"][side] = failed
        entry["attempted"][side] = attempted
        total = sum(a for a in attempted if a)
        entry["failed_share"][side] = sum(f for f in failed if f) / total if total else None
    for metric in manifest["end_to_end"]:
        m, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        values = {
            side: [(r or {}).get("metrics", {}).get(m, {}).get("value") for r in results]
            for side, results in runs.items()
        }
        wins = sum(
            1
            for p, c in zip(values["parent"], values["change"])
            if p is not None and c is not None and (c > p if higher else c < p)
        )
        ps, cs = stats(values["parent"]), stats(values["change"])
        row = {"better": metric["better"], "bound": bound, "parent": ps, "change": cs,
               "change_wins": wins, "delta": None, "spread": None, "verdict": "unresolved",
               "claim_met": False}
        if ps["median"] and cs["median"] is not None:
            # Positive delta: the change is better.
            delta = (cs["median"] - ps["median"]) / ps["median"] * (1 if higher else -1)
            spread = (ps["q3"] - ps["q1"]) / ps["median"]
            row["delta"], row["spread"] = delta, spread
            # The claim rule: nine tenths of the pairs won, and the medians
            # apart by more than the parent's own interquartile range.
            gain = (cs["median"] - ps["median"]) * (1 if higher else -1)
            row["claim_met"] = wins >= 9 and gain > ps["q3"] - ps["q1"]
            p_runs = [v for v in values["parent"] if v is not None]
            c_runs = [v for v in values["change"] if v is not None]
            # A spread wider than the bound cannot tell, unless every run of
            # the change beats every run of the parent.
            all_better = (min(c_runs) > max(p_runs)) if higher else (max(c_runs) < min(p_runs))
            if spread > bound and not all_better:
                row["verdict"] = "unresolved"
            else:
                row["verdict"] = "worse" if -delta > bound else "ok"
        entry["metrics"][m] = row
    out["workloads"][w] = entry

path = f"BENCH_ab_{name}.json"
with open(path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {path}")
for w, entry in out["workloads"].items():
    for m, row in entry["metrics"].items():
        d = "n/a" if row["delta"] is None else f"{row['delta']:+.3f}"
        claim = "claim met" if row["claim_met"] else "claim not met"
        print(f"{w:18} {m:18} wins {row['change_wins']:2}/10  delta {d:>7}  "
              f"{row['verdict']:10} {claim}")
    print(f"{w:18} failed_share parent {entry['failed_share']['parent']} "
          f"change {entry['failed_share']['change']}")
    for side, tail in entry["retry_tail"].items():
        attempts = [a for a in tail["max_attempts"] if a is not None]
        exits = [c for c in tail["exit_code"] if c not in (None, 0)]
        print(f"{w:18} {side:6} max_attempts {max(attempts) if attempts else None}  "
              f"non-zero exits {exits or 'none'}")
        for failure in filter(None, tail["failure"]):
            print(f"{w:18} {side:6} {failure}")
EOF
