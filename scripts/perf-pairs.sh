#!/usr/bin/env bash
# The interleaved-pairs protocol for comparing the working tree against a
# parent commit on `benchmark/`: the evidence a PR that claims (or denies)
# a host-cost change puts in CHANGES.md and results/perf_history.jsonl.
#
#   scripts/perf-pairs.sh <parent-rev> [--pairs N] [--dir DIR] [--check]
#                         [--claim METRIC:WORKLOAD]… [workload…]
#
# Two clean source trees are laid out under DIR (default
# target/perf-pairs): `parent` is `git archive <parent-rev>`, `change` is
# the working tree as it stands (tracked and untracked files, nothing
# ignored). Each side builds into its own benchmark/target, so neither
# measures the other's objects and the tracked benchmark/Cargo.lock is
# never rewritten in place. DIR is wiped first.
#
# Pair i of N (default 10) runs every workload (default: all BENCHMARK.json
# names) once on each side as
#   benchmark/run.sh --workload W --seed i --seconds 10 --trace 0
# with the parent first in odd pairs and the change first in even ones.
# One discarded run per side comes first: it builds the side and warms the
# page cache. Last, one `--trace 1 --seed 1` run of the change per workload
# supplies the exact per-layer proxies the history line carries.
#
# Output, per workload × end-to-end metric: both medians, their relative
# difference, the distance between the parent's quartiles, the pairs the
# change won and lost (ties count for neither), and a verdict: `DIFFERS`
# for an exact metric (`sim_ops_kps`, `ops_ok_frac`) that is not equal in
# every pair — a behaviour change; `WORSE` for a change median worse than
# the parent's by more than the metric's BENCHMARK.json bound;
# `unresolved` where the parent's own quartile distance is wider than that
# bound. Then the results/perf_history.jsonl line for the change.
#
# --check exits 1 on any `DIFFERS` or `WORSE`. Each --claim METRIC:WORKLOAD
# prints whether a gain there is met: the change won at least nine tenths
# of the pairs and the medians differ by more than the parent's quartile
# distance, in the better direction; the script exits 1 if a claim is not
# met.
set -euo pipefail
root="$(git rev-parse --show-toplevel)"
cd "$root"

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
  exit 2
}

parent="" pairs=10 dir="$root/target/perf-pairs" workloads=() check=0 claims=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
    --dir) dir="${2:?--dir needs a path}"; shift 2 ;;
    --check) check=1; shift ;;
    --claim) claims+=("${2:?--claim needs METRIC:WORKLOAD}"); shift 2 ;;
    -h | --help) usage ;;
    -*) echo "unknown option $1" >&2; usage ;;
    *) if [ -z "$parent" ]; then parent="$1"; else workloads+=("$1"); fi; shift ;;
  esac
done
[ -n "$parent" ] || usage
parent_sha="$(git rev-parse --verify "$parent^{commit}")"
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

rm -rf "$dir"
mkdir -p "$dir/parent" "$dir/change" "$dir/out"
dir="$(cd "$dir" && pwd)"
git archive "$parent_sha" | tar -x -C "$dir/parent"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [ -f "$f" ] && printf '%s\0' "$f"; done |
  tar --null -T - -cf - | tar -xf - -C "$dir/change"

# run <side> <workload> <seed> <trace>: the run's JSON result line
run() {
  CARGO_TARGET_DIR="$dir/$1/benchmark/target" bash "$dir/$1/benchmark/run.sh" \
    --workload "$2" --seed "$3" --seconds 10 --trace "$4" 2>> "$dir/out/$1.stderr" | tail -n 1
}

for side in parent change; do
  echo "building $side …" >&2
  run "$side" "${workloads[0]}" 1 0 > /dev/null
done
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for w in "${workloads[@]}"; do
    for side in $order; do
      run "$side" "$w" "$i" 0 > "$dir/out/$side.$w.$i.json"
    done
  done
  echo "pair $i/$pairs done" >&2
done
for w in "${workloads[@]}"; do
  run change "$w" 1 1 > "$dir/out/traced.$w.json"
done

claim_list="$(IFS=,; echo "${claims[*]}")"
python3 - "$dir/out" "$pairs" "${parent_sha:0:7}" "$check" "$claim_list" "${workloads[@]}" << 'EOF'
import datetime, json, re, statistics, sys

out, pairs, parent = sys.argv[1], int(sys.argv[2]), sys.argv[3]
check, claims, workloads = sys.argv[4] == "1", sys.argv[5], sys.argv[6:]
claims = [c.split(":", 1) for c in claims.split(",") if c]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
PROXIES = ["fabric.rpcs_per_op", "sim.tasks_per_op"]
EXACT = {"sim_ops_kps", "ops_ok_frac"}


def load(path):
    run = json.load(open(path))
    if not run["correct"]:
        sys.exit(f"{path}: the run reports incorrect output")
    return {name: m["value"] for name, m in run["metrics"].items()}


def quartile_distance(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


history, rows, failed = {}, {}, []  # failed: what fails --check or a claim
print(f"{'workload':<18} {'metric':<19} {'parent':>12} {'change':>12} {'delta':>8} "
      f"{'parent q3-q1':>13} {'won':>4} {'lost':>5}  verdict")
for w in workloads:
    runs = {side: [load(f"{out}/{side}.{w}.{i}.json") for i in range(1, pairs + 1)]
            for side in ("parent", "change")}
    history[w] = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        mp, mc, qd = statistics.median(p), statistics.median(c), quartile_distance(p)
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        worse = sign * (mp - mc) / mp if mp else 0.0
        if name in EXACT:
            verdict = "DIFFERS" if p != c else "exact"
        elif worse > m["bound"]:
            verdict = "WORSE"
        elif mp and qd / mp > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = ""
        if check and verdict in ("DIFFERS", "WORSE"):
            failed.append(f"{w} {name}: {verdict}")
        rows[(name, w)] = (sign * (mc - mp), qd, won)
        delta = f"{(mc - mp) / mp:+8.1%}" if mp else f"{'':>8}"
        print(f"{w:<18} {name:<19} {mp:>12.6g} {mc:>12.6g} {delta} "
              f"{qd:>13.3g} {won:>4} {lost:>5}  {verdict}")
        history[w][name] = float(f"{mc:.6g}")
    traced = load(f"{out}/traced.{w}.json")
    history[w].update({k: float(f"{traced[k]:.6g}") for k in PROXIES if k in traced})

for metric, w in claims:
    if (metric, w) not in rows:
        sys.exit(f"claim {metric}:{w}: no such workload × end-to-end metric")
    gain, qd, won = rows[(metric, w)]
    met = won * 10 >= pairs * 9 and gain > qd
    print(f"claim {metric} on {w}: {'met' if met else 'NOT MET'} "
          f"(won {won}/{pairs}, median gain {gain:.6g} vs parent q3-q1 {qd:.3g})")
    if not met:
        failed.append(f"claim {metric}:{w} not met")

try:
    issue = re.match(r"# ISSUE (\d+)", open("ISSUE.md").readline())
except OSError:
    issue = None
print()
print(json.dumps({
    "pr": int(issue.group(1)) if issue else None,
    "date": datetime.date.today().isoformat(),
    "protocol": f"scripts/perf-pairs.sh {parent} --pairs {pairs}: benchmark/run.sh --workload W "
                f"--seed 1..{pairs} --seconds 10 --trace 0, medians of {pairs} runs interleaved "
                f"pairwise with {parent}; {' and '.join(PROXIES)} from one --trace 1 run per "
                "workload (seed 1; exact)",
    "workloads": history,
}))
if failed:
    print("\n".join(["", "FAILED:"] + failed))
    sys.exit(1)
EOF
