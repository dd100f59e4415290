#!/usr/bin/env bash
# The allocation ratchet: no benchmark workload may allocate more per op
# than the newest results/perf_history.jsonl line records for it, beyond
# the host_allocs_per_op bound in BENCHMARK.json.
#
#   scripts/alloc-ratchet.sh [--history FILE] [workload…]
#
# Each workload (default: all BENCHMARK.json names) runs once as
#   benchmark/run.sh --workload W --seed 1 --seconds 10 --trace 0
# and its host_allocs_per_op is compared with the newest history line
# that records W (FILE defaults to results/perf_history.jsonl). An
# allocation count does not depend on the host's speed, so one run is
# enough. Prints one row per workload; exits 1 if any count is above
# history × (1 + bound) or a run reports incorrect output, 2 on a usage
# or setup error. Each row also shows the run's host_peak_rss_mib, as a
# report only: peak RSS varies from run to run, so it gates nothing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
  exit 2
}

history="$root/results/perf_history.jsonl" workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --history) history="${2:?--history needs a file}"; shift 2 ;;
    -h | --help) usage ;;
    -*) echo "unknown option $1" >&2; usage ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ -f "$history" ] || { echo "no history file $history" >&2; exit 2; }
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
for w in "${workloads[@]}"; do
  if ! bash benchmark/run.sh --workload "$w" --seed 1 --seconds 10 --trace 0 \
      2>> "$out/stderr" | tail -n 1 > "$out/$w.json"; then
    cat "$out/stderr" >&2
    echo "benchmark run of $w failed" >&2
    exit 2
  fi
done

python3 - "$history" "$out" "${workloads[@]}" << 'EOF'
import json, sys

history, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
METRIC = "host_allocs_per_op"
bound = next(m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]
             if m["name"] == METRIC)
newest = {}
for line in open(history):
    if line.strip():
        for w, values in json.loads(line)["workloads"].items():
            if METRIC in values:
                newest[w] = values[METRIC]

failed = []
print(f"{'workload':<18} {'history':>10} {'limit':>10} {'now':>10} {'rss_mib':>8}  verdict")
for w in workloads:
    run = json.load(open(f"{out}/{w}.json"))
    if w not in newest:
        print(f"{history}: no {METRIC} recorded for {w}", file=sys.stderr)
        sys.exit(2)
    now, was = run["metrics"][METRIC]["value"], newest[w]
    rss = run["metrics"]["host_peak_rss_mib"]["value"]
    limit = was * (1 + bound)
    verdict = "ok"
    if not run["correct"]:
        verdict = "INCORRECT"
    elif now > limit:
        verdict = "ABOVE"
    if verdict != "ok":
        failed.append(f"{w}: {verdict}")
    print(f"{w:<18} {was:>10.6g} {limit:>10.6g} {now:>10.6g} {rss:>8.1f}  {verdict}")
if failed:
    print("\n".join(["", "FAILED:"] + failed))
    sys.exit(1)
EOF
