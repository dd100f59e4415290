#!/usr/bin/env bash
# Build the stand-alone benchmark workspace offline, then run it.
#
#   benchmark/run.sh                    every workload, 3 repetitions each
#   benchmark/run.sh --trace            adds traced runs, ladder, probes, out/trace.json
#   benchmark/run.sh --selfcheck        runs everything twice and compares
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                       one run as the repo's benchmark driver makes it;
#                                       the last line of stdout is its JSON result
#
# Must be started from the repo root or any directory: paths are taken
# from this script's own location. Fails (non-zero, no result line) when
# the crates under ../crates are missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
# cargo's progress goes to stderr so stdout stays the report
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/daos-benchmark" --out "$here/out" "$@"
