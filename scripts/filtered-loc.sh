#!/usr/bin/env bash
# Non-test, non-comment, non-blank Rust lines per crate: the count ROADMAP
# asks every PR to report in CHANGES.md.
#
#   scripts/filtered-loc.sh           the working tree
#   scripts/filtered-loc.sh <rev>     the working tree, <rev>, and the delta
#
# A file is counted up to its first `#[cfg(test)]` line; blank lines and
# lines that hold only a `//` comment are skipped (block comments are not
# recognised: the tree has none outside strings). Files under a `tests/`,
# `examples/` or `fixtures/` directory are not counted, nor is a module
# file named `tests.rs` (a `#[cfg(test)] mod tests;` kept beside its code). The vendored
# stand-ins (`vendor/*/src`) are one more row, `vendor`, under the same
# rule, printed after the total and not part of it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev="${1:-}"

# stdin: "<crate> <path>" per file; $1: the command that prints a file.
# stdout: "<crate> <lines>" per crate.
count() {
  local show="$1" crate path
  while read -r crate path; do
    $show "$path" | awk -v crate="$crate" '
      /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
      tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
      { n++ }
      END { print crate, n + 0 }'
  done | awk '{ sum[$1] += $2 } END { for (c in sum) print c, sum[c] }'
}

# stdin: paths; stdout: "<crate> <path>" for the Rust files that count
countable() {
  grep -E '^(crates/[^/]+|vendor/[^/]+/src)/.*\.rs$' | grep -Ev '/(tests|examples|fixtures)/|/tests\.rs$' |
    awk -F/ '{ print ($1 == "vendor" ? $1 : $2), $0 }'
}

show_rev() { git show "$rev:$1"; }

now="$(git ls-files --cached --others --exclude-standard -- crates vendor |
  while read -r f; do [ -f "$f" ] && echo "$f"; done | countable | count cat)"
if [ -z "$rev" ]; then
  echo "$now" | sort | awk '
    $1 == "vendor" { vendor = $2; next }
    { printf "%-16s %7d\n", $1, $2; total += $2 }
    END { printf "%-16s %7d\n%-16s %7d\n", "total", total, "vendor", vendor }'
  exit 0
fi
then="$(git ls-tree -r --name-only "$rev" -- crates vendor | countable | count show_rev)"
{ echo "$now" | sed 's/^/now /'; echo "$then" | sed 's/^/then /'; } | awk -v rev="$rev" '
  $1 == "now" { now[$2] = $3; seen[$2] = 1 }
  $1 == "then" { was[$2] = $3; seen[$2] = 1 }
  END {
    printf "%-16s %7s %7s %7s\n", "crate", rev, "now", "delta"
    for (c in seen) {
      if (c == "vendor") continue
      printf "%-16s %7d %7d %+7d\n", c, was[c], now[c], now[c] - was[c] | "sort"
      a += was[c]; b += now[c]
    }
    close("sort")
    printf "%-16s %7d %7d %+7d\n", "total", a, b, b - a
    c = "vendor"
    printf "%-16s %7d %7d %+7d\n", c, was[c], now[c], now[c] - was[c]
  }'
