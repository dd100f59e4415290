#!/usr/bin/env bash
# Every dependency a crate declares is one its code names.
#
#   scripts/unused-deps.sh [--manifest-path PATH]
#
# For every package of the workspace (default: the root one; PATH picks
# another, as cargo's flag does), each entry of `[dependencies]`,
# `[dev-dependencies]` and `[build-dependencies]` must appear, its `-` read
# as `_`, as a word in some `.rs` file under the package's `src/`,
# `tests/`, `benches/` or `examples/`, or under the directory of a target
# the manifest places elsewhere (the `tests` package's `../examples/`).
# Prints one line per declaration that appears nowhere and exits 1 if there
# is any; exits 0 otherwise.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

manifest=()
case "${1:-}" in
  --manifest-path) manifest=(--manifest-path "${2:?--manifest-path needs a file}") ;;
  "") ;;
  *) sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2; exit 2 ;;
esac

cargo metadata --offline --no-deps --format-version 1 "${manifest[@]}" | python3 -c '
import json, os, re, sys

meta = json.load(sys.stdin)
members = set(meta["workspace_members"])
unused = 0
for pkg in meta["packages"]:
    if pkg["id"] not in members:
        continue
    root = os.path.dirname(pkg["manifest_path"])
    dirs = {os.path.join(root, d) for d in ("src", "tests", "benches", "examples")}
    dirs |= {os.path.dirname(t["src_path"]) for t in pkg["targets"]}
    text = []
    for d in sorted(dirs):
        for base, _, files in os.walk(d):
            text += [open(os.path.join(base, f)).read() for f in files if f.endswith(".rs")]
    text = "\n".join(text)
    for dep in pkg["dependencies"]:
        name = (dep["rename"] or dep["name"]).replace("-", "_")
        if not re.search(r"\b%s\b" % re.escape(name), text):
            section = {None: "dependencies"}.get(dep["kind"], "%s-dependencies" % dep["kind"])
            print("%s: [%s] %s is never named" % (os.path.relpath(pkg["manifest_path"]), section, dep["name"]))
            unused += 1
sys.exit(1 if unused else 0)
'
