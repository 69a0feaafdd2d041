#!/usr/bin/env bash
# Line counts for a simplicity change, by one rule.
#
#   scripts/loc.sh [<ref>] <path>…
#
# Prints, per file and in total, the non-test lines (everything outside
# `#[cfg(test)]` items) and, of those, the lines left after dropping blank
# lines and `//` comment lines. A `#[cfg(test)]` item ends where the
# braces it opened close, or at its `,` / `;` if it opens none — the
# brace-depth rule of `crates/quorum/tests/discipline.rs::lines_where`.
#
# A <path> is a file, a directory (its `.rs` files, recursively) or a glob;
# quote globs so each side expands them itself. Given a <ref>, the same
# paths are first counted in that commit — exported with `git archive`
# into a temp dir, nothing written to .git — and each count is printed as
# before → after, `-` where a side has no such file.
set -euo pipefail

usage() {
    echo "usage: $0 [<ref>] <path>…" >&2
    exit 2
}
[ "$#" -ge 1 ] || usage
root="$(git rev-parse --show-toplevel)"

before=""
if [ ! -e "$root/$1" ] && git -C "$root" rev-parse --verify --quiet "$1^{commit}" >/dev/null; then
    [ "$#" -ge 2 ] || usage
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    git -C "$root" archive "$1" | tar -x -C "$tmp"
    before="$tmp"
    shift
fi

python3 - "$root" "$before" "$@" <<'EOF'
import glob, os, sys

root, before, patterns = sys.argv[1], sys.argv[2], sys.argv[3:]

def files(side):
    """Relative paths the patterns name under `side`."""
    out = set()
    for pat in patterns:
        for hit in glob.glob(os.path.join(side, pat), recursive=True):
            if os.path.isdir(hit):
                for d, _, names in os.walk(hit):
                    out.update(os.path.join(d, n) for n in names if n.endswith(".rs"))
            else:
                out.add(hit)
    return {os.path.relpath(f, side) for f in out}

def count(path):
    """(non-test lines, of which neither blank nor a `//` comment)."""
    non_test = code = 0
    test_item = None  # brace depth inside a #[cfg(test)] item
    with open(path, encoding="utf-8") as src:
        for line in src:
            text = line.split("//")[0]
            if text.strip() == "#[cfg(test)]":
                test_item = 0
            elif test_item is not None:
                depth = test_item + text.count("{") - text.count("}")
                ends = "}" in text or text.rstrip().endswith((",", ";"))
                test_item = depth if depth > 0 or not ends else None
            else:
                non_test += 1
                stripped = line.strip()
                code += bool(stripped) and not stripped.startswith("//")
    return non_test, code

sides = [before, root] if before else [root]
counts = [{f: count(os.path.join(s, f)) for f in files(s)} for s in sides]
names = sorted(set().union(*counts))
if not names:
    sys.exit("loc.sh: no file matches " + " ".join(patterns))

def cell(i):
    return lambda name: counts[i].get(name)

def show(values, k):
    return " → ".join("-" if v is None else str(v[k]) for v in values)

width = max(len(n) for n in names + ["total"])
print(f"{'file':<{width}}  {'non-test':>13}  {'code':>13}")
for name in names:
    values = [cell(i)(name) for i in range(len(sides))]
    print(f"{name:<{width}}  {show(values, 0):>13}  {show(values, 1):>13}")
totals = [tuple(map(sum, zip(*c.values()))) if c else (0, 0) for c in counts]
print(f"{'total':<{width}}  {show(totals, 0):>13}  {show(totals, 1):>13}")
EOF
