#!/usr/bin/env bash
# The evidence behind ROADMAP.md's *Behaviour* rule: a change that claims
# to move no behaviour leaves three deterministic outputs byte-identical.
#
#   scripts/behaviour_hashes.sh [<ref>]
#
# Prints the sha256 of the working tree's
#   experiments  cargo run --release -p ftm-bench --bin experiments
#   ftm-verify   cargo run --release -p ftm-verify --bin ftm-verify -- --json
#   sweep        cargo run --release --example fault_injection_lab
#                (attack gallery + sweep JSON with its trace-fingerprints)
# and, given a ref, first the same three for that ref — exported with
# `git archive` into a temp dir and built there, so nothing is written to
# .git and nothing is left behind — then exits 1 unless the two sides are
# equal. ~2 min a side on a cold build.
set -euo pipefail

if [ "$#" -gt 1 ]; then
    echo "usage: $0 [<ref>]" >&2
    exit 2
fi
root="$(git rev-parse --show-toplevel)"

# sha_of <dir> <cargo run args…>: sha256 of the run's stdout, or FAILED.
sha_of() {
    local dir="$1" sum
    shift
    sum="$(cd "$dir" && cargo run --release --offline --quiet "$@" 2>/dev/null | sha256sum)" || {
        echo FAILED
        return
    }
    echo "${sum%% *}"
}

# hashes <dir>: one "<output> <sha256>" line per output.
hashes() {
    echo "experiments $(sha_of "$1" -p ftm-bench --bin experiments)"
    echo "ftm-verify  $(sha_of "$1" -p ftm-verify --bin ftm-verify -- --json)"
    echo "sweep       $(sha_of "$1" --example fault_injection_lab)"
}

if [ "$#" -eq 0 ]; then
    hashes "$root"
    exit 0
fi

git -C "$root" rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
    echo "$0: not a commit: $1" >&2
    exit 2
}
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$1" | tar -x -C "$tmp/ref"

echo "# $(git -C "$root" rev-parse --short "$1")"
hashes "$tmp/ref" | tee "$tmp/ref.txt"
echo "# working tree"
hashes "$root" | tee "$tmp/tree.txt"
if grep -q FAILED "$tmp/tree.txt" || ! cmp -s "$tmp/ref.txt" "$tmp/tree.txt"; then
    echo "DIFFERENT: behaviour moved against $1" >&2
    exit 1
fi
echo "# equal: all three outputs are byte-identical"
