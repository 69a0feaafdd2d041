#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads — the form every
# speed claim in this repo has to take (ROADMAP.md, *Measuring*: the host
# drifts 7–18 % within an hour, so never one side after the other).
#
#   scripts/bench_pairs.sh <parent-ref> <workload[,workload...]> [pairs=3] [probes]
#
# The parent is exported with `git archive` into a temp dir (nothing is
# written to .git, nothing is left behind); the change is the working
# tree the script is run from. Both are built once with --offline, then,
# workload by workload in the order given, run with the exact `command` of
# BENCHMARK.json plus
#   --workload <workload> --seed <pair> --seconds <run_seconds> --trace 0
# each from its own root, alternating which side goes first. Prints one
# block per workload: each pair's end-to-end metrics, CPU per command and
# failed/attempted (the metrics and counts from the run's JSON result line,
# the last line of stdout, at full precision — the table rounds to three
# decimals, and setup_s is under a millisecond on the simulator; CPU per
# command from the table), then per metric each side's median and
# quartiles, how many pairs the change won, and whether that meets the
# *Measuring* rule for claiming a gain: at least 9 of 10 pairs won (ties
# count for neither side) and the medians apart by more than the parent's
# own interquartile range. Then, for a change that claims no gain, one
# verdict per end-to-end metric of BENCHMARK.json against that metric's
# `bound`: `within bound` (the change median no worse than the parent
# median widened by the bound), `WORSE`, or `unresolved` when the parent's
# interquartile range is wider than the bound — unless every change run
# beats every parent run — and each side's failed/attempted summed over
# its runs. For a sim-* workload one `--trace 1 --seed 7` pass per side
# follows and the two `counts:` lines (messages, bytes, memo hits,
# convictions, trace fingerprint, …) are compared, so a behaviour change
# cannot hide behind a speed-up: `counts: identical`, or one `same` /
# `DIFFERS parent -> change` verdict per field (a change whose bytes move
# by design shows this way that messages, timers, stack tallies and
# convictions did not). A list of workloads makes "the claimed metric up,
# every other workload unmoved" one command, e.g.
#   scripts/bench_pairs.sh <parent> sim-ct-attack,sim-hr-k512,tcp-hr-open100 3
#
# `probes` is a comma-separated list of per-layer metric names, e.g.
#   crypto.sign_ns,crypto.verify_miss_ns,crypto.verify_hit_ns,core.byz_decide_us
# Given it, every pair also makes one `--trace 1` pass per side (same
# seed, same order as the pair's untraced runs) and the named metrics are
# printed as each side's median and range over the pairs: the
# parent -> change columns of DESIGN.md §12's tables.
#
# Reads benchmark/ and BENCHMARK.json; changes nothing in them. The tcp-*
# workloads need `ulimit -n 4096` or more (the benchmark checks).
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 <parent-ref> <workload[,workload...]> [pairs=3] [probe,probe,...]" >&2
    exit 2
fi
parent_ref="$1"
IFS=, read -r -a workloads <<<"$2"
pairs="${3:-3}"
probes="${4:-}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
git rev-parse --verify --quiet "${parent_ref}^{commit}" >/dev/null || {
    echo "$0: not a commit: $parent_ref" >&2
    exit 2
}

# The benchmark's own command line and run length, as the driver uses them.
mapfile -t cmd < <(python3 -c '
import json
for word in json.load(open("BENCHMARK.json"))["command"]:
    print(word)')
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
# "name:better:bound,…" for each end-to-end metric.
end_to_end="$(python3 -c '
import json
print(",".join("%s:%s:%s" % (m["name"], m["better"], m["bound"])
               for m in json.load(open("BENCHMARK.json"))["end_to_end"]))')"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_ref" | tar -x -C "$tmp/parent"

echo "# building parent ($(git rev-parse --short "$parent_ref")) and change (working tree)" >&2
for side in "$tmp/parent" "$root"; do
    (cd "$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml) >&2
done

# One run; prints "setup_s commit_p50_us throughput_cps cpu_us_per_cmd
# failed attempted", each "-" where the run printed none.
run_side() {
    local dir="$1" seed="$2" out
    out="$(cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null)" || true
    python3 -c '
import json
import sys

lines = sys.stdin.read().splitlines()
cpu = next((l.split()[1] for l in lines if l.split()[:1] == ["process.cpu_us_per_cmd"]), "-")
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    result = {}
metrics = result.get("metrics", {})
row = ["%.6g" % metrics[m]["value"] if m in metrics else "-"
       for m in ("setup_s", "commit_p50_us", "throughput_cps")]
print(*row, cpu, result.get("failed", "-"), result.get("attempted", "-"))
' <<<"$out"
}

# One traced pass; prints "<name> <value>" for each requested probe.
probe_side() {
    local dir="$1" seed="$2" out
    out="$(cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 1 2>/dev/null)" || true
    awk -v want="$probes" '
        BEGIN { split(want, names, ","); for (i in names) wanted[names[i]] = 1 }
        $1 in wanted { print $1, $2 }
    ' <<<"$out"
}

# One workload: its pairs, its summary block, its probes and, for a
# simulator workload, its counts verdict.
measure_workload() {
    : >"$tmp/probes.$workload"
    printf '%-4s %-6s %10s %14s %15s %15s %s\n' \
        pair side setup_s commit_p50_us throughput_cps cpu_us_per_cmd failed/attempted
    for pair in $(seq 1 "$pairs"); do
        # Odd pairs run the parent first, even pairs the change.
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then dir="$tmp/parent"; else dir="$root"; fi
            read -r setup p50 cps cpu failed attempted < <(run_side "$dir" "$pair")
            printf '%-4s %-6s %10s %14s %15s %15s %s/%s\n' \
                "$pair" "$side" "$setup" "$p50" "$cps" "$cpu" "$failed" "$attempted"
            echo "$pair $side $setup $p50 $cps $cpu $failed $attempted" >>"$tmp/rows.$workload"
        done
        if [ -n "$probes" ]; then
            for side in $order; do
                if [ "$side" = parent ]; then dir="$tmp/parent"; else dir="$root"; fi
                probe_side "$dir" "$pair" | sed "s/^/$side /" >>"$tmp/probes.$workload"
            done
        fi
    done

    # Per metric: each side's median and quartiles, the pairs the change won
    # (ties count for neither), and the gain rule.
    awk -v e2e="$end_to_end" '
        # Quantile p of one side of one column, linear between order statistics.
        function quantile(side, col, p,    n, i, v, k, t, pos, lo) {
            n = 0
            for (i = 1; i <= pairs; i++) v[++n] = val[i, side, col]
            for (i = 2; i <= n; i++) for (k = i; k > 1 && v[k - 1] > v[k]; k--) { t = v[k]; v[k] = v[k - 1]; v[k - 1] = t }
            pos = (n - 1) * p; lo = int(pos)
            return lo + 1 < n ? v[lo + 1] + (pos - lo) * (v[lo + 2] - v[lo + 1]) : v[n]
        }
        {
            for (c = 3; c <= 6; c++) val[$1, $2, c] = $c
            if ($1 > pairs) pairs = $1
            failed[$2] += $7; attempted[$2] += $8
        }
        END {
            name[3] = "setup_s"; name[4] = "commit_p50_us"; name[5] = "throughput_cps"; name[6] = "cpu_us_per_cmd"
            higher[5] = 1
            printf "\n%-16s %12s %25s %12s %25s %9s %8s %s\n", "metric", "parent med", "[q1, q3]", "change med", "[q1, q3]", "change", "wins", "gain rule"
            for (c = 3; c <= 6; c++) {
                wins = 0
                for (i = 1; i <= pairs; i++) {
                    a = val[i, "parent", c]; b = val[i, "change", c]
                    if (higher[c] ? b > a : b < a) wins++
                }
                p = quantile("parent", c, 0.5); q = quantile("change", c, 0.5)
                p1 = quantile("parent", c, 0.25); p3 = quantile("parent", c, 0.75)
                better = higher[c] ? q - p : p - q
                met = wins * 10 >= pairs * 9 && better > p3 - p1
                if (met) claimable = claimable " " name[c]
                printf "%-16s %12.6g %25s %12.6g %25s %+8.1f%% %8s %s\n", name[c], p, \
                    sprintf("[%.6g, %.6g]", p1, p3), q, \
                    sprintf("[%.6g, %.6g]", quantile("change", c, 0.25), quantile("change", c, 0.75)), \
                    p ? (q - p) / p * 100 : 0, wins " of " pairs, met ? "met" : "not met"
            }
            printf "\ngain rule (change wins >= 9/10 of the pairs and moves the median by more than the parent IQR): %s\n", \
                claimable ? "met by" claimable : "met by no metric"
            if (pairs < 10) printf "  (%d pairs: a claim needs 10)\n", pairs

            # The no-regression rule: the change median against the parent
            # median widened by the metric bound, unless the parent spreads
            # wider than the bound and the sides overlap.
            printf "\n%-16s %6s %s\n", "metric", "bound", "no-regression verdict"
            count = split(e2e, specs, ",")
            for (k = 1; k <= count; k++) {
                split(specs[k], spec, ":")
                c = 0
                for (m = 3; m <= 5; m++) if (name[m] == spec[1]) c = m
                if (!c) continue
                up = spec[2] == "higher"; bound = spec[3]
                p = quantile("parent", c, 0.5); q = quantile("change", c, 0.5)
                spread = quantile("parent", c, 0.75) - quantile("parent", c, 0.25)
                beats = 1
                for (i = 1; i <= pairs; i++) for (j = 1; j <= pairs; j++) {
                    a = val[j, "parent", c]; b = val[i, "change", c]
                    if (up ? b <= a : b >= a) beats = 0
                }
                if (spread > bound * p && !beats) verdict = "unresolved (parent IQR wider than the bound)"
                else if (up ? q >= p * (1 - bound) : q <= p * (1 + bound)) verdict = "within bound"
                else verdict = "WORSE"
                printf "%-16s %5g%% %s\n", spec[1], bound * 100, verdict
            }
            printf "failed/attempted: parent %d/%d, change %d/%d\n", \
                failed["parent"], attempted["parent"], failed["change"], attempted["change"]
        }
    ' "$tmp/rows.$workload"

    # Per requested probe: each side's median and range over the traced passes.
    if [ -n "$probes" ]; then
        awk -v want="$probes" '
            # "median (min-max)" of one side of one probe.
            function spread(side, name,    n, i, k, t, v) {
                n = count[side, name]
                if (!n) return "-"
                for (i = 1; i <= n; i++) v[i] = val[side, name, i]
                for (i = 2; i <= n; i++) for (k = i; k > 1 && v[k - 1] > v[k]; k--) { t = v[k]; v[k] = v[k - 1]; v[k - 1] = t }
                return sprintf("%.3f (%.3f-%.3f)", n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2, v[1], v[n])
            }
            { val[$1, $2, ++count[$1, $2]] = $3 }
            END {
                printf "\n%-32s %38s %38s %9s\n", "probe (--trace 1, one pass a pair)", "parent med (min-max)", "change med (min-max)", "change"
                n = split(want, names, ",")
                for (i = 1; i <= n; i++) {
                    p = spread("parent", names[i]); q = spread("change", names[i])
                    printf "%-32s %38s %38s %+8.1f%%\n", names[i], p, q, p + 0 ? (q - p) / p * 100 : 0
                }
            }
        ' "$tmp/probes.$workload"
    fi

    # A simulator workload repeats exactly per seed: the two sides' counts of
    # one traced pass must be the same line.
    case "$workload" in
    sim-*)
        for side in parent change; do
            if [ "$side" = parent ]; then dir="$tmp/parent"; else dir="$root"; fi
            (cd "$dir" && "${cmd[@]}" --workload "$workload" --seed 7 \
                --seconds "$seconds" --trace 1 2>/dev/null | grep '^counts:') >"$tmp/counts.$workload.$side" || true
        done
        if [ -s "$tmp/counts.$workload.parent" ] && cmp -s "$tmp/counts.$workload.parent" "$tmp/counts.$workload.change"; then
            echo "counts: identical"
        else
            # One verdict per top-level field of the two `Counts { … }` lines,
            # so a change whose bytes move by design can show that messages,
            # timers, stack tallies and convictions did not.
            python3 - "$tmp/counts.$workload.parent" "$tmp/counts.$workload.change" <<'EOF'
import re
import sys

def fields(path):
    """Top-level `name: value` pairs of one `counts: Counts { … }` line."""
    text = open(path).read().strip()
    body = re.sub(r"^counts:\s*\w+\s*\{\s*|\s*\}$", "", text)
    out, depth, start = {}, 0, 0
    for i, ch in enumerate(body + ","):
        if ch in "{[(":
            depth += 1
        elif ch in "}])":
            depth -= 1
        elif ch == "," and depth == 0:
            name, _, value = body[start:i].strip().partition(":")
            if name:
                out[name.strip()] = value.strip()
            start = i + 1
    return out

parent, change = fields(sys.argv[1]), fields(sys.argv[2])
if not parent or not change:
    print("counts: MISSING (a side printed no counts: line)")
    sys.exit(0)
print("counts: per field (parent -> change)")
for name in list(parent) + [n for n in change if n not in parent]:
    a, b = parent.get(name, "-"), change.get(name, "-")
    print(f"  {name:<12} {'same' if a == b else 'DIFFERS'}" + ("" if a == b else f"  {a} -> {b}"))
EOF
        fi
        ;;
    esac
}

for workload in "${workloads[@]}"; do
    printf '\n## %s\n' "$workload"
    measure_workload
done
