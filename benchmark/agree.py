#!/usr/bin/env python3
"""Repeatability check for the repo benchmark.

Runs the command of BENCHMARK.json `--runs` times per workload, each time
with another seed, `--sets` times over, the way the benchmark's driver
does. Per end-to-end metric and workload it prints every set's median and
inter-quartile spread (as a share of the median), the difference between
the sets' medians, and the metric's bound. Exit code 1 if a spread (other
than `setup_s`, whose spread is exempt) or a difference exceeds its bound,
or if any run failed a check.

    python3 benchmark/agree.py                      # 2 sets x 10 runs, all workloads
    python3 benchmark/agree.py --sets 1 --runs 5 --workload tcp-hr-open100

Run it from the repository root, on an otherwise idle machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}, took


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    print(f"nproc {os.cpu_count()}  loadavg {os.getloadavg()[0]:.2f}  run_seconds {seconds}  "
          f"sets {args.sets}  runs {args.runs}  seeds from {args.seed_base}")

    # values[workload][set] = list of {metric: value}
    values = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.seed_base
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                seed += 1
                got, took = run_once(bench["command"], w, seed, seconds)
                values[w][s].append(got)
                print(f"  set {s + 1} {w} seed {seed}: {took:.1f} s  " +
                      "  ".join(f"{k}={v:.5g}" for k, v in got.items()), flush=True)

    ok = True
    print(f"\n{'workload':<22} {'metric':<15} {'bound':>6}  " +
          "  ".join(f"{'median' + str(s + 1):>12} {'iqr%':>6}" for s in range(args.sets)) +
          f"  {'worse%':>7}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians, cells = [], []
            for s in range(args.sets):
                xs = [r[name] for r in values[w][s]]
                med = statistics.median(xs)
                q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    ok, flag = False, "!"
                cells.append(f"{med:>12.5g} {100 * spread:>5.1f}{flag or ' '}")
            # How much worse the last set's median is than the first's.
            worse = 0.0
            if args.sets > 1:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (medians[-1] - medians[0]) / medians[0]
            flag = ""
            if worse > bound:
                ok, flag = False, "!"
            print(f"{w:<22} {name:<15} {100 * bound:>5.0f}%  " + "  ".join(cells) +
                  f"  {100 * worse:>6.1f}{flag}")
    print("\nagree" if ok else "\nDISAGREE: a spread or a set-to-set difference exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
