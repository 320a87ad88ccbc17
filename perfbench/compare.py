#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

  spread: one checkout; per workload and end-to-end metric, the median and
          the quartile spread (Q3 - Q1) / median over the seeds.
  ab:     two checkouts (parent and change); runs alternate which side goes
          first, and each metric gets both medians, quartiles and the
          share of pairs the change won.

Each run is `<command> --workload W --seed N --seconds S --trace 0` from
BENCHMARK.json, started in the checkout's root with CARGO_TARGET_DIR set to
`.bench_build` there, exactly as a single run is made by hand.

  python3 perfbench/compare.py spread --workloads lab_ports --seeds 1 2 3 4 5
  python3 perfbench/compare.py ab --base ../parent --change . --seeds 1 2 3 4 5 6 7 8 9 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  ! {workload} seed {seed}: {result['failed']}/{result['attempted']} failed",
              file=sys.stderr)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def spread(args):
    spec = load_spec(args.checkout)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(args.checkout, spec, w, seed)
            runs.append(r["metrics"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        print(f"{w}: {len(runs)} seeds")
        for name, bound in bounds.items():
            med, q1, q3, rel = summary([r[name]["value"] for r in runs])
            flag = "ok" if rel < bound / 3 else ("within bound" if rel < bound else "OVER BOUND")
            print(f"  {name:<14} median {med:<14.6g} Q1 {q1:<14.6g} Q3 {q3:<14.6g} "
                  f"spread {rel:.4f} (bound {bound}) {flag}")


def ab(args):
    base_spec, change_spec = load_spec(args.base), load_spec(args.change)
    metrics = {m["name"]: m for m in base_spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in base_spec["workloads"]]
    for w in workloads:
        base, change = [], []
        for i, seed in enumerate(args.seeds):
            sides = [(args.base, base_spec, base), (args.change, change_spec, change)]
            if i % 2:
                sides.reverse()
            for checkout, spec, sink in sides:
                sink.append(run_once(checkout, spec, w, seed)["metrics"])
        print(f"{w}: {len(base)} pairs")
        for name, m in metrics.items():
            b = [r[name]["value"] for r in base]
            c = [r[name]["value"] for r in change]
            sign = -1 if m["better"] == "lower" else 1
            wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            bmed, bq1, bq3, _ = summary(b)
            cmed, cq1, cq3, _ = summary(c)
            print(f"  {name:<14} parent {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"change/parent {cmed / bmed:.4f}  change won {wins}/{len(b)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--checkout", default=".")
    s.add_argument("--workloads", nargs="*")
    s.add_argument("--seeds", nargs="+", type=int, required=True)
    s.set_defaults(func=spread)
    a = sub.add_parser("ab")
    a.add_argument("--base", required=True)
    a.add_argument("--change", required=True)
    a.add_argument("--workloads", nargs="*")
    a.add_argument("--seeds", nargs="+", type=int, required=True)
    a.set_defaults(func=ab)
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    args.func(args)


if __name__ == "__main__":
    main()
