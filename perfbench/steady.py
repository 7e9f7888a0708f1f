"""Repeat the benchmark on one commit and report how steady it is.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
        [--first-seed 1] [--out FILE] [--compare FILE]

Runs perfbench/run.py --trace 0 for BENCHMARK.json's run_seconds, once
per seed (first-seed, first-seed+1, ...) for each workload, one run at a
time, and prints for every
end-to-end metric (and failed_fraction) its median, first and third
quartile (statistics.quantiles(values, n=4)) and spread = (q3 - q1) /
median.  A metric is flagged OVER when its spread exceeds its bound in
BENCHMARK.json, and 'wide' when it exceeds a third of the bound.  With
--compare, medians are also compared with an earlier --out file and a
metric whose median got worse by more than its bound is flagged WORSE.
With --runs 1 this is the one command that prints every end-to-end
metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["failed_fraction"] = result["failed"] / result["attempted"]
    return values


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = {}
    if args.compare:
        with open(args.compare) as fh:
            before = json.load(fh)
    report = {}
    flagged = 0
    for workload in args.workload or names:
        runs = [one_run(workload, args.first_seed + i, spec["run_seconds"])
                for i in range(args.runs)]
        report[workload] = {name: summary([r[name] for r in runs]) for name in runs[0]}
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, s in report[workload].items():
            m = metrics.get(name)
            bound = m["bound"] if m else None
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "OVER"
            elif bound is not None and s["spread"] > bound / 3:
                flag = "wide"
            old = before.get(workload, {}).get(name)
            if old and bound is not None:
                worse = (s["median"] - old["median"]) / old["median"]
                if m["better"] == "higher":
                    worse = -worse
                flag += f" vs before {worse:+.3f}" + (" WORSE" if worse > bound else "")
                flagged += worse > bound
            flagged += flag.startswith("OVER")
            unit = m["unit"] if m else ""
            print(f"  {name:16s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {bound if bound is not None else '':>6} {unit:5s} {flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
