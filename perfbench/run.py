"""posetlim benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; posetlim is imported from src/
(nothing is installed).  Workloads: nerve-ladder, spectral-session,
random-cli (see workloads.py and README.md).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced run, each with the unit BENCHMARK.json gives it.  Every
answer is checked; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the lines before it
give the same numbers for a reader.  Exits 1, printing
no result, when the checkout has no posetlim sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("nerve-ladder", "spectral-session", "random-cli")

WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env, timeout=WORKER_TIMEOUT_S):
    """Last stdout line of a child, parsed as JSON; subprocess.run kills
    and reaps the child on timeout."""
    try:
        proc = subprocess.run([sys.executable] + args, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:3]} ran longer than {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:3]} exited {proc.returncode}")
    return json.loads(lines[-1])


def with_units(values, declared):
    """{name: {value, unit}} for every metric BENCHMARK.json declares in
    one of its lists, in its order, with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def worker(args, env):
    """Run the worker; returns (its result, set-up seconds from spawn to
    the first timed query)."""
    argv = [WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.monotonic()
    out = run_child(argv, env)
    return out, out["ready"] - spawned


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "posetlim", "__init__.py")):
        print(f"perfbench: no posetlim sources under {SRC}", file=sys.stderr)
        return 1
    env = child_env()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        # where bytecode is written, this compiles it before any timing
        run_child(["-c", "import posetlim; print('{}')"], env, timeout=60)
        out, setup = worker(args, env)
        if args.trace:
            metrics = with_units(out["per_layer"], spec["per_layer"])
            print(f"trace written to {out['trace_file']}")
        else:
            lat, setups = out["latencies"], out["setups"] + [setup]
            imports = out["imports"] + [out["import_s"]]
            ok = out["attempted"] - out["failed"]
            metrics = with_units({
                "queries_per_s": ok / sum(lat),
                "latency_p50_ms": 1e3 * statistics.median(lat),
                "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
                "setup_s": statistics.median(setups),
                "import_s": statistics.median(imports),
                "peak_rss_mb": out["peak_rss_kb"] / 1024,
            }, spec["end_to_end"])
            print(f"{args.workload}: {len(lat)} timed queries in {out['rounds']} rounds, "
                  f"{len(setups)} set-ups")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for msg in out["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    failed_fraction = out["failed"] / out["attempted"]
    for name, m in metrics.items():
        print(f"{args.workload:17s} {name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:17s} {'failed_fraction':45s} {failed_fraction:14.6g} "
          f"({out['failed']}/{out['attempted']})")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
