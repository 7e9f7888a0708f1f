"""One workload in a fresh interpreter: set up, then a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only]

One client, one thread: the next query starts only when the previous
one has returned.  Whole rounds run until --seconds of rounds have
passed and at least MIN_QUERIES queries were timed, so that p90 has ten
samples beyond it.  Every --seconds / SETUP_SAMPLES of that time, between
two sessions and outside the timed seconds, a fresh --setup-only worker
times this worker's own set-up: CPU speed on shared virtual machines can
shift for seconds at a time, and samples spread over the whole run see
the same mix of states as the queries do.  Each worker, --setup-only
ones included, also times its own `import posetlim`.  With --trace 1,
untraced and traced rounds alternate, and the per-layer metrics come
from the traced ones.

The last line of stdout is one JSON object.  'ready' is
time.monotonic() at the moment the first timed query could start; the
caller subtracts its own spawn time to get the set-up time.  Needs
posetlim importable (run.py puts src on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from time import perf_counter

# every CLI invocation pays for this import; timed here, in each fresh
# worker, as import_s
_import_started = perf_counter()
import posetlim  # noqa: E402,F401
IMPORT_S = perf_counter() - _import_started

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.dirname(HERE), ".perfbench")
MAX_FAILURE_LINES = 10
MIN_QUERIES = 100
# set-up samples, spread over the timed seconds
SETUP_SAMPLES = 10


def setup_sample(args):
    """(spawn-to-ready time, import_s) of a fresh --setup-only worker."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["ready"] - spawned, out["import_s"]


def load_refs():
    with open(os.path.join(HERE, "refs.json")) as fh:
        return json.load(fh)


class SetupSampler:
    """Called between sessions; takes a set-up sample whenever another
    seconds / SETUP_SAMPLES of timed work has passed.  Its clock stops
    while it samples."""

    def __init__(self, args, start):
        self.args = args
        self.every = args.seconds / SETUP_SAMPLES
        self.next = start + self.every
        self.paused = 0.0
        self.samples = []

    def clock(self):
        return time.monotonic() - self.paused

    def __call__(self):
        if self.clock() >= self.next:
            t = time.monotonic()
            self.samples.append(setup_sample(self.args))
            self.paused += time.monotonic() - t
            self.next += self.every


class Loop:
    """Runs rounds of sessions, timing each step and checking each answer."""

    def __init__(self, sessions, refs, tracer=None):
        self.sessions = sessions
        self.refs = refs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def _fail(self, key, exc):
        self.failed += 1
        if len(self.messages) < MAX_FAILURE_LINES:
            self.messages.append(f"{key}: {type(exc).__name__}: {exc}")

    def run_round(self, traced=False, between=None):
        """Latencies (seconds) of the round's steps, in order; between()
        is called after each session."""
        tr = self.tracer
        lat = []
        for session in self.sessions:
            state = {}
            for k, step in enumerate(session):
                self.attempted += 1
                if traced:
                    tr.query_id += 1
                    tr.recording = True
                t0 = perf_counter()
                try:
                    answer = step.run(state)
                except Exception as exc:  # a query that raises counts as failed
                    lat.append(perf_counter() - t0)
                    if traced:
                        tr.recording = False
                    self._fail(step.key, exc)
                    # the rest of the session depends on this step
                    self.attempted += len(session) - k - 1
                    self.failed += len(session) - k - 1
                    break
                lat.append(perf_counter() - t0)
                if traced:
                    tr.recording = False
                try:
                    step.check(state, answer)
                    want = self.refs.get(step.key)
                    got = workloads.digest(answer)
                    if want != got:
                        raise workloads.CheckFailed(f"digest {got}, reference {want}")
                except Exception as exc:  # any failed check counts the query as failed
                    self._fail(step.key, exc)
            if between is not None:
                between()
        if traced:
            tr.end_round()
        return lat


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tr = None
        if args.trace:  # patch before any set-up work, so randgen is traced
            tr = tracer.Tracer()
            tr.install()
            tr.recording = True
        sessions = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        if tr is not None:
            tr.recording = False
        if args.setup_only:
            print(json.dumps({"ready": ready, "import_s": IMPORT_S}))
            return 0
        loop = Loop(sessions, load_refs(), tr)
        deadline = ready + args.seconds
        out = {"ready": ready, "import_s": IMPORT_S}
        if tr is None:
            lat, rounds = [], 0
            sampler = SetupSampler(args, ready)
            while True:
                lat += loop.run_round(between=sampler)
                rounds += 1
                if sampler.clock() >= deadline and len(lat) >= MIN_QUERIES:
                    break
            samples = sampler.samples[:SETUP_SAMPLES]
            samples += [setup_sample(args) for _ in range(SETUP_SAMPLES - len(samples))]
            out.update(latencies=lat, setups=[s for s, _ in samples],
                       imports=[i for _, i in samples])
        else:
            plain, traced = [], []
            while True:
                tr.uninstall()
                plain.append(sum(loop.run_round()))
                tr.install()
                traced.append(sum(loop.run_round(traced=True)))
                if time.monotonic() >= deadline:
                    break
            tr.uninstall()
            rounds = len(traced)
            overhead = (sum(traced) / sum(plain)) - 1.0
            out["per_layer"] = tracer.layer_metrics(tr, len(traced), overhead)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
            tr.write(path)
            out["trace_file"] = os.path.relpath(path, os.path.dirname(HERE))
        out.update(attempted=loop.attempted, failed=loop.failed, failures=loop.messages,
                   rounds=rounds,
                   peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
