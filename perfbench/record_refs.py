"""Record the reference digest of every answer the benchmark can ask for.

    PYTHONPATH=src python3 perfbench/record_refs.py [WORKLOAD ...]

Runs every session each workload can ask for once (random-cli: its
whole document pool), checks
each answer against the independent oracles, and writes the digest of
its canonical form to perfbench/refs.json under the step's key.  The
references were recorded once from the commit that added the benchmark;
re-recording them would hide a changed answer, so do it only when the
input pools themselves change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(names):
    path = os.path.join(HERE, "refs.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    for name in names or list(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            if name == "random-cli":
                sessions = workloads.random_cli(0, tmp, every=True)
            else:  # the seed only relabels, and answers do not depend on labels
                sessions = workloads.WORKLOADS[name](0, tmp)
            for session in sessions:
                state = {}
                for step in session:
                    answer = step.run(state)
                    step.check(state, answer)
                    refs[step.key] = workloads.digest(answer)
        print(f"{name}: {len(sessions)} sessions", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
