"""Record the output digests that test_golden.py compares the CLI with.

    PYTHONPATH=src python tests/record_golden.py

Runs every command of the sweep in process and writes the sha256 of its
stdout and of its stderr, and its exit code, to golden_outputs.json next
to this file.  The sweep is validate, colim, lim, classify and spectral
--variant 1..8 on each bundled document, then gallery and oracle --seeds
25, each in text and with --json.  Rerun it only when an output is meant
to change: the diff of golden_outputs.json then names every output that
changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from importlib import resources

from posetlim import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

DOCUMENT_COMMANDS = [["validate"], ["colim"], ["lim"], ["classify"]] + [
    ["spectral", "--variant", str(v)] for v in range(1, 9)]
PLAIN_COMMANDS = [["gallery"], ["oracle", "--seeds", "25"]]


def sweep_commands():
    """(key, argv) for every command of the sweep; the key names a
    document by its file name, so it is the same in every checkout."""
    data = resources.files("posetlim") / "data"
    names = sorted(p.name for p in data.iterdir() if p.name.endswith(".json"))
    runs = [(" ".join([cmd[0], name] + cmd[1:]), [cmd[0], str(data / name)] + cmd[1:])
            for name in names for cmd in DOCUMENT_COMMANDS]
    runs += [(" ".join(cmd), cmd) for cmd in PLAIN_COMMANDS]
    return [(prefix + key, prefix.split() + argv)
            for prefix in ("", "--json ") for key, argv in runs]


def digests(argv):
    """{"code", "stdout", "stderr"} of cli.main(argv), the streams as sha256."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def sweep():
    return {key: digests(argv) for key, argv in sweep_commands()}


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(sweep(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
