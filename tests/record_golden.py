"""Record the output digests that test_golden.py compares the CLI with.

    PYTHONPATH=src python tests/record_golden.py

Runs every command of the sweep in process and writes the sha256 of its
stdout and of its stderr, and its exit code, to golden_outputs.json next
to this file.  The sweep is validate, colim, lim, classify and spectral
--variant 1..8 on each bundled document and on the seeded documents
that generate writes (forest and layered, sums_of_standard, seeds 0-3,
--max-objects 8), whose zero-valued objects give the reduced complexes
cells that hold no coordinate, the refusals of spectral
--variant foo, ², 9, --pages 3..1 and --pages ١..٢ and of colim
--max-degree ١ on intro_pushout.json, validate on a document that is not
JSON and on one that is not UTF-8, validate, colim and lim on a chain
of 1,500 objects (which the poset must walk without deep recursion),
and spectral --variant 4 and 7 --pages 1..3 on it (whose pages, one Z
each, must cost what its critical cells do, not its 1,500 levels),
classify and spectral --variant 3, 4, 7 and 8 --pages 1..3 on a chain
of 60 objects (whose pages are zero at nearly every key), and spectral
--variant 3 and 8 --pages 59..61 on it (whose cycle lattices reach
every level down to -1 in both two-ended variants), spectral --variant
3, 4, 7 and 8 --pages 0..6 on a document whose degrees skip level 2
(whose page 0 has an empty piece there, and whose cycle lattices clamp
across it), validate and colim on four documents whose diamonds fail
(grid3x3 with a doubled cover, bool3 with a sign flip, crown_tower(3)
with one cover times 5, and the hexagon, whose failing pair is three
degrees apart), classify on the forests of free maps that generate
writes for the seeds of WITNESSED (--max-objects 10), whose --json
witnesses are read off the bases of the joint kernels, then gallery,
oracle --seeds 25 and the refusal of generate --family layered
--max-objects 20000,
each in text and with --json, and then the stdout of each script in
demos/, run in process.  Rerun it only when an
output is meant to change: the diff of golden_outputs.json then names
every output that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import tempfile
from importlib import resources

from posetlim import cli

from helpers import crown_tower, hexagon, shape

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_outputs.json")
DEMOS = os.path.join(os.path.dirname(HERE), "demos")

SPECTRAL_COMMANDS = [["spectral", "--variant", str(v)] for v in range(1, 9)]
DOCUMENT_COMMANDS = [["validate"], ["colim"], ["lim"], ["classify"]] + SPECTRAL_COMMANDS
GENERATED = [(family, seed) for family in ("forest", "layered") for seed in range(4)]
# seeds of generate --family forest --mode free_maps_on_forest --max-objects 10
# whose classify --json prints pseudo-injective witnesses read off the
# bases of the joint kernels (diagram.ker_at)
WITNESSED = (13, 117, 200, 201, 270)
REFUSED_ON = "intro_pushout.json"
REFUSED = ([["spectral", "--variant", v] for v in ("foo", "²", "9")]
           + [["spectral", "--variant", "3", "--pages", "3..1"]]
           + [["colim", "--max-degree", "١"], ["spectral", "--variant", "3", "--pages", "١..٢"]])
MALFORMED = {"malformed.json": b"{nope", "not-utf8.json": b'{"a": "\xff"}'}
PLAIN_COMMANDS = [["gallery"], ["oracle", "--seeds", "25"],
                  ["generate", "--family", "layered", "--max-objects", "20000"]]
DEEP_CHAIN = "deep_chain.json"
# {file name: (objects, commands)} of the constant-Z chains of the sweep
CHAINS = {DEEP_CHAIN: (1500, [["validate"], ["colim"], ["lim"]]
                       + [["spectral", "--variant", v, "--pages", "1..3"] for v in "47"]),
          "chain60.json": (60, [["classify"]] + [["spectral", "--variant", v, "--pages", "1..3"]
                                                 for v in "3478"]
                           + [["spectral", "--variant", v, "--pages", "59..61"] for v in "38"])}
GAPPED = "gapped_degrees.json"
GAPPED_COMMANDS = [["spectral", "--variant", v, "--pages", "0..6"] for v in "3478"]


def deep_chain_document(n=1500):
    """A valid document: constant Z on the chain x0 < x1 < ... of n objects."""
    ids = [f"x{k}" for k in range(n)]
    free = {"rank": 1, "relations": {"cols": 0, "data": [], "rows": 1}}
    return {"format_version": "1.0", "name": "deep_chain",
            "groups": {i: free for i in ids},
            "maps": {f"{a}->{b}": {"cols": 1, "data": [1], "rows": 1}
                     for a, b in zip(ids, ids[1:])},
            "poset": {"covers": [[a, b] for a, b in zip(ids, ids[1:])],
                      "direction": "increasing",
                      "objects": [{"degree": k, "id": i} for k, i in enumerate(ids)]}}


def gapped_document():
    """A valid document whose degrees skip level 2, in two components: Z -> Z
    by the identity at degrees 0 and 1, and Z/2 -> Z by zero at degrees 3
    and 4."""
    free = {"rank": 1, "relations": {"cols": 0, "data": [], "rows": 1}}
    two = {"rank": 1, "relations": {"cols": 1, "data": [2], "rows": 1}}
    return {"format_version": "1.0", "name": "gapped_degrees",
            "groups": {"a": free, "b": free, "c": two, "d": free},
            "maps": {"a->b": {"cols": 1, "data": [1], "rows": 1},
                     "c->d": {"cols": 1, "data": [0], "rows": 1}},
            "poset": {"covers": [["a", "b"], ["c", "d"]], "direction": "increasing",
                      "objects": [{"degree": k, "id": i} for i, k in zip("abcd", (0, 1, 3, 4))]}}


def constant_z_document(name, P, broken, factor):
    """A document of constant Z on the poset P, except that the cover
    broken multiplies by factor."""
    free = {"rank": 1, "relations": {"cols": 0, "data": [], "rows": 1}}
    return {"format_version": "1.0", "name": name,
            "groups": {i: free for i in P.ids},
            "maps": {f"{a}->{b}": {"cols": 1, "data": [factor if (a, b) == broken else 1],
                                   "rows": 1}
                     for a, b in P.covers},
            "poset": {"covers": [[a, b] for a, b in P.covers],
                      "direction": "increasing",
                      "objects": [{"degree": o.degree, "id": o.id} for o in P.objects]}}


def diamond_documents():
    """{file name: document} of four functors whose diamonds fail."""
    broken = {"diamond_grid3x3": (shape("grid3x3"), ("g1_1", "g2_1"), 2),
              "diamond_bool3": (shape("bool3"), ("s0", "s01"), -1),
              "diamond_crown3": (crown_tower(3), ("c1a", "c2b"), 5),
              "diamond_hexagon": (hexagon(), ("b", "q"), 2)}
    return {f"{name}.json": constant_z_document(name, *args) for name, args in broken.items()}


def write_diamonds(folder):
    """Write each document of diamond_documents() into folder; returns
    {name: path}."""
    paths = {}
    for name, doc in diamond_documents().items():
        paths[name] = os.path.join(folder, name)
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


def write_deep_chain(folder, name=DEEP_CHAIN):
    """Write the chain CHAINS[name] into folder as name; returns its path."""
    path = os.path.join(folder, name)
    with open(path, "w") as fh:
        json.dump(deep_chain_document(CHAINS[name][0]), fh)
    return path


def write_gapped(folder):
    """Write gapped_document() into folder as GAPPED; returns its path."""
    path = os.path.join(folder, GAPPED)
    with open(path, "w") as fh:
        json.dump(gapped_document(), fh)
    return path


def write_malformed(folder):
    """Write each document of MALFORMED into folder; returns {name: path}."""
    paths = {}
    for name, raw in MALFORMED.items():
        paths[name] = os.path.join(folder, name)
        with open(paths[name], "wb") as fh:
            fh.write(raw)
    return paths


def _generate(path, argv):
    """Write what generate prints for argv to path; returns path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["generate"] + argv)
    with open(path, "w") as fh:
        fh.write(out.getvalue())
    return path


def write_generated(folder):
    """Write each seeded document of GENERATED into folder, as generate
    prints it; returns {name: path}, the name giving family and seed."""
    paths = {}
    for family, seed in GENERATED:
        paths[f"generated {family} seed={seed}"] = _generate(
            os.path.join(folder, f"{family}-{seed}.json"),
            ["--family", family, "--mode", "sums_of_standard", "--seed", str(seed),
             "--max-objects", "8"])
    return paths


def write_witnessed(folder):
    """Write the forest of free maps of each seed of WITNESSED into
    folder, as generate prints it; returns {name: path}."""
    paths = {}
    for seed in WITNESSED:
        paths[f"generated forest free_maps_on_forest seed={seed}"] = _generate(
            os.path.join(folder, f"free-forest-{seed}.json"),
            ["--family", "forest", "--mode", "free_maps_on_forest", "--seed", str(seed),
             "--max-objects", "10"])
    return paths


def sweep_commands(generated, malformed, chains, diamonds, gapped, witnessed):
    """(key, argv) for every command of the sweep, generated, malformed,
    diamonds and witnessed being write_generated's, write_malformed's,
    write_diamonds' and write_witnessed's {name: path}, chains
    {name: write_deep_chain's path} for each name of CHAINS and gapped
    write_gapped's path; the key names a document by its file name or
    by family and seed, so it is the same in every checkout."""
    data = resources.files("posetlim") / "data"
    names = sorted(p.name for p in data.iterdir() if p.name.endswith(".json"))
    runs = [(" ".join([cmd[0], name] + cmd[1:]), [cmd[0], str(data / name)] + cmd[1:])
            for name in names for cmd in DOCUMENT_COMMANDS]
    runs += [(" ".join([cmd[0], name] + cmd[1:]), [cmd[0], path] + cmd[1:])
             for name, path in generated.items() for cmd in DOCUMENT_COMMANDS]
    runs += [(" ".join([cmd[0], REFUSED_ON] + cmd[1:]), [cmd[0], str(data / REFUSED_ON)] + cmd[1:])
             for cmd in REFUSED]
    runs += [(f"validate {name}", ["validate", path]) for name, path in malformed.items()]
    runs += [(" ".join([cmd[0], name] + cmd[1:]), [cmd[0], path] + cmd[1:])
             for name, path in chains.items() for cmd in CHAINS[name][1]]
    runs += [(" ".join([cmd[0], GAPPED] + cmd[1:]), [cmd[0], gapped] + cmd[1:])
             for cmd in GAPPED_COMMANDS]
    runs += [(f"{cmd} {name}", [cmd, path]) for name, path in diamonds.items()
             for cmd in ("validate", "colim")]
    runs += [(f"classify {name}", ["classify", path]) for name, path in witnessed.items()]
    runs += [(" ".join(cmd), cmd) for cmd in PLAIN_COMMANDS]
    return [(prefix + key, prefix.split() + argv)
            for prefix in ("", "--json ") for key, argv in runs]


def digests(argv):
    """{"code", "stdout", "stderr"} of cli.main(argv), the streams as sha256."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            # argparse refuses a bad option value by exiting
            code = e.code
    return {"code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def demo_digest(path):
    """{"stdout"} of running the demo script at path, as sha256."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(path, run_name="__main__")
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def sweep():
    with tempfile.TemporaryDirectory() as folder:
        chains = {name: write_deep_chain(folder, name) for name in CHAINS}
        commands = sweep_commands(write_generated(folder), write_malformed(folder),
                                  chains, write_diamonds(folder), write_gapped(folder),
                                  write_witnessed(folder))
        got = {key: digests(argv) for key, argv in commands}
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".py"):
            got["demo " + name] = demo_digest(os.path.join(DEMOS, name))
    return got


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(sweep(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
