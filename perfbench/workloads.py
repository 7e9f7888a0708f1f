"""Inputs, queries and answer checks of the three benchmark workloads.

A workload turns the benchmark seed into a *round*: a list of sessions,
each a list of steps.  A step is one query; steps of a session share
state (the spectral workload opens a filtered complex once and then asks
for its pages).  The worker times each step alone and runs the round
again until its time is up, so every round asks exactly the same
questions.

The diagrams of nerve-ladder and spectral-session are a fixed ladder;
the seed gives each query its own relabelling of the poset (objects
renamed by a seeded permutation, objects and covers listed in seeded
order), so chains, blocks and matrices come in another order while the
answers stay the same and the cost stays comparable from seed to seed.
random-cli's seed samples its documents from fixed pools, and a fixed
set of heavy documents joins every round.  Either way
every answer the benchmark can ask for has a reference digest in
refs.json, recorded once by record_refs.py.  The checks that do not
need a reference use only oracles outside the measured code path:
chain counts from enumerate_chains, the direct (co)limits, and the
known answers on constant diagrams.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from posetlim import abgroup, cli, derived, diagram, jsonio, poset, randgen, spectral


class CheckFailed(Exception):
    """An answer disagrees with its oracle or its reference."""


# ---------------------------------------------------------------- shapes

def boolean_lattice(n):
    objects = [(f"s{m}", bin(m).count("1")) for m in range(1 << n)]
    covers = [(f"s{m}", f"s{m | 1 << i}")
              for m in range(1 << n) for i in range(n) if not m & 1 << i]
    return objects, covers


def grid(w, h):
    objects = [(f"g{i}_{j}", i + j) for i in range(w) for j in range(h)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(w - 1) for j in range(h)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(w) for j in range(h - 1)]
    return objects, covers


# Every shape has a least element (s0 or g0_0), so its nerve is a cone:
# a constant diagram G has colim_0 = lim^0 = G and nothing above.
SHAPES = {
    "bool2": boolean_lattice(2),
    "bool3": boolean_lattice(3),
    "bool4": boolean_lattice(4),
    "grid2x3": grid(2, 3),
    "grid2x4": grid(2, 4),
    "grid3x3": grid(3, 3),
    "grid3x4": grid(3, 4),
    "grid4x4": grid(4, 4),
}

COEFFS = {"Z": (1, []), "Z/2": (0, [2]), "Z+Z/2": (1, [2])}


def relabel(shape, rng):
    """(objects, covers, rename): the shape renamed by a seeded
    permutation of x0..x(n-1), objects and covers in seeded order."""
    objects, covers = SHAPES[shape]
    names = [f"x{k}" for k in range(len(objects))]
    rng.shuffle(names)
    rename = {o: n for (o, _), n in zip(objects, names)}
    objs = [(rename[o], d) for o, d in objects]
    covs = [(rename[a], rename[b]) for a, b in covers]
    rng.shuffle(objs)
    rng.shuffle(covs)
    return objs, covs, rename


def make_poset(layout):
    return poset.validate_graded(layout[0], layout[1])


def _rows(m):
    return [m["data"][i * m["cols"]:(i + 1) * m["cols"]] for i in range(m["rows"])]


def make_diagram(P, spec, rename):
    """A fresh diagram from ("const", coefficient name) or ("doc", a
    serialized diagram on the shape's own ids, renamed by rename), built
    only through public constructors."""
    kind, value = spec[:2]
    if kind == "const":
        free, factors = COEFFS[value]
        return diagram.constant_diagram(P, abgroup.group_from_invariants(free, factors))
    groups = {rename[i]: abgroup.FgAbGroup(g["rank"], _rows(g["relations"]))
              for i, g in value["groups"].items()}
    maps = {}
    for key, m in value["maps"].items():
        a, b = (rename[x] for x in key.split("->"))
        maps[(a, b)] = abgroup.AbHom(groups[a], groups[b], _rows(m))
    return diagram.validate_functor(P, groups, maps)


def sums_document(shape, index):
    """Pool member `index` of seeded sums_of_standard diagrams on a shape:
    the first of the index's randgen seeds whose values all have ambient
    rank at most 2 and add up to at least one per object.  The lower
    limit leaves out the near-empty sums (all skyscrapers of trivial
    groups, say), which cost nothing and would make a seed's share of
    them decide the run's median."""
    objects, covers = SHAPES[shape]
    P = poset.validate_graded(objects, covers)
    for attempt in range(1000):
        cfg = randgen.GenConfig(seed=1000 * index + attempt)
        F = randgen.gen_diagram(cfg, P, "sums_of_standard")
        ranks = [g.ambient_rank for g in F.groups.values()]
        if max(ranks) <= 2 and sum(ranks) >= len(ranks):
            return jsonio.serialize_diagram(F)
    raise RuntimeError(f"no small sums_of_standard diagram for {shape}/{index}")


# ---------------------------------------------------------------- oracles

def digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def canon_group(G):
    return [G.free_rank, [int(d) for d in G.invariant_factors]]


def canon_page(pg):
    return [[p, q] + canon_group(g) for (p, q), g in sorted(pg.entries.items())]


def euler_of_chains(P, F, key):
    """sum_n (-1)^n free rank of C_n, from the chain list and the values;
    key picks the vertex that carries the coefficient ('first' for the
    chain complex, 'last' for the cochain complex)."""
    total, n = 0, 0
    while True:
        chains = poset.enumerate_chains(P, n)
        if not chains:
            return total
        rank = sum(F.groups[getattr(c, key)].free_rank for c in chains)
        total += -rank if n % 2 else rank
        n += 1


def euler_of_page(rows):
    return sum(-free if (p + q) % 2 else free for p, q, free, _ in rows)


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def derived_oracle(P, F, direction):
    """What colim_i / lim^i over all degrees must agree with: the direct
    (co)limit in degree 0 and the Euler characteristic of the chains."""
    direct = derived.colimit_direct(F) if direction == "colim" else derived.limit_direct(F)
    chi = euler_of_chains(P, F, "first" if direction == "colim" else "last")
    return canon_group(direct), chi


def check_derived(oracle, spec, direction, table):
    direct, chi = oracle
    expect(direct == table[0], f"degree 0 is {table[0]}, direct {direction} is {direct}")
    got = sum(-g[0] if n % 2 else g[0] for n, g in enumerate(table))
    expect(chi == got, f"Euler characteristic {got}, chains give {chi}")
    if spec[0] == "const":
        free, factors = COEFFS[spec[1]]
        want = [[free, factors]] + [[0, []]] * (len(table) - 1)
        expect(table == want, f"constant {spec[1]} on a cone gave {table}")


# ---------------------------------------------------------------- sessions

class Step:
    """One query: run(state) is timed and returns the answer in canonical
    form (so lazily computed invariants are paid for inside the timed
    region); check(state, answer) is not timed and raises CheckFailed.
    The digest of the answer is compared with refs.
    Every round asks the same questions of equal inputs, so oracle
    values are computed once per step and kept in memo."""

    def __init__(self, key, run, check):
        self.key = key
        self.run = run
        self.check = check
        self.memo = {}

    def oracle(self, name, compute):
        if name not in self.memo:
            self.memo[name] = compute()
        return self.memo[name]


def _spec_key(spec):
    return f"const:{spec[1]}" if spec[0] == "const" else f"sums:{spec[2]}"


def nerve_step(shape, spec, direction, layout):
    def run(st):
        P = make_poset(layout)
        F = make_diagram(P, spec, layout[2])
        top = poset.longest_chain_length(P)
        st.update(P=P, F=F)
        return [canon_group(derived.derived_functor(F, direction, i)) for i in range(top + 1)]

    def check(st, table):
        oracle = step.oracle("derived", lambda: derived_oracle(st["P"], st["F"], direction))
        check_derived(oracle, spec, direction, table)

    step = Step(f"nl|{shape}|{_spec_key(spec)}|{direction}", run, check)
    return step


SPECTRAL_VARIANTS = ("chain:sigma_n:increasing", "cochain:sigma_n:increasing")


def spectral_session(shape, spec, variant, layout):
    """Open the filtered complex, then page(X, r) for r = 0..span+2,
    e_infinity, convergence_check and the two page oracles."""
    key = f"ss|{shape}|{_spec_key(spec)}|{variant}"
    objects, _ = SHAPES[shape]
    span = max(d for _, d in objects) - min(d for _, d in objects)
    complex_key = "first" if variant.startswith("chain") else "last"

    memo = {}

    def chi(st):
        if "chi" not in memo:
            memo["chi"] = euler_of_chains(st["P"], st["F"], complex_key)
        return memo["chi"]

    def check_page(st, rows, what):
        expect(euler_of_page(rows) == chi(st),
               f"{what}: Euler characteristic {euler_of_page(rows)}, chains give {chi(st)}")

    def open_(st):
        P = make_poset(layout)
        F = make_diagram(P, spec, layout[2])
        st.update(P=P, F=F)
        st["X"] = spectral.build_filtered(P, F, spectral.variant_by_name(variant))
        return st["X"].span

    def check_open(st, got):
        expect(got == span, f"filtration span {got}, poset degrees span {span}")

    steps = [Step(key + "|open", open_, check_open)]
    for r in range(span + 3):
        steps.append(Step(
            f"{key}|page{r}",
            lambda st, r=r: canon_page(spectral.page(st["X"], r)),
            lambda st, pg, r=r: check_page(st, pg, f"page {r}")))

    def check_stable(st, out):
        check_page(st, out, "E_inf")
        if spec[0] == "const":
            # E_inf is graded by a filtration of H_n: zero off degree 0,
            # and in degree 0 its ranks add up to the rank of G
            free = COEFFS[spec[1]][0]
            stray = [e for e in out if e[0] + e[1] != 0]
            expect(not stray, f"constant {spec[1]} on a cone has E_inf {stray} off degree 0")
            expect(sum(e[2] for e in out) == free, f"E_inf ranks {out}, want rank {free}")

    steps.append(Step(key + "|e_infinity",
                      lambda st: canon_page(spectral.e_infinity(st["X"])), check_stable))

    def converge(st):
        rep = spectral.convergence_check(st["P"], st["F"], spectral.variant_by_name(variant))
        return [rep.ok] + [[n, c.rank_ss, c.rank_target, bool(c.orders_compared),
                            c.order_ss, c.order_target]
                           for n, c in sorted(rep.by_degree.items())]

    def check_converge(st, rows):
        expect(rows[0] is True, "convergence report not ok")
        for n, rank_ss, rank_target, *_ in rows[1:]:
            expect(rank_ss == rank_target, f"degree {n}: ranks {rank_ss} vs {rank_target}")
        got = sum(-row[2] if row[0] % 2 else row[2] for row in rows[1:])
        expect(got == chi(st), f"derived Euler characteristic {got}, chains give {chi(st)}")

    steps.append(Step(key + "|convergence", converge, check_converge))
    steps.append(Step(key + "|oracle_page_one",
                      lambda st: canon_page(spectral.oracle_page_one(st["X"])),
                      lambda st, rows: check_page(st, rows, "oracle page 1")))
    steps.append(Step(
        key + "|oracle_recurrence",
        lambda st: [canon_page(pg) for pg in spectral.oracle_page_recurrence(st["X"])],
        lambda st, pages: [check_page(st, rows, f"recurrence page {r}")
                           for r, rows in enumerate(pages)]))
    return steps


CLI_COMMANDS = ("validate", "colim", "lim", "classify")
CLI_COMBOS = (("forest", "free_maps_on_forest"), ("forest", "sums_of_standard"),
              ("forest", "pseudo_projective_by_construction"),
              ("layered", "sums_of_standard"),
              ("layered", "pseudo_projective_by_construction"))


def cli_document(family, mode, index):
    """Pool member `index` of a (family, mode) pair: max_objects 10..14,
    the first of the index's randgen seeds whose values all have ambient
    rank at most 3.  Larger sums are rare, but one of them costs as much
    as a hundred ordinary documents, so whether a seed drew one would
    decide its throughput."""
    for attempt in range(1000):
        cfg = randgen.GenConfig(seed=1000 * index + attempt, family=family,
                                max_objects=10 + index % 5)
        P = randgen.gen_poset(cfg)
        F = randgen.gen_diagram(cfg, P, mode)
        if max(g.ambient_rank for g in F.groups.values()) <= 3:
            return jsonio.serialize_diagram(F, name=f"{family}:{mode}:{index}")
    raise RuntimeError(f"no small {family}/{mode} document for {index}")


# The heavy tail the size limit above leaves out, asked in every round
# whatever the seed: unfiltered sums_of_standard documents, by randgen
# seed, from among the costliest of seeds 0..299 (max ambient rank 11, 4,
# 6 and 2; each costs tens of ordinary documents).  Here coefficient
# growth and large lattices dominate.
CLI_HEAVY = (("forest", "sums_of_standard", 94), ("forest", "sums_of_standard", 188),
             ("layered", "sums_of_standard", 53), ("layered", "sums_of_standard", 189))


def cli_heavy_document(family, mode, seed):
    cfg = randgen.GenConfig(seed=seed, family=family, max_objects=10 + seed % 5)
    F = randgen.gen_diagram(cfg, randgen.gen_poset(cfg), mode)
    return jsonio.serialize_diagram(F, name=f"{family}:{mode}:seed{seed}")


def cli_step(path, doc, mode, cmd, key):
    argv = ["--json", cmd, path]

    def run(st):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.getvalue().strip()[:300]}")
        return json.loads(out.getvalue())

    def check(st, rep):
        jsonio.validate_report(rep)
        expect(rep["command"] == cmd, f"report for {rep['command']!r}")
        if cmd == "validate":
            expect(rep["ok"] is True, "document not reported valid")
        elif cmd in ("colim", "lim"):
            table = [[g["free_rank"], g["invariant_factors"]] for g in rep["derived"][cmd]]
            oracle = step.oracle("derived",
                                 lambda: derived_oracle(*jsonio.parse_diagram(doc), cmd))
            check_derived(oracle, ("doc", None), cmd, table)
            if cmd == "colim" and mode == "pseudo_projective_by_construction":
                expect(all(g == [0, []] for g in table[1:]),
                       f"pseudo-projective by construction but colim_i = {table}")
        else:
            expect(all(rep["classification"]["consistency"].values()),
                   "classification consistency flags not all true")

    step = Step(key + "|" + cmd, run, check)
    return step


# ---------------------------------------------------------------- rounds

# Small shapes ask every diagram in both directions; on the large ones
# each diagram is asked once, so a round stays near five seconds.
BOTH = ("colim", "lim")
NL_CONSTS = {
    "bool3": [(c, BOTH) for c in COEFFS],
    "grid2x4": [(c, BOTH) for c in COEFFS],
    "grid3x3": [(c, BOTH) for c in COEFFS],
    "bool4": [("Z", ("colim",)), ("Z/2", ("lim",)), ("Z+Z/2", ("colim",))],
    "grid3x4": [("Z", ("lim",)), ("Z/2", ("colim",))],
    "grid4x4": [("Z", ("colim",))],
}
NL_SUMS = {"bool3": 4, "grid2x4": 4, "grid3x3": 4}

SS_CONSTS = {"bool2": ("Z", "Z+Z/2"), "grid2x3": ("Z", "Z+Z/2"), "bool3": ("Z",)}
SS_SUMS = {"bool2": 2, "grid2x3": 2, "bool3": 2}

CLI_POOL = 64
CLI_PER_COMBO = 32


def _specs(shape, consts, sums):
    return ([("const", c) for c in consts]
            + [("doc", sums_document(shape, k), k) for k in range(sums.get(shape, 0))])


def nerve_ladder(seed, workdir):
    rng = random.Random(f"nerve-ladder:{seed}")
    sessions = []
    for shape, consts in NL_CONSTS.items():
        asks = [(("const", c), dirs) for c, dirs in consts]
        asks += [(spec, BOTH) for spec in _specs(shape, (), NL_SUMS)]
        sessions += [[nerve_step(shape, spec, d, relabel(shape, rng))]
                     for spec, dirs in asks for d in dirs]
    rng.shuffle(sessions)
    return sessions


def spectral_session_workload(seed, workdir):
    rng = random.Random(f"spectral-session:{seed}")
    sessions = [spectral_session(shape, spec, v, relabel(shape, rng))
                for shape, consts in SS_CONSTS.items()
                for spec in _specs(shape, consts, SS_SUMS)
                for v in SPECTRAL_VARIANTS]
    rng.shuffle(sessions)
    return sessions


def random_cli(seed, workdir, every=False):
    """every=True takes the whole pool instead of the seed's sample."""
    rng = random.Random(f"random-cli:{seed}")
    docs = []
    for family, mode in CLI_COMBOS:
        picks = range(CLI_POOL) if every else sorted(rng.sample(range(CLI_POOL), CLI_PER_COMBO))
        docs += [(family, mode, str(k), cli_document(family, mode, k)) for k in picks]
    docs += [(family, mode, f"seed{s}", cli_heavy_document(family, mode, s))
             for family, mode, s in CLI_HEAVY]
    sessions = []
    for family, mode, name, doc in docs:
        path = os.path.join(workdir, f"{family}-{mode}-{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        key = f"cli|{family}|{mode}|{name}"
        sessions += [[cli_step(path, doc, mode, cmd, key)] for cmd in CLI_COMMANDS]
    rng.shuffle(sessions)
    return sessions


WORKLOADS = {
    "nerve-ladder": nerve_ladder,
    "spectral-session": spectral_session_workload,
    "random-cli": random_cli,
}
