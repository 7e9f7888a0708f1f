"""Command-line interface.

Commands: validate, colim, lim, classify, spectral, gallery, generate,
oracle.  Exit codes: 0 success, 1 bad input or data error, 2 violation
of a theorem-backed oracle or convergence check (an implementation
bug, never a data problem).  With --json the report document goes to
stdout and errors go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from .abgroup import hom_is_mono
from .classify import (
    classify_diagram,
    is_projective,
    is_pseudo_injective,
    pushout_projectivity_criterion,
    telescope_projectivity_criterion,
)
from .derived import (
    DEFAULT_MAX_CHAINS,
    chain_budget,
    check_euler_characteristic,
    derived_functor,
    is_acyclic,
)
from .diagram import transpose_diagram
from .errors import (
    ConvergenceViolation,
    OracleViolation,
    PosetlimError,
)
from .jsonio import (
    FORMAT_VERSION,
    MAX_MATRIX_DIM,
    TOOL_VERSION,
    digest,
    group_to_json,
    parse_diagram,
    serialize_diagram,
)
from .poset import longest_chain_length
from .randgen import DIAGRAM_MODES, GenConfig, gen_diagram, gen_poset
from .spectral import (
    TABLE_VARIANTS,
    build_filtered,
    convergence_check,
    oracle_page_one,
    oracle_page_recurrence,
    page,
    variant_by_name,
)


def _read_document(path: str):
    if path == "-":
        return sys.stdin.read()
    with open(path, "rb") as fh:
        return fh.read()


def _base_report(command: str, doc=None) -> dict:
    rep = {"format_version": FORMAT_VERSION, "tool_version": TOOL_VERSION,
           "command": command, "input_digest": None}
    if doc is not None:
        rep["input_digest"] = digest(doc)
        if isinstance(doc, dict) and "name" in doc:
            rep["input_name"] = doc["name"]
    return rep


def _load(args):
    raw = _read_document(args.file)
    doc = json.loads(raw) if not isinstance(raw, dict) else raw
    P, F = parse_diagram(doc)
    return doc, P, F


def _cmd_validate(args):
    doc, P, F = _load(args)
    rep = _base_report("validate", doc)
    rep["ok"] = True
    text = (f"valid: {len(P.objects)} objects, {len(P.covers)} covers, "
            f"direction {P.direction}")
    return rep, text


def _derived_table(F, direction, k):
    table = [derived_functor(F, direction, i) for i in range(k + 1)]
    if k >= longest_chain_length(F.poset):
        check_euler_characteristic(F, direction, table)
    return table


def _cmd_derived(args, direction):
    k = args.max_degree
    if k is not None and k < 0:
        raise PosetlimError(f"--max-degree must be at least 0, got {k}")
    if k is not None and k >= MAX_MATRIX_DIM:
        # every degree past the nerve's length is zero, so a larger bound
        # only loops over empty degrees
        raise PosetlimError(f"--max-degree must be below {MAX_MATRIX_DIM}, got {k}")
    doc, P, F = _load(args)
    if k is None:
        k = longest_chain_length(P)
    table = _derived_table(F, direction, k)
    rep = _base_report(direction, doc)
    rep["derived"] = {direction: [group_to_json(g) for g in table]}
    text = "\n".join(f"{direction}_{i} = {g.describe()}"
                     for i, g in enumerate(table))
    return rep, text


def _acyclic_json(a):
    out = {"acyclic": bool(a)}
    if not a:
        out["degree"] = a.degree
        out["group"] = group_to_json(a.group)
    return out


def _acyclic_text(a) -> str:
    if a:
        return "True"
    return f"False  (nonzero {a.group.describe()} in degree {a.degree})"


def _witness_json(w):
    if w is None:
        return None
    return {"at": w.i0, "arrow_degree": w.d,
            "components": [{"object": ident, "element": list(vec)}
                           for ident, vec in w.components],
            "outside": list(w.outside)}


def _classification_json(report):
    return {
        "pseudo_projective": {"ok": report.pseudo_projective.ok,
                              "witness": _witness_json(report.pseudo_projective.witness)},
        "pseudo_injective": {"ok": report.pseudo_injective.ok,
                             "witness": _witness_json(report.pseudo_injective.witness)},
        "projective": {"ok": report.projective.ok, "reason": report.projective.reason},
        "injective": {"ok": report.injective.ok, "reason": report.injective.reason},
        "colim_acyclic": _acyclic_json(report.colim_acyclic),
        "lim_acyclic": _acyclic_json(report.lim_acyclic),
        "cokernels": {i: group_to_json(g) for i, g in report.cokernels.items()},
        "kernels": {i: group_to_json(g) for i, g in report.kernels.items()},
        "consistency": report.consistency,
    }


def _cmd_classify(args):
    doc, P, F = _load(args)
    report = classify_diagram(F)
    rep = _base_report("classify", doc)
    rep["classification"] = _classification_json(report)
    lines = [
        f"pseudo-projective: {report.pseudo_projective.ok}",
        f"pseudo-injective:  {report.pseudo_injective.ok}",
        f"projective:        {report.projective.ok}"
        + (f"  ({report.projective.reason})" if report.projective.reason else ""),
        f"injective:         {report.injective.ok}"
        + (f"  ({report.injective.reason})" if report.injective.reason else ""),
        f"colim-acyclic:     {_acyclic_text(report.colim_acyclic)}",
        f"lim-acyclic:       {_acyclic_text(report.lim_acyclic)}",
    ]
    for i in sorted(report.cokernels):
        lines.append(f"coker at {i}: {report.cokernels[i].describe()}")
    for i in sorted(report.kernels):
        lines.append(f"ker at {i}:   {report.kernels[i].describe()}")
    return rep, "\n".join(lines)


def _page_json(pg):
    return {"r": pg.r, "type": pg.type, "bidegree": list(pg.bidegree),
            "entries": [{"p": p, "q": q, "group": group_to_json(g)}
                        for (p, q), g in sorted(pg.entries.items())]}


def _page_grid(pg) -> str:
    head = f"page {pg.r}  ({pg.type}, d_{pg.r} bidegree {pg.bidegree})"
    if not pg.entries:
        return head + "\n  (no nonzero entries)"
    ps = sorted({p for p, _ in pg.entries})
    qs = sorted({q for _, q in pg.entries}, reverse=True)
    cells = {(p, q): g.describe() for (p, q), g in pg.entries.items()}
    widths = {p: max([len(str(p))] + [len(cells.get((p, q), ".")) for q in qs])
              for p in ps}
    qw = max(len(str(q)) for q in qs)
    lines = [head]
    header = " " * (qw + 2) + "  ".join(str(p).rjust(widths[p]) for p in ps)
    lines.append(header + "   (p)")
    for q in qs:
        row = "  ".join(cells.get((p, q), ".").rjust(widths[p]) for p in ps)
        lines.append(f"{str(q).rjust(qw)}  {row}")
    lines.append("(q)")
    return "\n".join(lines)


def _parse_variant(spec_str: str):
    if spec_str.isdigit():
        k = int(spec_str)
        if not 1 <= k <= 8:
            raise PosetlimError(f"variant number {k} outside 1..8")
        return TABLE_VARIANTS[k - 1]
    return variant_by_name(spec_str)


def _parse_pages(spec_str: str):
    lo, sep, hi = spec_str.partition("..")
    try:
        r0, r1 = int(lo), int(hi if sep else lo)
    except ValueError:
        raise PosetlimError(f"bad page range {spec_str!r}; use R or R0..R1")
    if not 0 <= r0 <= r1:
        raise PosetlimError(f"bad page range {spec_str!r}; need 0 <= R0 <= R1")
    if r1 - r0 >= MAX_MATRIX_DIM:
        # pages past span + 1 all repeat one page, so a longer range only
        # prints that page again
        raise PosetlimError(f"page range {spec_str!r} asks for {r1 - r0 + 1} pages; "
                            f"at most {MAX_MATRIX_DIM} are supported")
    return r0, r1


def _cmd_spectral(args):
    asked = None if args.pages is None else _parse_pages(args.pages)
    doc, P, F = _load(args)
    variant = _parse_variant(args.variant)
    X = build_filtered(P, F, variant)
    r0, r1 = asked or (0, X.span + 2)
    pages = [page(X, r) for r in range(r0, r1 + 1)]
    rep = _base_report("spectral", doc)
    rep["spectral"] = {"variant": variant.name,
                       "pages": [_page_json(pg) for pg in pages]}
    text = f"variant {variant.name}\n" + "\n\n".join(_page_grid(pg) for pg in pages)
    return rep, text


def load_bundled(name: str):
    """Parse one of the shipped example documents."""
    blob = resources.files("posetlim").joinpath(f"data/{name}.json").read_text()
    doc = json.loads(blob)
    P, F = parse_diagram(doc)
    return doc, P, F


# gallery facts: name -> function(P, F, classification report);
# "criterion" is the chain (telescope) projectivity criterion
GALLERY_FACTS = {
    "colim_0": lambda P, F, r: derived_functor(F, "colim", 0).describe(),
    "colim_1": lambda P, F, r: derived_functor(F, "colim", 1).describe(),
    "coker_b": lambda P, F, r: r.cokernels["b"].describe(),
    "pseudo_projective": lambda P, F, r: r.pseudo_projective.ok,
    "pseudo_injective": lambda P, F, r: r.pseudo_injective.ok,
    "projective": lambda P, F, r: r.projective.ok,
    "injective": lambda P, F, r: r.injective.ok,
    "colim_acyclic": lambda P, F, r: bool(r.colim_acyclic),
    "lim_acyclic": lambda P, F, r: bool(r.lim_acyclic),
    "witness_at": lambda P, F, r: (r.pseudo_projective.witness.i0
                                   if r.pseudo_projective.witness else None),
    "witness": lambda P, F, r: _witness_json(r.pseudo_projective.witness),
    "all_monos": lambda P, F, r: all(hom_is_mono(F.cover_maps[c]) for c in P.covers),
    "is_projective": lambda P, F, r: is_projective(F).ok,
    "pushout_criterion": lambda P, F, r: pushout_projectivity_criterion(F),
    "criterion": lambda P, F, r: telescope_projectivity_criterion(P, F),
}


def run_gallery(table=None):
    """Run every gallery example against its expected facts.

    table is the list of examples, by default the bundled gallery.json:
    each names a bundled document or carries one inline, and lists the
    facts that are checked and reported ("report") or only checked
    ("check").  Every mismatch is collected, then one OracleViolation
    lists them all.
    """
    if table is None:
        table = json.loads(resources.files("posetlim").joinpath("gallery.json").read_text())
    results = []
    failures = []
    for entry in table:
        name = entry["name"]
        if "document" in entry:
            P, F = parse_diagram(entry["document"])
        else:
            _, P, F = load_bundled(name)
        classification = classify_diagram(F)
        reported = entry.get("report", {})
        got = {}
        for fact, want in {**reported, **entry.get("check", {})}.items():
            if fact not in GALLERY_FACTS:
                failures.append(f"gallery {name}: unknown fact {fact!r}")
                continue
            got[fact] = GALLERY_FACTS[fact](P, F, classification)
            if json.dumps(got[fact], sort_keys=True) != json.dumps(want, sort_keys=True):
                failures.append(f"gallery {name}: {fact} is {json.dumps(got[fact])}, "
                                f"expected {json.dumps(want)}")
        results.append({"name": name, "ok": True, **{f: got.get(f) for f in reported}})
    if failures:
        raise OracleViolation("; ".join(failures))
    return results


def _cmd_gallery(args):
    results = run_gallery()
    rep = _base_report("gallery")
    rep["gallery"] = results
    text = "\n".join(f"ok {r['name']}" for r in results)
    return rep, text


def _default_seed() -> int:
    raw = os.environ.get("POSETLIM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise PosetlimError(f"POSETLIM_SEED must be an integer, got {raw!r}")


def _cmd_generate(args):
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        cfg = GenConfig(seed=seed, max_objects=args.max_objects,
                        max_degree_span=args.max_degree_span, family=args.family)
    except ValueError as e:
        raise PosetlimError(str(e)) from e
    P = gen_poset(cfg)
    F = gen_diagram(cfg, P, args.mode)
    name = args.name or f"{args.mode}:{args.family}:seed={seed}"
    doc = serialize_diagram(F, name=name)
    rep = _base_report("generate", doc)
    rep["seed"] = seed
    rep["document"] = doc
    return rep, json.dumps(doc, indent=2, sort_keys=True)


def _cmd_oracle(args):
    seeds = args.seeds
    if seeds < 0:
        raise PosetlimError(f"--seeds must be at least 0, got {seeds}")
    counts = {"seeds": seeds, "theorem_b": 0, "theorem_b_dual": 0,
              "convergence": 0, "page_recurrence": 0}
    for s in range(seeds):
        family = "forest" if s % 2 == 0 else "layered"
        cfg = GenConfig(seed=s, family=family, max_objects=6)
        P = gen_poset(cfg)
        F = gen_diagram(cfg, P, "pseudo_projective_by_construction")
        if not is_acyclic(F, "colim").acyclic:
            raise OracleViolation(
                f"seed {s}: pseudo-projective instance with nonvanishing colim_i")
        counts["theorem_b"] += 1
        G = transpose_diagram(F)
        if is_pseudo_injective(G).ok and not is_acyclic(G, "lim").acyclic:
            raise OracleViolation(
                f"seed {s}: pseudo-injective transport with nonvanishing lim_i")
        counts["theorem_b_dual"] += 1
        H = gen_diagram(cfg, P, "sums_of_standard")
        for variant in TABLE_VARIANTS:
            if variant.direction != P.direction:
                continue
            convergence_check(P, H, variant)
            counts["convergence"] += 1
        X = build_filtered(P, H, TABLE_VARIANTS[2])
        oracle_page_one(X)
        oracle_page_recurrence(X)
        counts["page_recurrence"] += 1
    rep = _base_report("oracle")
    rep["oracle"] = counts
    rep["seed"] = None
    text = "\n".join(f"{k}: {v}" for k, v in counts.items())
    return rep, text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; 2 is reserved for oracle failures
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="posetlim",
                     description="Exact derived limits and colimits of "
                                 "diagrams of abelian groups on graded posets.")
    parser.add_argument("--json", action="store_true",
                        help="emit the report document as JSON")
    parser.add_argument("--max-chains", type=int, default=DEFAULT_MAX_CHAINS,
                        help="refuse an input whose complexes would list more "
                             "chains than this (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_file=True):
        sp = sub.add_parser(name, help=help_text)
        if with_file:
            sp.add_argument("file", help="DiagramDocument path, or - for stdin")
        sp.set_defaults(func=fn)
        return sp

    add("validate", _cmd_validate, "parse and validate a document")
    for d in ("colim", "lim"):
        sp = add(d, (lambda dd: lambda a: _cmd_derived(a, dd))(d),
                 f"derived functors of {d}")
        sp.add_argument("--max-degree", type=int, default=None)
    add("classify", _cmd_classify,
        "projectivity, injectivity and the pseudo conditions")
    sp = add("spectral", _cmd_spectral, "spectral sequence pages")
    sp.add_argument("--variant", required=True,
                    help="1..8 or a name like chain:sigma_n:increasing")
    sp.add_argument("--pages", default=None, help="R or R0..R1")
    add("gallery", _cmd_gallery,
        "run the bundled examples against their expected verdicts",
        with_file=False)
    sp = add("generate", _cmd_generate, "emit a random DiagramDocument",
             with_file=False)
    sp.add_argument("--seed", type=int, default=None,
                    help="default: POSETLIM_SEED or 0")
    sp.add_argument("--family", choices=["forest", "layered"], default="forest")
    sp.add_argument("--mode", choices=list(DIAGRAM_MODES), default="sums_of_standard")
    sp.add_argument("--max-objects", type=int, default=6)
    sp.add_argument("--max-degree-span", type=int, default=3)
    sp.add_argument("--name", default=None)
    sp = add("oracle", _cmd_oracle,
             "randomized theorem and convergence checks", with_file=False)
    sp.add_argument("--seeds", type=int, default=25)
    return parser


def _emit_error(args, exc, code):
    if getattr(args, "json", False):
        payload = {"format_version": FORMAT_VERSION, "tool_version": TOOL_VERSION,
                   "command": getattr(args, "command", None) or "?",
                   "input_digest": None,
                   "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _join_pages_value(argv):
    """argparse reads a value such as -2..1 after --pages as an option and
    stops; join the pair into --pages=-2..1 so the range check sees it."""
    out = []
    for arg in argv:
        if out and out[-1] == "--pages" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--pages={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_pages_value(sys.argv[1:] if argv is None else argv))
    try:
        if args.max_chains < 0:
            raise PosetlimError(f"--max-chains must be at least 0, got {args.max_chains}")
        with chain_budget(args.max_chains):
            rep, text = args.func(args)
    except (OracleViolation, ConvergenceViolation) as e:
        return _emit_error(args, e, 2)
    except (PosetlimError, FileNotFoundError, json.JSONDecodeError) as e:
        return _emit_error(args, e, 1)
    try:
        print(json.dumps(rep, indent=2, sort_keys=True) if args.json else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; point stdout at devnull so the exit flush cannot fail
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
