"""Spectral sequences of degree-filtered nerve complexes.

Either nerve complex can be filtered by the degree of the last or the
first vertex of each chain; with the two degree directions that gives
eight presets.  Pages come straight from the cycle/boundary subquotient
formula on integer lattices, so every page is exact and the classical
page-to-page homology recurrence is available as an independent check
rather than the method of computation.

Pages from r = 1 on are computed on a filtered Morse complex: the
nerve complex reduced by a matching whose pairs keep the preset's key
vertex, hence stay inside one filtration level.  Such a reduction is a
filtered homotopy equivalence, so it changes no page from E1 on
(Mischaikow-Nanda, 2013).  The carrier matching keeps the first vertex
of a chain and the last of a cochain; the other two keys take the
two-ended matching, which keeps both.  Every matched pair is checked to
keep the key vertex.  Page 0 is the associated graded of the unreduced
complex, read off its level blocks; the unreduced complex is built on
first use, by page 0, the page-1 oracle or an inner sequence, and never
by later pages, E-infinity or the convergence check.

The cycle lattices of one degree and level, for every level their
differential may reach, come from a single tracked echelon with the
target's rows in filtration order, highest level first: the integer
form of the persistence reduction (Edelsbrunner-Letscher-Zomorodian,
2002; Basu-Parida, 2017).  Past r = span + 1 every page has the same
lattices and no differential, so those pages share page span + 1's
entries.

Internal bookkeeping uses one canonical shape: levels are shifted so
the filtration is increasing from 0 and the differential never raises
the level.  Published entries translate back to the preset's (p, q)
indexing, with q chosen so that d_r has the textbook bidegree for the
declared homological or cohomological type.

Each page is computed once per filtered complex and kept on it, and
each filtered complex once per (diagram, variant, grading) and kept on
the diagram over the diagram's cached reduced complex, so E-infinity,
the convergence check and both page oracles reuse the same pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import prod

from . import intlinalg as la
from .abgroup import AbHom, FgAbGroup, direct_sum, homology, subquotient, trivial_group, zero_hom
from .derived import ChainComplex, _cached_complex, _check_dd_zero, derived_functor, homology_at
from .diagram import Diagram
from .errors import ConvergenceViolation, MismatchError, OracleViolation, VariantMismatchError
from .poset import GradedPoset

# condition on the key vertex's degree that defines the first
# filtration, per (complex, direction, key); the second filtration of
# the same row always uses the other key with the other orientation
_CONDITION = {
    ("chain", "decreasing", "last"): ">=",
    ("chain", "decreasing", "first"): "<=",
    ("chain", "increasing", "last"): "<=",
    ("chain", "increasing", "first"): ">=",
    ("cochain", "decreasing", "last"): "<=",
    ("cochain", "decreasing", "first"): ">=",
    ("cochain", "increasing", "last"): ">=",
    ("cochain", "increasing", "first"): "<=",
}


@dataclass(frozen=True)
class Variant:
    """One row of the eight filtration presets."""
    complex: str     # chain | cochain
    key: str         # last | first (which chain vertex carries the level)
    direction: str   # increasing | decreasing (must match the poset)

    def __post_init__(self):
        if (self.complex, self.direction, self.key) not in _CONDITION:
            raise ValueError(
                f"no preset for ({self.complex!r}, {self.key!r}, {self.direction!r})")

    @property
    def condition(self) -> str:
        return _CONDITION[(self.complex, self.direction, self.key)]

    @property
    def type(self) -> str:
        """Entries climb the filtration under d for '>=' conditions,
        which is the cohomological shape; '<=' gives homological."""
        return "cohomological" if self.condition == ">=" else "homological"

    @property
    def second(self) -> "Variant":
        other = "first" if self.key == "last" else "last"
        return Variant(self.complex, other, self.direction)

    @property
    def name(self) -> str:
        vertex = "sigma_n" if self.key == "last" else "sigma_0"
        return f"{self.complex}:{vertex}:{self.direction}"

    @property
    def matching(self) -> str:
        """The Morse matching that keeps the key vertex of every pair: the
        carrier matching when the key is the carrier (the first vertex of
        a chain, the last of a cochain), the two-ended one otherwise."""
        carrier = "first" if self.complex == "chain" else "last"
        return "carrier" if self.key == carrier else "ends"


TABLE_VARIANTS = tuple(
    Variant(c, k, d)
    for c in ("chain", "cochain")
    for d in ("decreasing", "increasing")
    for k in ("last", "first"))


def variant_by_name(name: str) -> Variant:
    for v in TABLE_VARIANTS:
        if v.name == name:
            return v
    raise ValueError(f"unknown variant {name!r}; choose from "
                     + ", ".join(v.name for v in TABLE_VARIANTS))


class FilteredComplex:
    """A nerve complex, unreduced or Morse-reduced, with a level attached
    to every chain block.

    filtration_index maps (degree n, chain) to the preset's p, the
    display degree of the key vertex.  Canonical levels shift that to
    0-based increasing form; the respect invariant (the differential
    never raises the canonical level) is verified on construction, entry
    by nonzero entry, and so is the base's matching: every matched pair
    must keep its key vertex, or the reduction would not be filtered.
    """

    def __init__(self, base: ChainComplex, variant: Variant, poset: GradedPoset):
        self.base = base
        self.variant = variant
        self.poset = poset
        degs = poset.display_degrees
        self.min_degree = min(degs.values())
        self.max_degree = max(degs.values())
        self.span = self.max_degree - self.min_degree
        ge = variant.condition == ">="
        self.filtration_index = {}
        self._levels = {}
        self._coord_levels = {}
        for n in range(base.top + 1):
            lv = []
            for c in base.blocks[n]:
                key_id = c.last if variant.key == "last" else c.first
                p = degs[key_id]
                self.filtration_index[(n, c)] = p
                lv.append((self.max_degree - p) if ge else (p - self.min_degree))
            self._levels[n] = lv
            self._coord_levels[n] = [level for level, G in zip(lv, base.sums[n].summands)
                                     for _ in range(G.ambient_rank)]
        self._lambda_cache = {}
        self._z_cache = {}
        self._pages = {}
        self._pieces = {}
        self._check_respected()
        self._check_matching()

    @property
    def step(self) -> int:
        return self.base.step

    def _check_respected(self):
        levels = self._coord_levels
        for n, d in self.base._diffs.items():
            m = n + self.step
            for c, col in enumerate(d.matrix.cols):
                if any(levels[m][i] > levels[n][c] for i in col):
                    raise OracleViolation(
                        "differential raises the filtration level "
                        f"between degrees {n} and {m}")

    def _check_matching(self):
        at = -1 if self.variant.key == "last" else 0
        for lo, hi in self.base.matching.items():
            if lo[at] != hi[at]:
                raise OracleViolation(
                    f"matched chains {lo} and {hi} differ in their {self.variant.key} "
                    "vertex, which carries the filtration level")

    @cached_property
    def unreduced(self) -> "FilteredComplex":
        """The same filtration on the complex the base reduces, built on
        first use; self when the base is not reduced.  Page 0, the page-1
        oracle and the inner sequences read its level blocks."""
        source = self.base.unreduced()
        return self if source is self.base else FilteredComplex(source, self.variant, self.poset)

    def _lambda(self, n, s):
        """Ambient lattice of the level-<= s subgroup of C_n: coordinate
        columns of the admissible blocks joined with all relations."""
        if not (0 <= n <= self.base.top):
            return la.zeros(0, 0)
        s = min(s, self.span)
        key = (n, max(s, -1))
        hit = self._lambda_cache.get(key)
        if hit is not None:
            return hit
        group = self.base.group_at(n)
        rels = group.relations
        if s < 0:
            out = rels
        else:
            units = [{i: 1} for i, lv in enumerate(self._coord_levels[n]) if lv <= s]
            out = la.hstack([la.IntMatrix((group.ambient_rank, len(units)), units), rels])
        self._lambda_cache[key] = out
        return out

    def _Z(self, n, s, star):
        """Level-<= s elements whose differential lies at level <= star
        (both read modulo relations), as an echelon basis.  For star >= s
        that is all of _lambda(n, s); the stars below s all come from one
        echelon, see _cycle_lattices."""
        if not (0 <= n <= self.base.top):
            return la.zeros(0, 0)
        if s < 0:
            return self.base.group_at(n).relations
        s = min(s, self.span)
        star = max(min(star, s), -1)
        key = (n, s, star)
        hit = self._z_cache.get(key)
        if hit is None:
            if star == s:
                self._z_cache[key] = la.lattice_basis(self._lambda(n, s))
            else:
                self._z_cache.update(self._cycle_lattices(n, s))
            hit = self._z_cache[key]
        return hit

    def _cycle_lattices(self, n, s):
        """Z(n, s, star) for every star in -1..s-1, keyed (n, s, star).

        With L = _lambda(n, s) and R the relations of the target degree
        m, Z(n, s, star) is L times the y parts of {(y, z) : d L y - R z
        vanishes on the coordinates of C_m above level star}.  One tracked
        echelon of [d L | -R], its rows ordered by level from the highest
        down, gives them all: the transforms of the kernel columns and of
        the pivot columns whose lead row is at level <= star span that
        set, because the pivot columns have distinct lead rows and the
        rows above level star come first (the persistence reduction with
        rows in filtration order).  The generator sets grow with star, so
        one basis is extended from star = -1 up, and a star that adds
        nothing shares the lattice object of the star below.
        """
        lam = self._lambda(n, s)
        g = lam.shape[1]
        m = n + self.step
        levels = self._coord_levels.get(m, [])
        order = sorted(range(len(levels)), key=lambda i: -levels[i])
        pos = {i: k for k, i in enumerate(order)}
        row_level = [levels[i] for i in order]
        moved = self.base.d_from(n).matrix @ lam
        rels = self.base.group_at(m).relations
        cols = ([{pos[i]: x for i, x in col.items()} for col in moved.cols]
                + [{pos[i]: -x for i, x in col.items()} for col in rels.cols])
        pivots, live, tcols = la._echelon_cols(cols, track=True)
        # generators by the first star they serve: star + 1 indexes gens
        gens = [[] for _ in range(s + 1)]
        gens[0] = [tcols[j] for j in live]
        for r, j in pivots:
            if row_level[r] < s:
                gens[row_level[r] + 1].append(tcols[j])
        out = {}
        basis = []
        Z = None
        for star, ts in enumerate(gens, start=-1):
            ys = la.IntMatrix((g, len(ts)), [{i: x for i, x in t.items() if i < g} for t in ts])
            new = [col for col in (lam @ ys).cols if col]
            if new or Z is None:
                basis = la._basis_cols([dict(col) for col in basis] + new)
                Z = la.IntMatrix((lam.shape[0], len(basis)), basis)
            out[(n, s, star)] = Z
        return out


def build_filtered(P: GradedPoset, F: Diagram, variant: Variant) -> FilteredComplex:
    """The filtered Morse-reduced nerve complex of F for this preset and
    P's degrees, on the variant's matching, built once per (variant,
    display degrees) and kept on F; the checks run on every call."""
    if variant.direction != P.direction:
        raise VariantMismatchError(
            f"variant expects a {variant.direction} degree function, "
            f"the poset is {P.direction}")
    if F.poset.ids != P.ids or sorted(F.poset.covers) != sorted(P.covers):
        raise MismatchError("diagram is not over the given poset")
    key = (variant, tuple(P.display_degrees[i] for i in P.ids))
    X = F._filtered.get(key)
    if X is None:
        X = FilteredComplex(_cached_complex(F, variant.complex, variant.matching), variant, P)
        F._filtered[key] = X
    return X


@dataclass(frozen=True)
class SSPage:
    """One page: entries keyed by the variant's public (p, q), plus the
    same data in canonical (level, degree) keys for cross-checks.  Pages
    are cached on their filtered complex and shared by every caller, so
    the dicts they hold must not be mutated."""
    r: int
    type: str
    bidegree: tuple
    entries: dict
    differentials: dict
    sn_entries: dict = field(repr=False, default_factory=dict)
    sn_diffs: dict = field(repr=False, default_factory=dict)

    def entry(self, p, q) -> FgAbGroup:
        hit = self.entries.get((p, q))
        return hit if hit is not None else trivial_group()


def _public_key(X: FilteredComplex, s, n):
    ge = X.variant.condition == ">="
    p = (X.max_degree - s) if ge else (X.min_degree + s)
    aligned = (X.variant.complex == "chain") == (X.variant.type == "homological")
    t = n if aligned else -n
    return p, t - p


def page(X: FilteredComplex, r: int) -> SSPage:
    """Page r, computed once per (X, r); the returned page is shared and
    must not be mutated.

    Page 0 is the associated graded of the unreduced complex: at level s
    and degree n, the level-s chains' values, with the in-level part of d.
    From r = 1 on, the explicit subquotient on X's base: at each level s
    and degree n, cycles reaching r levels down, modulo the same from one
    level deeper plus boundaries from r-1 levels shallower.  A matching
    inside the levels is a filtered homotopy equivalence, so the reduced
    base gives the same pages from r = 1 on (Mischaikow-Nanda, 2013).

    From r = span + 1 on, every lattice below clamps to the same keys
    (cycles reaching level -1, boundaries from the top level) and no
    d_r lands on a level, so a later page is page span + 1 under its
    own r and bidegree."""
    if r < 0:
        raise ValueError("pages are indexed by r >= 0")
    hit = X._pages.get(r)
    if hit is not None:
        return hit
    bidegree = (r, 1 - r) if X.variant.type == "cohomological" else (-r, r - 1)
    if r > X.span + 1:
        X._pages[r] = replace(page(X, X.span + 1), r=r, bidegree=bidegree)
        return X._pages[r]
    step = X.step
    sn_entries, sn_diffs = _graded_page(X) if r == 0 else _subquotient_page(X, r)
    _check_dd_zero(sn_diffs, lambda k: (k[0] - r, k[1] + step))
    entries = {}
    diffs = {}
    for (s, n), E in sn_entries.items():
        if E.is_trivial:
            continue
        pq = _public_key(X, s, n)
        entries[pq] = E
        diffs[pq] = sn_diffs[(s, n)]
    X._pages[r] = SSPage(r, X.variant.type, bidegree, entries, diffs, sn_entries, sn_diffs)
    return X._pages[r]


def _graded_page(X: FilteredComplex):
    """Page 0's entries and differentials, keyed (level, degree): the
    groups and differentials of the unreduced complex's graded pieces."""
    sn_entries = {}
    sn_diffs = {}
    for s in range(X.span + 1):
        graded = _restrict_to_level(X.unreduced, s)
        for n in range(graded.top + 1):
            sn_entries[(s, n)] = graded.group_at(n)
            sn_diffs[(s, n)] = graded.d_from(n)
    return sn_entries, sn_diffs


def _subquotient_page(X: FilteredComplex, r: int):
    """Page r's entries and differentials for r >= 1, keyed (level,
    degree), from the cycle lattices of X's base."""
    step = X.step
    sn_entries = {}
    sn_lattice = {}
    for n in range(X.base.top + 1):
        d_in = X.base.d_into(n)
        for s in range(X.span + 1):
            Z = X._Z(n, s, s - r)
            deeper = X._Z(n, s - 1, s - r)
            arriving = d_in.matrix @ X._Z(n - step, s + r - 1, s)
            sn_entries[(s, n)] = subquotient(Z, la.hstack([deeper, arriving]),
                                             f"level {s}, degree {n}, page {r}")
            sn_lattice[(s, n)] = Z
    sn_diffs = {}
    for (s, n), E in sn_entries.items():
        d = X.base.d_from(n)
        moved = d.matrix @ sn_lattice[(s, n)]
        tgt = (s - r, n + step)
        if tgt in sn_entries:
            coeff = la.solve(sn_lattice[tgt], moved)
            if coeff is None:
                raise OracleViolation(
                    f"page-{r} differential leaves the target cycles at "
                    f"level {s}, degree {n}")
            sn_diffs[(s, n)] = AbHom(E, sn_entries[tgt], coeff)
        else:
            sn_diffs[(s, n)] = zero_hom(E, trivial_group())
    return sn_entries, sn_diffs


def _pages_agree(a: SSPage, b: SSPage) -> bool:
    keys = set(a.sn_entries) | set(b.sn_entries)
    for k in keys:
        ga = a.sn_entries.get(k, trivial_group())
        gb = b.sn_entries.get(k, trivial_group())
        if not ga.is_isomorphic_to(gb):
            return False
    return True


def e_infinity(X: FilteredComplex) -> SSPage:
    """The stable page, taken at r* = filtration span + 2; differentials
    of longer reach than the filtration width vanish, so stability is
    asserted against page r* + 1.  Both pages are page span + 1 under
    another r (see page), so the assertion holds by construction; the
    check that pages past span + 1 really are that page is the test
    suite's comparison with pages built from reference cycle lattices
    (tests/test_spectral.py, test_shared_pages_match_reference_pages)."""
    r_star = X.span + 2
    stable = page(X, r_star)
    if not _pages_agree(stable, page(X, r_star + 1)):
        raise OracleViolation(f"page {r_star} is not stable")
    return stable


def _restrict_to_level(X: FilteredComplex, s: int) -> ChainComplex:
    """The associated-graded complex at level s: the blocks at that
    exact level with the induced differential, built once per (X, s)."""
    hit = X._pieces.get(s)
    if hit is not None:
        return hit
    base = X.base
    keep = {n: [j for j, lv in enumerate(X._levels[n]) if lv == s]
            for n in range(base.top + 1)}
    blocks = {n: [base.blocks[n][j] for j in keep[n]] for n in keep}
    sums = {n: direct_sum([base.sums[n].summands[j] for j in keep[n]]) for n in keep}
    # the kept blocks keep their order, so the level's coordinates of C_n,
    # renumbered from 0, are the piece's coordinates
    coords = {n: [i for i, lv in enumerate(X._coord_levels[n]) if lv == s] for n in keep}
    diffs = {}
    for n, d in base._diffs.items():
        m = n + X.step
        row = {i: k for k, i in enumerate(coords[m])}
        cols = [{row[i]: x for i, x in d.matrix.cols[j].items() if i in row} for j in coords[n]]
        M = la.IntMatrix((len(row), len(cols)), cols)
        diffs[n] = AbHom(sums[n].group, sums[m].group, M, check=False)
    _check_dd_zero(diffs, lambda n: n + X.step)
    X._pieces[s] = ChainComplex(base.orientation, blocks, sums, diffs, base.top)
    return X._pieces[s]


def oracle_page_one(X: FilteredComplex):
    """Cross-check: page-1 entries equal the homology of the graded
    pieces of the unreduced complex, so on a reduced base this checks
    the reduction as well."""
    first = page(X, 1)
    for s in range(X.span + 1):
        graded = _restrict_to_level(X.unreduced, s)
        for n in range(X.base.top + 1):
            expected = homology_at(graded, n)
            got = first.sn_entries[(s, n)]
            if not got.is_isomorphic_to(expected):
                raise OracleViolation(
                    f"page 1 at level {s}, degree {n} is {got.describe()}, "
                    f"graded homology is {expected.describe()}")
    return first


def oracle_page_recurrence(X: FilteredComplex):
    """Cross-check: page r+1 is the homology of page r under d_r, for
    r < span + 2.  Page 0 and d_0 are the graded pieces of the unreduced
    complex, so their homology is the one oracle_page_one reads."""
    pages = [page(X, r) for r in range(X.span + 3)]
    step = X.step
    for r in range(X.span + 2):
        cur, nxt = pages[r], pages[r + 1]
        for (s, n), E in cur.sn_entries.items():
            if r == 0:
                H = homology_at(_restrict_to_level(X.unreduced, s), n)
            else:
                d_in = cur.sn_diffs.get((s + r, n - step)) or zero_hom(trivial_group(), E)
                H = homology(d_in, cur.sn_diffs[(s, n)],
                             f"level {s}, degree {n} of page {r}'s homology")
            if not H.is_isomorphic_to(nxt.sn_entries[(s, n)]):
                raise OracleViolation(
                    f"homology of page {r} at level {s}, degree {n} is "
                    f"{H.describe()}, page {r + 1} holds "
                    f"{nxt.sn_entries[(s, n)].describe()}")
    return pages


@dataclass(frozen=True)
class DegreeComparison:
    rank_ss: int
    rank_target: int
    orders_compared: bool
    order_ss: int = None
    order_target: int = None


@dataclass(frozen=True)
class ConvergenceReport:
    ok: bool
    variant: Variant
    by_degree: dict


def _compare_totals(stable, n, target, where, what) -> DegreeComparison:
    """Rank additivity of the stable entries in total degree n against
    target, and order multiplicativity when both sides are finite;
    ConvergenceViolation at where, calling target what, otherwise."""
    parts = [g for (s, m), g in stable.sn_entries.items() if m == n and not g.is_trivial]
    rank = sum(g.free_rank for g in parts)
    if rank != target.free_rank:
        raise ConvergenceViolation(f"{where}: stable page ranks sum to {rank}, "
                                   f"{what} has rank {target.free_rank}")
    orders = [g.order() for g in parts]
    finite = target.order() is not None and None not in orders
    order = prod(orders) if finite else None
    if finite and order != target.order():
        raise ConvergenceViolation(f"{where}: stable page orders multiply to {order}, "
                                   f"{what} has order {target.order()}")
    return DegreeComparison(rank, target.free_rank, finite, order, target.order())


def convergence_check(P: GradedPoset, F: Diagram, variant: Variant) -> ConvergenceReport:
    """Rank additivity of the stable page against the derived functors
    in every total degree, and order multiplicativity whenever both
    sides are finite.  Extension data beyond that is not determined by
    the stable page, so it is not compared."""
    X = build_filtered(P, F, variant)
    stable = e_infinity(X)
    direction = "colim" if variant.complex == "chain" else "lim"
    by_degree = {n: _compare_totals(stable, n, derived_functor(F, direction, n),
                                    f"total degree {n}", f"{direction}_{n}")
                 for n in range(X.base.top + 1)}
    return ConvergenceReport(True, variant, by_degree)


def inner_column_ss(P: GradedPoset, F: Diagram, p: int, variant: Variant):
    """Pages of the second-level sequence feeding the outer page-1
    column at p: the level-p graded piece of the unreduced complex
    refiltered by the other vertex (the matching keeps only the first
    filtration's key vertex, so a reduced piece would change the inner
    pages).  The stable inner page is checked for rank/order consistency
    against that column."""
    X = build_filtered(P, F, variant)
    if not (X.min_degree <= p <= X.max_degree):
        raise ValueError(f"p = {p} outside the degree range "
                         f"[{X.min_degree}, {X.max_degree}]")
    ge = X.variant.condition == ">="
    s_fixed = (X.max_degree - p) if ge else (p - X.min_degree)
    graded = _restrict_to_level(X.unreduced, s_fixed)
    inner = FilteredComplex(graded, variant.second, P)
    r_star = inner.span + 2
    pages = [page(inner, r) for r in range(r_star + 1)]
    outer_one = page(X, 1)
    for n in range(X.base.top + 1):
        _compare_totals(pages[-1], n, outer_one.sn_entries[(s_fixed, n)],
                        f"inner sequence at p = {p}, degree {n}", "the outer column")
    return pages
