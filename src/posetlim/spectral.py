"""Spectral sequences of degree-filtered nerve complexes.

Either nerve complex can be filtered by the degree of the last or the
first vertex of each chain; with the two degree directions that gives
eight presets.  Pages come straight from the cycle/boundary subquotient
formula on integer lattices, so every page is exact and the classical
page-to-page homology recurrence is available as an independent check
rather than the method of computation.

Internal bookkeeping uses one canonical shape: levels are shifted so
the filtration is increasing from 0 and the differential never raises
the level.  Published entries translate back to the preset's (p, q)
indexing, with q chosen so that d_r has the textbook bidegree for the
declared homological or cohomological type.

Each page is computed once per filtered complex and kept on it, and
each filtered complex once per (diagram, variant, grading) and kept on
the diagram over the diagram's cached nerve complex, so E-infinity, the
convergence check and both page oracles reuse the same pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """A nerve complex with a level attached to every chain block.

    filtration_index maps (degree n, chain) to the preset's p, the
    display degree of the key vertex.  Canonical levels shift that to
    0-based increasing form; the respect invariant (the differential
    never raises the canonical level) is verified on construction, entry
    by nonzero entry.
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
        for n in range(base.top + 1):
            lv = []
            for c in base.blocks[n]:
                key_id = c.last if variant.key == "last" else c.first
                p = degs[key_id]
                self.filtration_index[(n, c)] = p
                lv.append((self.max_degree - p) if ge else (p - self.min_degree))
            self._levels[n] = lv
        self._lambda_cache = {}
        self._z_cache = {}
        self._pages = {}
        self._check_respected()

    @property
    def step(self) -> int:
        return self.base.step

    def _block_widths(self, n):
        return [G.ambient_rank for G in self.base.sums[n].summands]

    def _check_respected(self):
        # the level of every ambient coordinate, per degree
        coord_level = [[lv for lv, w in zip(self._levels[n], self._block_widths(n))
                        for _ in range(w)] for n in range(self.base.top + 1)]
        for n, d in self.base._diffs.items():
            m = n + self.step
            for c, col in enumerate(d.matrix.cols):
                if any(coord_level[m][i] > coord_level[n][c] for i in col):
                    raise OracleViolation(
                        "differential raises the filtration level "
                        f"between degrees {n} and {m}")

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
            blocks = []
            at = 0
            for j, (lv, w) in enumerate(zip(self._levels[n], self._block_widths(n))):
                if lv <= s:
                    blocks.append((self.base.block_offset(n, j), at, 1, la.eye(w)))
                    at += w
            blocks.append((0, at, 1, rels))
            out = la.from_blocks(group.ambient_rank, at + rels.shape[1], blocks)
        self._lambda_cache[key] = out
        return out

    def _Z(self, n, s, star):
        """Level-<= s elements whose differential lies at level <= star
        (both read modulo relations)."""
        if not (0 <= n <= self.base.top):
            return la.zeros(0, 0)
        if s < 0:
            return self.base.group_at(n).relations
        s = min(s, self.span)
        star = max(min(star, self.span), -1)
        key = (n, s, star)
        hit = self._z_cache.get(key)
        if hit is not None:
            return hit
        d = self.base.d_from(n)
        pre = la.preimage_lattice(d.matrix, self._lambda(n + self.step, star))
        out = la.intersect_lattices(self._lambda(n, s), pre)
        self._z_cache[key] = out
        return out


def build_filtered(P: GradedPoset, F: Diagram, variant: Variant) -> FilteredComplex:
    """The filtered nerve complex of F for this preset and P's degrees,
    built once per (variant, display degrees) and kept on F; the checks
    run on every call."""
    if variant.direction != P.direction:
        raise VariantMismatchError(
            f"variant expects a {variant.direction} degree function, "
            f"the poset is {P.direction}")
    if F.poset.ids != P.ids or sorted(F.poset.covers) != sorted(P.covers):
        raise MismatchError("diagram is not over the given poset")
    key = (variant, tuple(P.display_degrees[i] for i in P.ids))
    X = F._filtered.get(key)
    if X is None:
        X = FilteredComplex(_cached_complex(F, variant.complex), variant, P)
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
    """The explicit subquotient page: at each level s and degree n,
    cycles reaching r levels down, modulo the same from one level
    deeper plus boundaries from r-1 levels shallower.  Computed once
    per (X, r); the returned page is shared and must not be mutated."""
    if r < 0:
        raise ValueError("pages are indexed by r >= 0")
    hit = X._pages.get(r)
    if hit is not None:
        return hit
    step = X.step
    top = X.base.top
    sn_entries = {}
    sn_lattice = {}
    for n in range(top + 1):
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
    _check_dd_zero(sn_diffs, lambda k: (k[0] - r, k[1] + step))
    entries = {}
    diffs = {}
    for (s, n), E in sn_entries.items():
        if E.is_trivial:
            continue
        pq = _public_key(X, s, n)
        entries[pq] = E
        diffs[pq] = sn_diffs[(s, n)]
    bidegree = (r, 1 - r) if X.variant.type == "cohomological" else (-r, r - 1)
    X._pages[r] = SSPage(r, X.variant.type, bidegree, entries, diffs, sn_entries, sn_diffs)
    return X._pages[r]


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
    asserted against page r* + 1."""
    r_star = X.span + 2
    stable = page(X, r_star)
    if not _pages_agree(stable, page(X, r_star + 1)):
        raise OracleViolation(f"page {r_star} is not stable")
    return stable


def _restrict_to_level(X: FilteredComplex, s: int) -> ChainComplex:
    """The associated-graded complex at level s: the blocks at that
    exact level with the induced differential."""
    base = X.base
    keep = {n: [j for j, lv in enumerate(X._levels[n]) if lv == s]
            for n in range(base.top + 1)}
    blocks = {n: [base.blocks[n][j] for j in keep[n]] for n in keep}
    sums = {n: direct_sum([base.sums[n].summands[j] for j in keep[n]]) for n in keep}
    # place[n] includes the kept blocks into C_n, so the graded piece of d
    # is place[m].T @ d @ place[n]
    place = {n: la.from_blocks(
        base.group_at(n).ambient_rank, sums[n].group.ambient_rank,
        [(base.block_offset(n, j), off, 1, la.eye(G.ambient_rank))
         for j, G, off in zip(keep[n], sums[n].summands, sums[n].offsets)]) for n in keep}
    diffs = {}
    for n, d in base._diffs.items():
        m = n + X.step
        M = place[m].T @ d.matrix @ place[n]
        diffs[n] = AbHom(sums[n].group, sums[m].group, M, check=False)
    _check_dd_zero(diffs, lambda n: n + X.step)
    return ChainComplex(base.orientation, blocks, sums, diffs, base.top,
                        base.vanishes_above_top)


def oracle_page_one(X: FilteredComplex):
    """Cross-check: page-1 entries equal the homology of the
    associated-graded complexes computed by restriction."""
    first = page(X, 1)
    for s in range(X.span + 1):
        graded = _restrict_to_level(X, s)
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
    r < span + 2."""
    pages = [page(X, r) for r in range(X.span + 3)]
    step = X.step
    for r in range(X.span + 2):
        cur, nxt = pages[r], pages[r + 1]
        for (s, n), E in cur.sn_entries.items():
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
    column at p: the level-p graded piece refiltered by the other
    vertex.  The stable inner page is checked for rank/order
    consistency against that column."""
    X = build_filtered(P, F, variant)
    if not (X.min_degree <= p <= X.max_degree):
        raise ValueError(f"p = {p} outside the degree range "
                         f"[{X.min_degree}, {X.max_degree}]")
    ge = X.variant.condition == ">="
    s_fixed = (X.max_degree - p) if ge else (p - X.min_degree)
    graded = _restrict_to_level(X, s_fixed)
    inner = FilteredComplex(graded, variant.second, P)
    r_star = inner.span + 2
    pages = [page(inner, r) for r in range(r_star + 1)]
    outer_one = page(X, 1)
    for n in range(X.base.top + 1):
        _compare_totals(pages[-1], n, outer_one.sn_entries[(s_fixed, n)],
                        f"inner sequence at p = {p}, degree {n}", "the outer column")
    return pages
