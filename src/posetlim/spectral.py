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
two-ended matching, which keeps both.  The filtered complex checks that
its base's matching fixes the key vertex, and the base checked every
pair its flows expand against the ends it fixes, so each matched pair
that shapes a differential is checked to keep the key vertex, and the
matching is never listed.  Page 0 is the associated graded of the
unreduced complex, built level by level: the level-s piece holds the
chains whose key vertex is at level s, with the faces that keep that
vertex, as dropping it always leaves the level.  The pieces are built
on first use, by page 0 or the page-1 oracle, and never by later pages,
E-infinity or the convergence check; nothing builds the whole unreduced
nerve complex.  The inner-column sequences, which refilter one level
piece by the other vertex, are a test oracle (tests/helpers.py), not
part of the library.

Each cycle lattice Z(n, s, star), the level-<= s chains of C_n whose
differential lies at level <= star, is read off one lattice preimage
per (degree, reach) with C_n's coordinates in filtration order, highest
level first, the integer form of the persistence reduction
(Zomorodian-Carlsson, 2005; Basu-Parida, 2017).  Only the levels that
hold a coordinate of the base in that degree get lattices of their own;
every other level has those of the occupied level below it.  Past
r = span + 1 every page has the same lattices and no differential, so
those pages share page span + 1's entries.  Every solve against a cycle
lattice, for its entry (abgroup.subquotient) or for the containment
check, reuses the SpanChecker the lattice keeps (IntMatrix.span).

From r = 1 on, an entry can be nonzero only at an occupied (level,
degree), one where the base has a coordinate: elsewhere the cycles are
those one level deeper.  So the builder visits the occupied keys only,
and its cost follows the critical cells of the Morse base rather than
span x degrees.  A trivial entry there is the one shared zero group
(abgroup.trivial_group(), the same instance as an empty degree of a
complex and its homology), and a map into it an empty zero map; no map
leaves it.  The checks on the boundaries, the containment of each
differential in its target's cycles (occupied or not) and
well-definedness run at every occupied key.  At any other key none can
fail.  Its cycles are those one level
deeper, so their image under d is the lattice of boundaries arriving at
the target, which the target's own boundary check tests.  And its
boundaries lie in its cycles whenever d o d vanishes, which the base
checked, and the lattices are right.  The page recurrence takes the
homology at a zero entry to be zero.

Internal bookkeeping uses one canonical shape: levels are shifted so
the filtration is increasing from 0 and the differential never raises
the level.  The builders work in (level, degree); a page keeps only its
nonzero entries, and the differential out of each, keyed by the
preset's (p, q), with q chosen so that d_r has the textbook bidegree
for the declared homological or cohomological type.  The page checks
read the page in those keys, an absent key being the zero group.

Each page is computed once per filtered complex and kept on it, and
each filtered complex once per (diagram, variant, grading) and kept on
the diagram over the diagram's cached reduced complex, so E-infinity,
the convergence check and both page oracles reuse the same pages.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from math import prod

from . import intlinalg as la
from .abgroup import AbHom, homology, subquotient, trivial_group, zero_hom
from .derived import (
    ChainComplex,
    _cached_complex,
    _check_budget,
    _check_dd_zero,
    _complex,
    _faces,
    derived_functor,
    homology_at,
)
from .diagram import Diagram
from .errors import ConvergenceViolation, MismatchError, OracleViolation, VariantMismatchError
from .poset import GradedPoset, chain_total, chains_up_to

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

# the shared zero group, which every trivial entry of a page r >= 1 is
_ZERO = trivial_group()


class Variant(namedtuple("Variant", "complex key direction")):
    """One row of the eight filtration presets: complex is chain or
    cochain, key last or first (which chain vertex carries the level),
    direction increasing or decreasing (must match the poset)."""
    __slots__ = ()

    def __new__(cls, complex, key, direction):
        if (complex, direction, key) not in _CONDITION:
            raise ValueError(f"no preset for ({complex!r}, {key!r}, {direction!r})")
        return super().__new__(cls, complex, key, direction)

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

    A chain's preset p is the display degree of its key vertex.  Its
    canonical level (_level) shifts that to 0-based increasing form, and
    the levels are stored once, per coordinate of each degree
    (_coord_levels), with the sorted set of them each degree occupies
    (_occupied); the respect invariant (the differential never raises
    the canonical level) is verified on construction, entry by nonzero
    entry, and so is the base's matching:
    it must fix the key vertex of every pair, or the reduction would not
    be filtered.  The base checks each pair its flows expand against the
    ends it fixes (derived._morse_complex).
    """

    def __init__(self, base: ChainComplex, variant: Variant, poset: GradedPoset):
        self.base = base
        self.variant = variant
        self.poset = poset
        degs = poset.display_degrees
        self.min_degree = min(degs.values())
        self.max_degree = max(degs.values())
        self.span = self.max_degree - self.min_degree
        # the variant read once: _level runs per chain, _public_key per key
        self._key = -1 if variant.key == "last" else 0
        self._from_top = variant.condition == ">="
        self._type = variant.type
        self._sign = 1 if (variant.complex == "chain") == (self._type == "homological") else -1
        self._coord_levels = {
            n: [lv for c, G in zip(base.blocks[n], base.sums[n].summands)
                for lv in [self._level(c)] * G.ambient_rank]
            for n in range(base.top + 1)}
        self._occupied = {n: sorted(set(lvs)) for n, lvs in self._coord_levels.items()}
        self._z_cache = {}
        self._preimages = {}
        self._pages = {}
        self._check_respected()
        self._check_matching()

    def _level(self, c) -> int:
        """The canonical level of the chain c."""
        p = self.poset.display_degrees[c[self._key]]
        return (self.max_degree - p) if self._from_top else (p - self.min_degree)

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
        """An unreduced base has no matching; a reduced one must fix the
        first vertex (key first) or the last (key last)."""
        fixed = self.base.fixed
        if fixed is not None and not fixed[self._key]:
            raise OracleViolation(
                f"the base's matching fixes the ends {fixed}, so its pairs may move the "
                f"{self.variant.key} vertex, which carries the filtration level")

    @cached_property
    def _pieces(self) -> dict:
        """{level s: the associated-graded complex at s}, built on first
        use from the base's diagram: the nerve's chains whose key vertex is
        at level s, with the faces that keep that vertex.  The whole nerve
        is counted against the chain budget before a chain is listed."""
        P = self.poset
        _check_budget(chain_total(P, P.ids), "the nerve")
        blocks = {s: {n: [] for n in range(P.length + 1)} for s in range(self.span + 1)}
        for n, chains in enumerate(chains_up_to(P, P.length)):
            for c in chains:
                blocks[self._level(c)][n].append(c)
        D, kind, key = self.base.diagram, self.variant.complex, self._key

        def in_level(c):
            return [face for face in _faces(D, kind, c) if face[0][key] == c[key]]

        return {s: _complex(D, kind, b, in_level) for s, b in blocks.items()}

    def _Z(self, n, s, star):
        """Level-<= s elements whose differential lies at level <= star
        (both read modulo relations), as a lattice basis.  A level that
        holds no coordinate of C_n adds nothing to it, so s clamps down to
        the highest such occupied level (found by bisection), below which
        only the relations are left; and as d never raises the level, a
        star >= s gives every level-<= s element, so star clamps to s.

        The prefix argument: in level order, highest first, an element
        lies at level <= s exactly when its leading coordinate does, so
        the level-<= s part of a lattice is spanned by the suffix of its
        echelon basis that leads at level <= s.  Z(n, s, star) is that
        suffix of K(n, star) (_preimage), which holds every relation,
        joined with the relations above level s, whose support is
        disjoint from it.  Every star with the same reach, the highest
        level <= star holding a coordinate of the target, shares one
        lattice object."""
        occupied = self._occupied.get(n)
        if occupied is None:
            return la.zeros(0, 0)
        i = bisect_right(occupied, s)
        if not i:
            return self.base.group_at(n).relations
        s = occupied[i - 1]
        star = max(min(star, s), -1)
        hit = self._z_cache.get((n, s, star))
        if hit is None:
            target = self._occupied.get(n + self.step, ())
            j = bisect_right(target, star)
            reach = target[j - 1] if j else -1
            hit = self._z_cache.get((n, s, reach))
            if hit is None:
                K, leads = self._preimage(n, reach)
                levels = self._coord_levels[n]
                cols = [col for col in self._relation_bases[n] if levels[min(col)] > s]
                cols += K[bisect_left(leads, -s):]
                hit = self._z_cache[(n, s, reach)] = la.IntMatrix((len(levels), len(cols)), cols)
            self._z_cache[(n, s, star)] = hit
        return hit

    @cached_property
    def _relation_bases(self) -> dict:
        """{n: the columns of one echelon basis of C_n's relations}.  A
        relation lies in one block, so each column lies at one level."""
        return {n: la.lattice_basis(self.base.group_at(n).relations).cols
                for n in self._coord_levels}

    def _preimage(self, n, reach):
        """K(n, reach), the elements of C_n whose differential lies at
        level <= reach modulo relations: the preimage of the target's
        relations above level reach, which lie one level each, under the
        rows of d above it, from one preimage_lattice per (n, reach) in
        C_n's level order.  Returns its echelon basis in C_n's coordinates
        and minus the level each column leads at (nondecreasing)."""
        hit = self._preimages.get((n, reach))
        if hit is None:
            levels, m = self._coord_levels[n], n + self.step
            order = sorted(range(len(levels)), key=levels.__getitem__, reverse=True)
            row = {i: k for k, i in enumerate(
                i for i, lv in enumerate(self._coord_levels.get(m, ())) if lv > reach)}

            def rows_above(cols):
                return la.IntMatrix((len(row), len(cols)),
                                    [{row[i]: x for i, x in c.items() if i in row} for c in cols])

            d = self.base.d_from(n).matrix.cols
            K = la.preimage_lattice(rows_above([d[j] for j in order]),
                                    rows_above(self.base.group_at(m).relations.cols))
            hit = self._preimages[(n, reach)] = (
                [{order[k]: x for k, x in col.items()} for col in K.cols],
                [-levels[order[min(col)]] for col in K.cols])
        return hit


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
    return F.kept(("filtered", variant, tuple(P.display_degrees[i] for i in P.ids)), lambda: (
        FilteredComplex(_cached_complex(F, variant.complex, variant.matching), variant, P)))


# One page: its nonzero entries, and the differential out of each, keyed
# by the variant's public (p, q); a key it does not hold is the zero
# group.  Pages are cached on their filtered complex and shared by every
# caller, so the dicts they hold must not be mutated.
SSPage = namedtuple("SSPage", "r type bidegree entries differentials")


def _total(X: FilteredComplex, n):
    """The total degree p + q of X's entries in complex degree n."""
    return X._sign * n


def _public_key(X: FilteredComplex, s, n):
    p = (X.max_degree - s) if X._from_top else (X.min_degree + s)
    return p, X._sign * n - p


def page(X: FilteredComplex, r: int) -> SSPage:
    """Page r, computed once per (X, r); the returned page is an
    immutable named tuple, shared, whose dicts must not be mutated.

    Page 0 is the associated graded of the unreduced complex: at level s
    and degree n, the level-s chains' values, with the in-level part of d,
    from X's level pieces.
    From r = 1 on, the explicit subquotient on X's base: at each level s
    that holds a coordinate of C_n (every other entry is zero), cycles
    reaching r levels down, modulo the same from one level deeper plus
    boundaries from r-1 levels shallower.  A matching
    inside the levels is a filtered homotopy equivalence, so the reduced
    base gives the same pages from r = 1 on (Mischaikow-Nanda, 2013).

    From r = span + 1 on, every lattice below clamps to the same keys
    (cycles reaching level -1, boundaries from the top level) and no
    d_r lands on a level, so a later page is page span + 1 under its
    own r and bidegree, holding the same dicts."""
    if r < 0:
        raise ValueError("pages are indexed by r >= 0")
    hit = X._pages.get(r)
    if hit is not None:
        return hit
    bidegree = (r, 1 - r) if X._type == "cohomological" else (-r, r - 1)
    if r > X.span + 1:
        X._pages[r] = page(X, X.span + 1)._replace(r=r, bidegree=bidegree)
        return X._pages[r]
    step = X.step
    groups, maps = _graded_page(X) if r == 0 else _subquotient_page(X, r)
    _check_dd_zero(maps, lambda k: (k[0] - r, k[1] + step))
    entries = {}
    diffs = {}
    for (s, n), E in groups.items():
        if not E.is_trivial:
            pq = _public_key(X, s, n)
            entries[pq] = E
            diffs[pq] = maps[(s, n)]
    X._pages[r] = SSPage(r, X._type, bidegree, entries, diffs)
    return X._pages[r]


def _graded_page(X: FilteredComplex):
    """Page 0's entries and differentials, keyed (level, degree): the
    groups and differentials of X's level pieces."""
    groups = {}
    maps = {}
    for s, graded in X._pieces.items():
        for n in range(graded.top + 1):
            groups[(s, n)] = graded.group_at(n)
            maps[(s, n)] = graded.d_from(n)
    return groups, maps


def _subquotient_page(X: FilteredComplex, r: int):
    """Page r's entries and differentials for r >= 1, keyed (level,
    degree), from the cycle lattices of X's base: the entry at each
    occupied (s, n), where level s holds a coordinate of C_n (every other
    entry is zero), and the differential out of each nonzero one.

    A trivial entry is _ZERO, and a map into it an empty zero_hom.  The
    checks run at every occupied key: the boundaries lie in the cycles
    (abgroup.subquotient refuses them otherwise, at an empty cycle
    lattice too), the differential lands in its target's cycles,
    occupied or not, and out of a trivial entry into a nonzero one it is
    well defined on the entry's own presentation.  Into a trivial entry
    every map is well defined, as its relations span its whole ambient
    lattice."""
    step = X.step
    presented = {}
    for n, occupied in X._occupied.items():
        d_in = X.base.d_into(n)
        for s in occupied:
            deeper = X._Z(n, s - 1, s - r)
            arriving = d_in.matrix @ X._Z(n - step, s + r - 1, s)
            presented[(s, n)] = subquotient(X._Z(n, s, s - r), la.hstack([deeper, arriving]),
                                            f"level {s}, degree {n}, page {r}")
    groups = {k: _ZERO if E.is_trivial else E for k, E in presented.items()}
    maps = {}
    for (s, n), E in groups.items():
        m = n + step
        T = groups.get((s - r, m), _ZERO)
        if s >= r and m in X._occupied:
            moved = X.base.d_from(n).matrix @ X._Z(n, s, s - r)
            coeff = la.solve(X._Z(m, s - r, s - 2 * r), moved)
            if coeff is None:
                raise OracleViolation(
                    f"page-{r} differential leaves the target cycles at "
                    f"level {s}, degree {n}")
            if T is not _ZERO:
                d = AbHom(presented[(s, n)], T, coeff)  # ValueError unless well defined
                if E is not _ZERO:
                    maps[(s, n)] = d
                continue
        if E is not _ZERO:
            maps[(s, n)] = zero_hom(E, T)
    return groups, maps


def e_infinity(X: FilteredComplex) -> SSPage:
    """The stable page, taken at r* = filtration span + 2: differentials
    of longer reach than the filtration width vanish.  Every page past
    span + 1 is page span + 1 under another r (see page), so it is
    stable by construction.  The test suite checks that those pages hold
    page span + 1's entries, that it has no nonzero differential, and
    that it matches pages built from reference cycle lattices
    (tests/test_spectral.py)."""
    return page(X, X.span + 2)


def oracle_page_one(X: FilteredComplex):
    """Cross-check: page-1 entries equal the homology of the level
    pieces, so on a reduced base this checks the reduction as well, and
    the pieces against the base."""
    first = page(X, 1)
    for s, graded in X._pieces.items():
        for n in range(X.base.top + 1):
            expected = homology_at(graded, n)
            got = first.entries.get(_public_key(X, s, n), _ZERO)
            if not got.is_isomorphic_to(expected):
                raise OracleViolation(
                    f"page 1 at level {s}, degree {n} is {got.describe()}, "
                    f"graded homology is {expected.describe()}")
    return first


def oracle_page_recurrence(X: FilteredComplex):
    """Cross-check: page r+1 is the homology of page r under d_r, for
    r <= span, and returns pages 0..span + 2.  Page 0 and d_0 are the
    level pieces, so the r = 0 step is
    oracle_page_one.  From r = 1 on, the keys compared are those where
    page r or page r + 1 holds an entry, as both are zero elsewhere; the
    homology at a key page r does not hold is zero.  Pages past
    span + 1 are page span + 1 under another r (see page), with no
    differential landing on a level, so they are not compared again."""
    oracle_page_one(X)
    pages = [page(X, r) for r in range(X.span + 3)]
    for r in range(1, X.span + 1):
        cur, nxt = pages[r], pages[r + 1]
        dp, dq = cur.bidegree
        for p, q in sorted(cur.entries.keys() | nxt.entries.keys()):
            E = cur.entries.get((p, q))
            if E is None:
                H = _ZERO
            else:
                d_in = cur.differentials.get((p - dp, q - dq)) or zero_hom(_ZERO, E)
                H = homology(d_in, cur.differentials[(p, q)],
                             f"({p}, {q}) of page {r}'s homology")
            got = nxt.entries.get((p, q), _ZERO)
            if not H.is_isomorphic_to(got):
                raise OracleViolation(
                    f"homology of page {r} at ({p}, {q}) is {H.describe()}, "
                    f"page {r + 1} holds {got.describe()}")
    return pages


DegreeComparison = namedtuple(
    "DegreeComparison", "rank_ss rank_target orders_compared order_ss order_target",
    defaults=(None, None))
ConvergenceReport = namedtuple("ConvergenceReport", "ok variant by_degree")


def _compare_totals(stable, t, target, where, what) -> DegreeComparison:
    """Rank additivity of the stable entries in total degree t (p + q = t)
    against target, and order multiplicativity when both sides are
    finite; ConvergenceViolation at where, calling target what, otherwise."""
    parts = [g for (p, q), g in stable.entries.items() if p + q == t]
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
    by_degree = {n: _compare_totals(stable, _total(X, n), derived_functor(F, direction, n),
                                    f"total degree {n}", f"{direction}_{n}")
                 for n in range(X.base.top + 1)}
    return ConvergenceReport(True, variant, by_degree)
