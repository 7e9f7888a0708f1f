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

The Morse base then goes through one block elimination
(_cancel_level_pairs) before any lattice is built: a cell a and a cell
b one degree along d, at one level, whose block of d is +I or -I
between identical presentations, are cancelled, and every other
component of d becomes d - d_{.a} (+-I) d_{b.}.  Cancelling a pair whose
block is an isomorphism is a chain homotopy equivalence
(Kaczynski-Mrozek-Slusarek, Computers Math. Applic. 35, 1998), and the
inverse of +-I adds no denominators.  With both cells at one level it
is filtered: d never raises the level, so neither does the update term,
which passes through that level, and again no page from E1 on changes
(Mischaikow-Nanda, 2013).  The two-ended matching keeps a cell at nearly
every level of a chain, and the elimination leaves about what
E-infinity holds.  The filtered complex checks that each cancelled pair
lies at one level, as it checks the matching's fixed ends, and the
eliminated complex is checked for d o d = 0.  A filtered complex built
directly on a complex keeps that complex as its base.

Each cycle lattice Z(n, s, star), the level-<= s chains of C_n whose
differential lies at level <= star, is one lattice preimage: of the
relations, under x -> (x, d x) read on the coordinates above s and above
star, as a relation lies at one level.  Only the levels that hold a
coordinate of the base in that degree get lattices of their own; every
other level has those of the occupied level below it.  Past
r = span + 1 every page has the same lattices and no differential, so
those pages share page span + 1's entries.  Every solve against a cycle
lattice, for its entry (abgroup.subquotient) or for the containment
check, reuses the SpanChecker the lattice keeps (IntMatrix.span).

From r = 1 on, an entry can be nonzero only at an occupied (level,
degree), one where the base has a coordinate: elsewhere the cycles are
those one level deeper.  So the builder visits the occupied keys only,
and its cost follows the cells that the elimination leaves rather than
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
checked (the Morse base, and again after elimination), and the lattices
are right.  The page recurrence takes the
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

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from math import prod

from . import intlinalg as la
from .abgroup import AbHom, direct_sum, homology, subquotient, trivial_group, zero_hom
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


def _level_of(P: GradedPoset, variant: Variant):
    """The canonical level of a chain under this preset on P's degrees, as
    a function of the chain: its key vertex's display degree, shifted so
    that the filtration increases from 0."""
    degs = P.display_degrees
    key = -1 if variant.key == "last" else 0
    if variant.condition == ">=":
        top = max(degs.values())
        return lambda c: top - degs[c[key]]
    low = min(degs.values())
    return lambda c: degs[c[key]] - low


class FilteredComplex:
    """A nerve complex, unreduced, Morse-reduced or Morse-reduced and
    eliminated, with a level attached to every chain block.

    A chain's preset p is the display degree of its key vertex.  Its
    canonical level (_level) shifts that to 0-based increasing form, and
    the levels are stored once, per coordinate of each degree
    (_coord_levels), with the sorted set of them each degree occupies
    (_occupied); each cycle lattice is kept once per (degree, clamped
    level, reach) (_z_cache, see _Z).  The respect invariant (the
    differential never raises the canonical level) is verified on
    construction, entry by nonzero entry, and so is the base's matching:
    it must fix the key vertex of every pair, or the reduction would not
    be filtered, and each pair its elimination cancelled must lie at one
    level.  The base checks each pair its flows expand against the ends
    it fixes (derived._morse_complex).
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
        self._level = _level_of(poset, variant)
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
        self._pages = {}
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
        """An unreduced base has no matching; a reduced one must fix the
        first vertex (key first) or the last (key last).  Each pair of
        cells the base's elimination cancelled must lie at one level."""
        fixed = self.base.fixed
        if fixed is not None and not fixed[self._key]:
            raise OracleViolation(
                f"the base's matching fixes the ends {fixed}, so its pairs may move the "
                f"{self.variant.key} vertex, which carries the filtration level")
        for a, b in self.base.cancelled:
            if self._level(a) != self._level(b):
                raise OracleViolation(
                    f"the cancelled cells {a} and {b} lie at levels {self._level(a)} "
                    f"and {self._level(b)}, so their elimination is not filtered")

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
        only the relations are left; and as d never raises the level, star
        clamps to s, then to its reach, the highest level <= star holding
        a coordinate of the target.  A relation lies in one block, so at
        one level, and x lies at level <= s modulo relations exactly when
        its coordinates above s are a combination of those there: Z is
        one preimage, of the relations of C_n and of the target under
        x -> (x, d x) on the rows above s and above reach."""
        occupied = self._occupied.get(n)
        if occupied is None:
            return la.zeros(0, 0)
        i = bisect_right(occupied, s)
        if not i:
            return self.base.group_at(n).relations
        s, m = occupied[i - 1], n + self.step
        target = self._occupied.get(m, ())
        j = bisect_right(target, min(star, s))
        reach = target[j - 1] if j else -1
        hit = self._z_cache.get((n, s, reach))
        if hit is None:
            # C_n's coordinates are rows 0..g-1 and the target's follow
            g = len(self._coord_levels[n])
            mine = [i for i, lv in enumerate(self._coord_levels[n]) if lv > s]
            row = {i: k for k, i in enumerate(mine + [
                g + i for i, lv in enumerate(self._coord_levels.get(m, ())) if lv > reach])}

            def above(cols, shift):
                return [{row[i + shift]: x for i, x in c.items() if i + shift in row} for c in cols]

            graph = above(self.base.d_from(n).matrix.cols, g)
            for k, j in enumerate(mine):
                graph[j][k] = 1
            rel = (above(self.base.group_at(n).relations.cols, 0)
                   + above(self.base.group_at(m).relations.cols, g))
            hit = self._z_cache[(n, s, reach)] = la.preimage_lattice(
                la.IntMatrix((len(row), g), graph), la.IntMatrix((len(row), len(rel)), rel))
        return hit


def _cancel_level_pairs(base: ChainComplex, level) -> ChainComplex:
    """base with its same-level +-identity pairs cancelled (see the
    module docstring), level(c) being the level of the cell c.

    Each differential's columns are read once and indexed by row, then
    its source cells a are walked in block order, each cancelled with
    the first cell b its current columns meet in a block eps * I.  That
    takes eps * x times a's k-th column from each column with an entry x
    in b's k-th row, clearing b's rows, and drops a's columns, b's rows,
    a's rows from the differential into C_n and b's columns from the one
    out of C_{n+step}.  The base itself comes back when nothing cancels;
    otherwise the result keeps its diagram and fixed ends, lists its
    pairs as cancelled, and is checked for d o d = 0."""
    step = base.step
    degrees = range(base.top + 1)
    levels = {n: [level(c) for c in base.blocks[n]] for n in degrees}
    owner = {n: [j for j, G in enumerate(base.sums[n].summands) for _ in range(G.ambient_rank)]
             for n in degrees}
    dead = {n: set() for n in degrees}
    work = {}
    pairs = []
    for n, d in sorted(base._diffs.items()):
        m = n + step
        src, tgt = base.sums[n], base.sums[m]
        cols = {i: {r: x for r, x in col.items() if owner[m][r] not in dead[m]}
                for i, col in enumerate(d.matrix.cols) if owner[n][i] not in dead[n]}
        # rows[r] holds every column with an entry in row r (and maybe
        # some that lost it)
        rows = {}
        for i, col in cols.items():
            for r in col:
                rows.setdefault(r, set()).add(i)
        for a, G in enumerate(src.summands):
            if a in dead[n] or not G.ambient_rank:
                continue
            A = range(src.offsets[a], src.offsets[a] + G.ambient_rank)
            # per target cell at a's level: (row offset - k, x) for each
            # entry x of a's k-th column in its rows; eps * I is r times (0, eps)
            hits = {}
            for k, i in enumerate(A):
                for r, x in cols[i].items():
                    b = owner[m][r]
                    if levels[m][b] == levels[n][a]:
                        hits.setdefault(b, []).append((r - tgt.offsets[b] - k, x))
            for b, entries in hits.items():
                eps = entries[0][1]
                if (eps in (1, -1) and len(entries) == len(A)
                        and all(e == (0, eps) for e in entries)
                        and tgt.summands[b].same_presentation(G)):
                    break
            else:
                continue
            for k, i in enumerate(A):
                r, col = tgt.offsets[b] + k, cols.pop(i)
                for j in rows.pop(r):
                    cj = cols.get(j)
                    if cj is None or r not in cj:
                        continue
                    c = -eps * cj[r]
                    for rr, y in col.items():
                        v = cj.get(rr, 0) + c * y
                        if v:
                            cj[rr] = v
                            rows.setdefault(rr, set()).add(j)
                        else:
                            del cj[rr]
            dead[n].add(a)
            dead[m].add(b)
            pairs.append((base.blocks[n][a], base.blocks[m][b]))
        work[n] = cols
    if not pairs:
        return base
    live = {n: [j for j in range(len(base.blocks[n])) if j not in dead[n]] for n in degrees}
    sums = {n: direct_sum([base.sums[n].summands[j] for j in live[n]]) for n in degrees}
    index = {n: {i: k for k, i in enumerate(i for i, j in enumerate(owner[n]) if j not in dead[n])}
             for n in degrees}
    diffs = {}
    for n, cols in work.items():
        m = n + step
        if sums[n].group.ambient_rank and sums[m].group.ambient_rank:
            row = index[m]
            M = la.IntMatrix((len(row), len(index[n])),
                             [{row[r]: x for r, x in cols[i].items() if r in row} for i in index[n]])
            diffs[n] = AbHom(sums[n].group, sums[m].group, M, check=False)
    X = ChainComplex(base.diagram, base.orientation,
                     {n: [base.blocks[n][j] for j in live[n]] for n in degrees},
                     sums, diffs, base.top, base.fixed)
    X.cancelled = pairs
    _check_dd_zero(diffs, lambda n: n + step)
    return X


def build_filtered(P: GradedPoset, F: Diagram, variant: Variant) -> FilteredComplex:
    """The filtered Morse-reduced nerve complex of F for this preset and
    P's degrees, on the variant's matching, with its same-level
    +-identity pairs then cancelled (_cancel_level_pairs), built once per
    (variant, display degrees) and kept on F over F's kept Morse base;
    the checks run on every call."""
    if variant.direction != P.direction:
        raise VariantMismatchError(
            f"variant expects a {variant.direction} degree function, "
            f"the poset is {P.direction}")
    if F.poset.ids != P.ids or sorted(F.poset.covers) != sorted(P.covers):
        raise MismatchError("diagram is not over the given poset")
    return F.kept(("filtered", variant, tuple(P.display_degrees[i] for i in P.ids)), lambda: (
        FilteredComplex(_cancel_level_pairs(_cached_complex(F, variant.complex, variant.matching),
                                            _level_of(P, variant)), variant, P)))


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
    inside the levels is a filtered homotopy equivalence, and so is the
    cancelling of same-level pairs, so the reduced and eliminated base
    gives the same pages from r = 1 on (Mischaikow-Nanda, 2013).

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
    groups, maps = _graded_page(X) if r == 0 else _subquotient_page(X, r)
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
    groups and differentials of X's level pieces, whose d o d
    derived._complex checked as it built them."""
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
    lattice.  Then d_r o d_r must vanish."""
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
    _check_dd_zero(maps, lambda k: (k[0] - r, k[1] + step))
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
