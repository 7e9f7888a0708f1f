"""Derived functors of colim and lim over a graded poset.

The chain complex sums F(first vertex) over strictly ascending chains,
each held as its tuple of ids; the cochain complex sums F(last vertex).
colim_i and lim^i are the homology groups, computed exactly by
abgroup.homology, the one kernel modulo image of the package.

One face rule (_faces) says which face moves coefficients, and one
assembler (_complex) turns per-chain face sums into differentials for
both kinds: the unreduced complexes take the faces as they are, the
Morse-reduced ones sum them along zig-zag flows.

derived_functor takes them from the Morse-reduced nerve complex
(reduce_complex) on the carrier matching, which keeps only the critical
chains of an acyclic matching; on a poset with a greatest (least)
element that is a single chain.  One rule, the chain one, decides the
matching group by group, for cochains on the opposite poset, and a
group whose interval has a cone point, read from its maximal elements,
is paired off without listing a chain, so such a poset's nerve is
never listed.  A chain whose carrier's value is zero is not a cell of
the Morse complex, and a zero degree has the shared zero group as its
homology.  The spectral sequences take the reduced complex on whichever
matching keeps their filtration's key vertex, the carrier one or the
two-ended one, and cancel its same-level +-identity pairs
(spectral.build_filtered).
Nothing at run time builds the whole unreduced nerve complex: spectral
page 0 assembles each level from its own chains with _complex, and the
unreduced complexes (tests/helpers.py) are the tests' oracle for the
reduced ones and for those levels.  Direct (co)limits are independent
degree-0 oracles, and the Euler characteristic, counted from the poset
alone, checks every full table.

Whatever lists chains counts them first (poset.chain_total) and
refuses with ChainBudgetError past the chain budget (chain_budget, the
CLI's --max-chains), so an input too wide to list fails at once.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar

from . import intlinalg as la
from .abgroup import AbHom, FgAbGroup, compose, direct_sum, homology, trivial_group, zero_hom
from .diagram import Diagram
from .errors import ChainBudgetError, OracleViolation
from .poset import chain_total, chains_starting, chains_up_to, opposite

# The most chains one complex may list; the CLI's --max-chains.  Spectral
# page 0 lists the whole nerve once per filtered complex and builds it
# level by level, never whole.  The largest list the tests, the bundled
# documents and the benchmark make is grid5x5's nerve, 10,271 chains;
# page 0 of grid6x5 (32,063 chains) with constant Z+Z/2 takes about 0.8 s
# and a 66 MB peak RSS (Python 3.11, one Xeon core).
DEFAULT_MAX_CHAINS = 100_000
_max_chains = ContextVar("max_chains", default=DEFAULT_MAX_CHAINS)


@contextmanager
def chain_budget(limit: int):
    """Inside the block, refuse to list more than limit chains for one
    complex (ChainBudgetError)."""
    token = _max_chains.set(limit)
    try:
        yield
    finally:
        _max_chains.reset(token)


def _check_budget(count: int, what: str):
    """ChainBudgetError when what would list more than the budget's
    chains; count may be a partial count that is already over it."""
    limit = _max_chains.get()
    if count > limit:
        raise ChainBudgetError(
            f"{what} would list at least {count} chains, more than the budget "
            f"of {limit} (--max-chains)")


class ChainComplex:
    """Bounded complex of f.g. groups with one block per chain (per
    critical chain when Morse-reduced); blocks[n] lists the degree-n
    chains as tuples of ids, in block order.

    orientation "homological": differentials lower the degree by one;
    "cohomological": they raise it.  Degrees outside 0..top are zero, and
    a degree whose group has ambient rank 0 (no block, or only zero
    values) holds no differential; d_from gives the zero map there.
    A Morse complex also holds fixed = (h, f): every pair of its matching
    shares its first h and its last f vertices (each 0 or 1); an
    unreduced complex has none.  diagram is the detached diagram
    (Diagram._detached) the complex was built from, None for a complex
    that is not built from one.  A complex that spectral's elimination
    cut down lists the pairs of cells it cancelled (cancelled); every
    other complex has none.
    """

    cancelled = ()

    def __init__(self, diagram, orientation, blocks, sums, diffs, top, fixed=None):
        self.diagram = diagram
        self.orientation = orientation
        self.blocks = blocks
        self.sums = sums
        self._diffs = diffs
        self.top = top
        self.fixed = fixed
        self._homology = {}

    def group_at(self, n: int) -> FgAbGroup:
        if 0 <= n <= self.top:
            return self.sums[n].group
        return trivial_group()

    @property
    def step(self) -> int:
        """Degree shift of the differential."""
        return -1 if self.orientation == "homological" else 1

    def d_from(self, n: int) -> AbHom:
        """The differential leaving degree n (zero hom when absent)."""
        h = self._diffs.get(n)
        if h is not None:
            return h
        return zero_hom(self.group_at(n), self.group_at(n + self.step))

    def d_into(self, n: int) -> AbHom:
        return self.d_from(n - self.step)


def _assemble(sums, n_src, n_tgt, entries):
    """Matrix of a differential from blockwise (sign, block) pieces.

    entries: list of (tgt block index, src block index, sign, matrix).
    Contributions accumulate because distinct faces of a degenerate
    simplex can coincide.
    """
    src = sums[n_src]
    tgt = sums[n_tgt]
    M = la.from_blocks(tgt.group.ambient_rank, src.group.ambient_rank,
                       [(tgt.offsets[tj], src.offsets[sj], sign, blk)
                        for tj, sj, sign, blk in entries])
    return AbHom(src.group, tgt.group, M, check=False)


def _check_dd_zero(diffs, nxt):
    """OracleViolation unless diffs[nxt(k)] o diffs[k] is zero for every
    key k of diffs whose successor nxt(k) is one too."""
    for k, inner in diffs.items():
        outer = diffs.get(nxt(k))
        if outer is not None and not compose(outer, inner).is_zero():
            raise OracleViolation(f"d o d is nonzero between degrees {k} and {nxt(k)}")


def _faces(F: Diagram, kind: str, cell):
    """(face, sign, block) for each face of the cell, with sign (-1)^i for
    the face that drops vertex i.  Only the face that drops the first
    vertex (chain) or the last (cochain) moves coefficients, by F.hom
    between the vertex it drops and its neighbour; every other block is
    None, the identity on the cell's value."""
    n = len(cell) - 1
    if kind == "chain":
        moving, blk = 0, F.hom(cell[0], cell[1]).matrix
    else:
        moving, blk = n, F.hom(cell[n - 1], cell[n]).matrix
    return [(cell[:i] + cell[i + 1:], -1 if i % 2 else 1, blk if i == moving else None)
            for i in range(n + 1)]


def _complex(F: Diagram, kind: str, blocks, pieces, fixed=None) -> ChainComplex:
    """The complex with one block per chain of blocks[n], holding F at the
    chain's first vertex (chain) or last (cochain).  The differential
    between a chain h of degree m >= 1 and a chain c one degree lower sums
    the (c, sign, block) entries of pieces(h), a None block being the
    identity; it runs h -> c for chains and c -> h for cochains.  No
    differential is built into or out of a degree of ambient rank 0, and
    no d o d check runs through one."""
    chain = kind == "chain"
    top = len(blocks) - 1
    index = {c: j for n in blocks for j, c in enumerate(blocks[n])}
    sums = {n: direct_sum([F.groups[c[0] if chain else c[-1]] for c in blocks[n]])
            for n in blocks}
    diffs = {}
    for m in range(1, top + 1):
        if not (sums[m].group.ambient_rank and sums[m - 1].group.ambient_rank):
            continue
        entries = []
        for h in blocks[m]:
            hj = index[h]
            for c, sign, blk in pieces(h):
                if blk is None:
                    blk = la.eye(F.groups[c[0] if chain else c[-1]].ambient_rank)
                entries.append((index[c], hj, sign, blk) if chain
                               else (hj, index[c], sign, blk))
        if chain:
            diffs[m] = _assemble(sums, m, m - 1, entries)
        else:
            diffs[m - 1] = _assemble(sums, m - 1, m, entries)
    X = ChainComplex(F._detached, "homological" if chain else "cohomological",
                     blocks, sums, diffs, top, fixed)
    _check_dd_zero(diffs, lambda n: n + X.step)
    return X


MATCHINGS = ("carrier", "ends")


def reduce_complex(F: Diagram, kind: str, matching: str = "carrier") -> ChainComplex:
    """The Morse complex of the normalized chain ("chain") or cochain
    ("cochain") complex of F, built from the critical chains and F's
    maps; the unreduced differentials are never assembled, and a chain
    that no group of the matching needs is never listed.

    A chain's carrier is the vertex whose value it holds: the first vertex
    for chains, the last for cochains.  The "carrier" matching groups the
    chains by carrier, the "ends" matching by their first and last vertex
    together; inside a group the other vertices, the tails (chains of the
    open interval the fixed ends bound, the empty one included), are
    paired by Jonsson's sequential element matching, which is acyclic
    (*Simplicial Complexes of Graphs*, 2008); _ElementMatching decides it
    one group at a time by the chain rule, for cochains on opposite(P),
    each cell reversed going in and coming out.  A pair differs by a
    vertex that is neither fixed end, so its block is +-identity on the
    carrier's value whatever F is.  The only faces that leave a group drop
    a fixed end: for the carrier matching that moves the carrier strictly,
    always the same way, and for the ends matching it strictly shrinks the
    interval from the first vertex to the last, so no gradient path comes
    back to a group it left.  The unpaired (critical) chains span the
    Morse complex, whose differentials sum the zig-zag paths between them
    (Skoldberg, Trans. AMS 358, 2006); d o d = 0 is checked on the
    result.  A chain whose carrier's value has ambient rank 0 holds no
    coordinate, so it is not a cell of it (_ElementMatching).

    The carrier matching keeps the first (chain) or last (cochain)
    vertex of every pair, the ends matching both, which is what a
    filtration by that vertex's degree needs (spectral.build_filtered).
    The complex records those ends as its fixed, every pair the flows
    expand is checked to keep them, and nothing lists the matching.
    """
    if kind not in ("chain", "cochain"):
        raise ValueError(f"unknown complex kind {kind!r}")
    if matching not in MATCHINGS:
        raise ValueError(f"unknown matching {matching!r}")
    foot = int(matching == "ends")
    zero = {v for v, G in F.groups.items() if not G.ambient_rank}
    P = F.poset
    if kind == "chain":
        M = _ElementMatching(P, foot, zero)
        return _morse_complex(F, kind, M.critical(), P.length, M.partner, (1, foot))
    M = _ElementMatching(opposite(P), foot, zero)

    def partner(c):
        s = M.partner(c[::-1])
        return None if s is None else s[::-1]
    return _morse_complex(F, kind, [c[::-1] for c in M.critical()], P.length, partner, (foot, 1))


class _ElementMatching:
    """The sequential element matching of P's chains, decided one group
    at a time.  A cell is head + tail + foot: the head is its first
    vertex, the carrier, and the foot its last vertex when foot is 1,
    empty when it is 0.  The group is (head, foot), and the elements of
    the open interval they bound (the head's up-set without a foot) are
    tried by descending internal degree, ties by id, one step each: a
    step pairs every free tail t without the element x with t plus x
    when that is free too.  A group whose head is in zero (the objects
    whose value has ambient rank 0) holds no coordinate: it is neither
    decided nor listed, and the flows treat it as zero (_morse_complex).
    When the first element is the interval's greatest (a cone point),
    step 1 pairs every tail, so nothing of the group is listed or kept,
    and partner reads the partner from the cell.  Every other group
    lists its tails, runs the steps and keeps its pairs."""

    def __init__(self, P, foot, zero):
        self.P, self.f, self.zero = P, foot, zero
        # (head, foot) -> {cell: partner} for each group critical lists
        self._pairs = {}

    def _keys(self):
        """Each group (head, foot) whose head is not in zero."""
        for v in self.P.ids:
            if v not in self.zero:
                for foot in [(b,) for b in (v, *self.P.above(v))] if self.f else [()]:
                    yield (v,), foot

    def _cone_point(self, head, foot):
        """The cone point of the open interval head and foot bound, else
        None: its one maximal element, when it has exactly one (the foot's
        lower covers above the head, or P's maximal elements above it)."""
        P = self.P
        found = P.above_among(head[0], P.covers_into[foot[0]] if foot else P.maximal)
        return found[0] if len(found) == 1 else None

    def _inside(self, head, foot):
        """The open interval head and foot bound, in id order."""
        return self.P.between(head[0], foot[0]) if foot else self.P.above(head[0])

    def critical(self):
        """The unpaired cells.  Every group is decided here: the tails of
        the groups without a cone point are counted against the chain
        budget before any of them is listed."""
        # the group (a, a) of the ends matching holds only its cell (a,)
        listed = [(key, [] if key[0] == key[1] else self._inside(*key))
                  for key in self._keys() if self._cone_point(*key) is None]
        total = 0
        for _, inside in listed:
            total += 1 + (chain_total(self.P, inside) if inside else 0)
            _check_budget(total, "the Morse matching")
        out, deg = [], self.P.degree
        for (head, foot), inside in listed:
            if head == foot:
                self._pairs[(head, foot)] = {}
                out.append(head)
                continue
            free = {()}
            if inside:
                # the other tails: the chains of the subposet inside
                free.update(c for chains in chains_up_to(self.P, self.P.length, inside)
                            for c in chains)
            pairs = {}
            for x in sorted(inside, key=lambda y: (-deg[y], y)):
                if not free:
                    break
                ups = []
                for t in free:
                    if x not in t:
                        up = self._insert(t, x)
                        if up in free:
                            ups.append((t, up))
                for t, up in ups:
                    free.discard(t)
                    free.discard(up)
                    lo, hi = head + t + foot, head + up + foot
                    pairs[lo] = hi
                    pairs[hi] = lo
            self._pairs[(head, foot)] = pairs
            out.extend(head + t + foot for t in free)
        return out

    def _insert(self, t, x):
        # tails ascend in degree, so x has one possible place
        deg = self.P.degree
        k = sum(1 for y in t if deg[y] < deg[x])
        return t[:k] + (x,) + t[k:]

    def partner(self, c):
        """The cell matched with c, None when c is critical; KeyError when
        the matching decides no group of c, as when its head is in zero."""
        cut = len(c) - self.f
        head, foot = c[:1], c[cut:]
        pairs = self._pairs.get((head, foot))
        if pairs is not None:
            return pairs.get(c)
        x = None if head[0] in self.zero else self._cone_point(head, foot)
        if x is None:
            raise KeyError((head, foot))
        t = c[1:cut]
        if x in t:
            k = t.index(x)
            return head + t[:k] + t[k + 1:] + foot
        return head + self._insert(t, x) + foot


def _morse_complex(F, kind, critical, top, partner, fixed):
    """The Morse complex of F's nerve complex for an acyclic matching,
    given by its critical cells, the nerve's top degree, partner, which
    sends a cell to the cell matched with it (None for a critical cell),
    and fixed = (h, f), the first h and last f vertices that every pair
    keeps; the complex records fixed.

    flow(b) holds the zig-zag sum from the cell b one degree below a
    critical cell h to the critical cells of b's degree, as
    {critical cell: block}.  It is zero when the value at b's carrier has
    ambient rank 0, as every path through b passes that value, so such a
    cell's partner is never asked for.  Otherwise it is the identity for
    critical b, zero when b is paired with a face, and else runs through
    b's partner s: -[s:b] times the sum over the other faces b' of s of
    [s:b'] composed with flow(b').  Chain blocks act after the flow
    (values move down the path), cochain blocks before it.  Each flow is computed once; a
    path that comes back to a cell still being expanded means the
    matching is not acyclic, and a pair it expands that moves a fixed
    end means the matching is not the one fixed names: both raise
    OracleViolation.
    """
    chain = kind == "chain"
    h, f = fixed

    def rank(c):
        """The ambient rank of the value at c's carrier."""
        return F.groups[c[0] if chain else c[-1]].ambient_rank

    def along(B, M):
        if B is None or M is None:
            return M if B is None else B
        return M @ B if chain else B @ M

    def through(fs):
        """The sum over the faces (b, sign, B) in fs of sign * B along flow(b)."""
        acc = {}
        for b, sign, B in fs:
            for c, M in flow(b).items():
                M = along(B, M)
                if M is None:
                    M = la.eye(rank(c))
                acc[c] = acc[c] + sign * M if c in acc else sign * M
        return acc

    def partner_above(b):
        if not rank(b):
            return None
        s = partner(b)
        return s if s is not None and len(s) > len(b) else None

    memo = {}

    def flow(b):
        if b in memo:
            return memo[b]
        if not rank(b):
            return {}
        s = partner(b)
        if s is None:
            return {b: None}
        if len(s) < len(b):
            return {}
        stack = [b]
        expanding = {}
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
            elif x not in expanding:
                s = partner(x)
                if x[:h] != s[:h] or x[len(x) - f:] != s[len(s) - f:]:
                    raise OracleViolation(f"matched chains {x} and {s} differ in an end "
                                          f"the matching fixes {fixed}")
                expanding[x] = fs = _faces(F, kind, s)
                for y, _, _ in fs:
                    if y != x and y not in memo and partner_above(y) is not None:
                        if y in expanding:
                            raise OracleViolation(
                                f"gradient path returns to {y} while expanding it: "
                                "the matching is not acyclic")
                        stack.append(y)
            else:
                fs = expanding.pop(x)
                pair_sign = next(sign for y, sign, _ in fs if y == x)
                acc = through([f for f in fs if f[0] != x])
                memo[x] = {c: -pair_sign * M for c, M in acc.items() if any(M.cols)}
                stack.pop()
        return memo[b]

    def pieces(h):
        return [(c, 1, M) for c, M in through(_faces(F, kind, h)).items()]

    crit = {n: [] for n in range(top + 1)}
    for c in sorted(critical):
        crit[len(c) - 1].append(c)
    X = _complex(F, kind, crit, pieces, fixed)
    # flow and through refer to each other; unlinking them lets reference
    # counting free F and everything cached on it once F is dropped
    flow = through = None
    return X


def homology_at(X: ChainComplex, n: int) -> FgAbGroup:
    """H_n (or H^n) of X, the shared zero group outside degrees 0..top
    and at a degree whose group has ambient rank 0; computed once per
    other degree and kept on X."""
    if not 0 <= n <= X.top or not X.group_at(n).ambient_rank:
        return trivial_group()
    H = X._homology.get(n)
    if H is None:
        H = X._homology[n] = homology(X.d_into(n), X.d_from(n), f"degree {n}")
    return H


def derived_functor(F: Diagram, direction: str, i: int) -> FgAbGroup:
    """colim_i as chain homology, lim^i as cochain cohomology, both on
    the Morse-reduced nerve complex."""
    if i < 0:
        raise ValueError("derived functors are indexed by i >= 0")
    return homology_at(_cached_complex(F, _kind(direction), "carrier"), i)


def _kind(direction: str) -> str:
    if direction == "colim":
        return "chain"
    if direction == "lim":
        return "cochain"
    raise ValueError(f"unknown direction {direction!r}")


def _cached_complex(F: Diagram, which: str, matching: str) -> ChainComplex:
    """The Morse reduction of F's chain or cochain complex by the named
    matching, built once per diagram."""
    return F.kept(("complex", which, matching), reduce_complex, F, which, matching)


def euler_characteristic(F: Diagram, direction: str) -> int:
    """sum_n (-1)^n free_rank C_n of the nerve complex behind colim
    (chains) or lim (cochains), without enumerating chains.

    It is sum_v free_rank F(v) e(v), where e(v) sums (-1)^n over the
    n-chains carried by v: e(v) = 1 - sum of e(w) over w > v
    (poset.chains_starting), on opposite(P) for lim, whose chains end at
    v.  Tensored with Q, homology keeps it.
    """
    P = F.poset if _kind(direction) == "chain" else opposite(F.poset)
    e = chains_starting(P, P.ids, -1)
    return sum(F.groups[v].free_rank * ev for v, ev in zip(P.ids, e))


def check_euler_characteristic(F: Diagram, direction: str, table) -> None:
    """OracleViolation unless the derived functors in table (degrees
    0, 1, ..., all the nonzero ones) have the nerve's Euler characteristic."""
    got = sum(-H.free_rank if n % 2 else H.free_rank for n, H in enumerate(table))
    want = euler_characteristic(F, direction)
    if got != want:
        raise OracleViolation(
            f"{direction}: alternating sum of free ranks is {got}, "
            f"the nerve's Euler characteristic is {want}")


class AcyclicityResult(namedtuple("AcyclicityResult", "acyclic degree group",
                                  defaults=(None, None))):
    __slots__ = ()

    def __bool__(self):
        return self.acyclic


def is_acyclic(F: Diagram, direction: str) -> AcyclicityResult:
    """All higher derived functors trivial; on failure carries the first
    nonvanishing degree and its group.  An acyclic verdict is checked
    against the Euler characteristic, which degree 0 must then carry."""
    for i in range(1, F.poset.length + 1):
        H = derived_functor(F, direction, i)
        if not H.is_trivial:
            return AcyclicityResult(False, i, H)
    check_euler_characteristic(F, direction, [derived_functor(F, direction, 0)])
    return AcyclicityResult(True)


def colimit_direct(F: Diagram) -> FgAbGroup:
    """Coequalizer presentation: the sum of all values modulo
    x - F(cover)(x) for every ambient generator and cover."""
    P = F.poset
    sums = direct_sum([F.groups[i] for i in P.ids])
    pos = {ident: k for k, ident in enumerate(P.ids)}
    rels = sums.group.relations
    blocks = [(0, 0, 1, rels)]
    at = rels.shape[1]
    for a, b in P.covers:
        ra = F.groups[a].ambient_rank
        blocks.append((sums.offsets[pos[a]], at, 1, la.eye(ra)))
        blocks.append((sums.offsets[pos[b]], at, -1, F.cover_maps[(a, b)].matrix))
        at += ra
    rank = sums.group.ambient_rank
    return FgAbGroup(rank, la.from_blocks(rank, at, blocks))


def limit_direct(F: Diagram) -> FgAbGroup:
    """Compatible tuples: the joint equalizer of all cover maps inside
    the product of the values, as the homology of the cover-difference
    map with nothing arriving."""
    P = F.poset
    sums = direct_sum([F.groups[i] for i in P.ids])
    pos = {ident: k for k, ident in enumerate(P.ids)}
    if not P.covers:
        return sums.group
    tgt = direct_sum([F.groups[b] for _, b in P.covers])
    blocks = []
    for k, (a, b) in enumerate(P.covers):
        row = tgt.offsets[k]
        blocks.append((row, sums.offsets[pos[a]], 1, F.cover_maps[(a, b)].matrix))
        blocks.append((row, sums.offsets[pos[b]], -1, la.eye(F.groups[b].ambient_rank)))
    M = la.from_blocks(tgt.group.ambient_rank, sums.group.ambient_rank, blocks)
    return homology(zero_hom(trivial_group(), sums.group),
                    AbHom(sums.group, tgt.group, M, check=False), "the limit")
