"""Derived functors of colim and lim over a graded poset.

The chain complex sums F(first vertex) over strictly ascending chains;
the cochain complex sums F(last vertex).  colim_i and lim^i are the
homology groups, computed exactly by abgroup.homology, the one kernel
modulo image of the package.

One face rule (_faces) says which face moves coefficients, and one
assembler (_complex) turns per-chain face sums into differentials for
both kinds: the unreduced complexes take the faces as they are, the
Morse-reduced ones sum them along zig-zag flows.

derived_functor takes them from the Morse-reduced nerve complex
(reduce_complex), which keeps only the critical chains of an acyclic
matching; on a poset with a greatest (least) element that is a single
chain.  The unreduced nerve complexes stay: they are the base of the
spectral sequences and the tests' oracle for the reduced ones.  Direct
(co)limits are independent degree-0 oracles, and the Euler
characteristic, counted from the poset alone, checks every full table.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as la
from .abgroup import AbHom, FgAbGroup, direct_sum, homology, trivial_group, zero_hom
from .diagram import Diagram
from .errors import OracleViolation
from .poset import Chain, enumerate_chains, enumerate_weak_chains, longest_chain_length


class ChainComplex:
    """Bounded complex of f.g. groups with one block per chain (per
    critical chain when Morse-reduced).

    orientation "homological": differentials lower the degree by one;
    "cohomological": they raise it.  vanishes_above_top records whether
    degrees beyond top are genuinely zero (true for the normalized
    complex) or merely not built (unnormalized debug mode).
    """

    def __init__(self, orientation, blocks, sums, diffs, top, vanishes_above_top):
        self.orientation = orientation
        self.blocks = blocks
        self.sums = sums
        self._diffs = diffs
        self.top = top
        self.vanishes_above_top = vanishes_above_top

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

    def block_offset(self, n: int, j: int) -> int:
        return self.sums[n].offsets[j]


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


def _composite_is_zero(outer: AbHom, inner: AbHom) -> bool:
    """compose(outer, inner).is_zero() from the product's columns alone:
    each column that is not zero outright goes through the target's
    membership check, and the first one outside the relations decides."""
    for col in (outer.matrix @ inner.matrix).cols:
        if col and not outer.target.element_is_zero(col):
            return False
    return True


def _check_dd_zero(diffs, nxt):
    """OracleViolation unless diffs[nxt(k)] o diffs[k] is zero for every
    key k of diffs whose successor nxt(k) is one too."""
    for k, inner in diffs.items():
        outer = diffs.get(nxt(k))
        if outer is not None and not _composite_is_zero(outer, inner):
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


def _complex(F: Diagram, kind: str, blocks, pieces, vanishes_above_top) -> ChainComplex:
    """The complex with one block per chain of blocks[n], holding F at the
    chain's first vertex (chain) or last (cochain).  The differential
    between a chain h of degree m >= 1 and a chain c one degree lower sums
    the (c, sign, block) entries of pieces(h), a None block being the
    identity; it runs h -> c for chains and c -> h for cochains."""
    chain = kind == "chain"
    top = len(blocks) - 1
    index = {c.vertices: j for n in blocks for j, c in enumerate(blocks[n])}
    sums = {n: direct_sum([F.groups[c.first if chain else c.last] for c in blocks[n]])
            for n in blocks}
    diffs = {}
    for m in range(1, top + 1):
        entries = []
        for h in blocks[m]:
            hj = index[h.vertices]
            for c, sign, blk in pieces(h.vertices):
                if blk is None:
                    blk = la.eye(F.groups[c[0] if chain else c[-1]].ambient_rank)
                entries.append((index[c], hj, sign, blk) if chain
                               else (hj, index[c], sign, blk))
        if chain:
            diffs[m] = _assemble(sums, m, m - 1, entries)
        else:
            diffs[m - 1] = _assemble(sums, m - 1, m, entries)
    X = ChainComplex("homological" if chain else "cohomological",
                     blocks, sums, diffs, top, vanishes_above_top)
    _check_dd_zero(diffs, lambda n: n + X.step)
    return X


def _nerve_complex(F: Diagram, kind: str, top, normalized) -> ChainComplex:
    P = F.poset
    longest = longest_chain_length(P)
    if top is None:
        top = longest
    enum = enumerate_chains if normalized else enumerate_weak_chains
    blocks = {n: enum(P, n) for n in range(top + 1)}
    return _complex(F, kind, blocks, lambda c: _faces(F, kind, c),
                    normalized and top >= longest)


def chain_complex(F: Diagram, top: int = None, normalized: bool = True) -> ChainComplex:
    """Homological complex with C_n the sum of F(sigma_0) over n-chains.

    d = sum of (-1)^i d_i; d_0 applies F(sigma_0 -> sigma_1), the other
    faces keep the coefficient and drop a vertex.  The unnormalized mode
    (weak chains, repeats allowed) never vanishes in high degrees, so it
    is built only up to top and homology is refused at the cut.
    """
    return _nerve_complex(F, "chain", top, normalized)


def cochain_complex(F: Diagram, top: int = None, normalized: bool = True) -> ChainComplex:
    """Cohomological complex with C^n the product of F(sigma_n) over
    n-chains (finite, so a direct sum).

    The component of d(x) at an (n+1)-chain tau sums (-1)^i x at the
    i-th face; the last coface is the only one that moves coefficients,
    through F(tau_n -> tau_{n+1}).
    """
    return _nerve_complex(F, "cochain", top, normalized)


def reduce_complex(F: Diagram, kind: str) -> ChainComplex:
    """The Morse complex of the normalized chain ("chain") or cochain
    ("cochain") complex of F, built from the chain list and F's maps;
    the unreduced differentials are never assembled.

    A chain's carrier is the vertex whose value it holds: the first
    vertex for chains, the last for cochains.  Within one carrier v the
    tails (the chains of P_{>v}, or P_{<v}, the empty one included) are
    paired by Jonsson's sequential element matching, which is acyclic
    (*Simplicial Complexes of Graphs*, 2008).  A pair differs by a vertex
    other than the carrier, so its block is +-identity on F(v) whatever F
    is.  The one face that moves coefficients also moves the carrier
    strictly, always the same way, so no gradient path can come back to
    a carrier it left.  The unpaired (critical) chains span the Morse
    complex, whose differentials sum the zig-zag paths between them
    (Skoldberg, Trans. AMS 358, 2006); d o d = 0 is checked on the result.
    """
    if kind not in ("chain", "cochain"):
        raise ValueError(f"unknown complex kind {kind!r}")
    P = F.poset
    cells = [c.vertices for n in range(longest_chain_length(P) + 1)
             for c in enumerate_chains(P, n)]
    return _morse_complex(F, kind, cells, _element_matching(P, kind, cells))


def _element_matching(P, kind, cells):
    """Sequential element matching inside each carrier, as a dict sending
    each matched cell to its partner.  The elements are tried in order of
    internal degree, descending for chains and ascending for cochains
    (ties by id), so a greatest (least) element pairs off every tail."""
    chain = kind == "chain"
    deg = P.degree
    tails = {}
    for c in cells:
        v, tail = (c[0], c[1:]) if chain else (c[-1], c[:-1])
        tails.setdefault(v, set()).add(tail)
    partner = {}
    for v, free in tails.items():
        others = P.strictly_above[v] if chain else P.strictly_below[v]
        for x in sorted(others, key=lambda y: (-deg[y] if chain else deg[y], y)):
            if not free:
                break
            pairs = []
            for t in free:
                if x in t:
                    continue
                # tails ascend in degree, so x has one possible place
                k = sum(1 for y in t if deg[y] < deg[x])
                up = t[:k] + (x,) + t[k:]
                if up in free:
                    pairs.append((t, up))
            for t, up in pairs:
                free.discard(t)
                free.discard(up)
                lo, hi = ((v,) + t, (v,) + up) if chain else (t + (v,), up + (v,))
                partner[lo] = hi
                partner[hi] = lo
    return partner


def _morse_complex(F, kind, cells, partner):
    """The Morse complex of F's nerve complex for a matching of its cells.

    flow(b) holds the zig-zag sum from the cell b one degree below a
    critical cell h to the critical cells of b's degree, as
    {critical cell: block}.  It is the identity for critical b, zero when
    b is paired with a face, and otherwise runs through b's partner s:
    -[s:b] times the sum over the other faces b' of s of [s:b'] composed
    with flow(b').  Chain blocks act after the flow (values move down
    the path), cochain blocks before it.  Each flow is computed once; a
    path that comes back to a cell still being expanded means the
    matching is not acyclic and raises OracleViolation.
    """
    chain = kind == "chain"

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
                    M = la.eye(F.groups[c[0] if chain else c[-1]].ambient_rank)
                acc[c] = acc[c] + sign * M if c in acc else sign * M
        return acc

    def partner_above(b):
        s = partner.get(b)
        return s if s is not None and len(s) > len(b) else None

    memo = {}

    def flow(b):
        if b in memo:
            return memo[b]
        if b not in partner:
            return {b: None}
        if partner_above(b) is None:
            return {}
        stack = [b]
        expanding = {}
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
            elif x not in expanding:
                expanding[x] = fs = _faces(F, kind, partner[x])
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

    top = max(len(c) for c in cells) - 1
    crit = {n: [] for n in range(top + 1)}
    for c in cells:
        if c not in partner:
            crit[len(c) - 1].append(Chain(c))
    return _complex(F, kind, crit, pieces, True)


def homology_at(X: ChainComplex, n: int) -> FgAbGroup:
    """H_n (or H^n) of X, trivial outside degrees 0..top when X vanishes
    there; a truncated complex refuses its top degree and beyond."""
    if n < 0:
        return trivial_group()
    if n > X.top:
        if X.vanishes_above_top:
            return trivial_group()
        raise ValueError(f"complex truncated at {X.top}, degree {n} unavailable")
    if n == X.top and not X.vanishes_above_top:
        raise ValueError(
            f"degree {n} needs the complex built through degree {n + 1}")
    return homology(X.d_into(n), X.d_from(n), f"degree {n}")


def derived_functor(F: Diagram, direction: str, i: int) -> FgAbGroup:
    """colim_i as chain homology, lim^i as cochain cohomology, both on
    the Morse-reduced nerve complex."""
    if i < 0:
        raise ValueError("derived functors are indexed by i >= 0")
    return homology_at(_cached_complex(F, _kind(direction), reduced=True), i)


def _kind(direction: str) -> str:
    if direction == "colim":
        return "chain"
    if direction == "lim":
        return "cochain"
    raise ValueError(f"unknown direction {direction!r}")


def _cached_complex(F: Diagram, which: str, reduced: bool = False) -> ChainComplex:
    """The normalized chain or cochain complex of F, or its Morse
    reduction, built once per diagram."""
    cache = F._complexes
    key = (which, reduced)
    if key not in cache:
        if reduced:
            cache[key] = reduce_complex(F, which)
        else:
            cache[key] = chain_complex(F) if which == "chain" else cochain_complex(F)
    return cache[key]


def euler_characteristic(F: Diagram, direction: str) -> int:
    """sum_n (-1)^n free_rank C_n of the nerve complex behind colim
    (chains) or lim (cochains), without enumerating chains.

    It is sum_v free_rank F(v) e(v), where e(v) sums (-1)^n over the
    n-chains carried by v: for colim e(v) = 1 - sum of e(w) over w > v,
    for lim the same over w < v.  Tensored with Q, homology keeps it.
    """
    P = F.poset
    colim = _kind(direction) == "chain"
    others = P.strictly_above if colim else P.strictly_below
    e = {}
    for v in sorted(P.ids, key=P.degree.get, reverse=colim):
        e[v] = 1 - sum(e[w] for w in others[v])
    return sum(F.groups[v].free_rank * e[v] for v in P.ids)


def check_euler_characteristic(F: Diagram, direction: str, table) -> None:
    """OracleViolation unless the derived functors in table (degrees
    0, 1, ..., all the nonzero ones) have the nerve's Euler characteristic."""
    got = sum(-H.free_rank if n % 2 else H.free_rank for n, H in enumerate(table))
    want = euler_characteristic(F, direction)
    if got != want:
        raise OracleViolation(
            f"{direction}: alternating sum of free ranks is {got}, "
            f"the nerve's Euler characteristic is {want}")


@dataclass(frozen=True)
class AcyclicityResult:
    acyclic: bool
    degree: int = None
    group: FgAbGroup = None

    def __bool__(self):
        return self.acyclic


def is_acyclic(F: Diagram, direction: str) -> AcyclicityResult:
    """All higher derived functors trivial; on failure carries the first
    nonvanishing degree and its group.  An acyclic verdict is checked
    against the Euler characteristic, which degree 0 must then carry."""
    for i in range(1, longest_chain_length(F.poset) + 1):
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
