"""Derived functors of colim and lim over a graded poset.

The chain complex sums F(first vertex) over strictly ascending chains;
the cochain complex sums F(last vertex).  colim_i and lim^i are the
homology groups, computed exactly by the lattice method: cycles as a
preimage lattice, boundaries joined with the ambient relations.  Direct
(co)limits double as independent degree-0 oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as la
from .abgroup import AbHom, FgAbGroup, direct_sum, trivial_group, zero_hom
from .diagram import Diagram
from .errors import OracleViolation
from .poset import enumerate_chains, enumerate_weak_chains, longest_chain_length


class ChainComplex:
    """Bounded complex of f.g. groups with one block per chain.

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

    def d_from(self, n: int) -> AbHom:
        """The differential leaving degree n (zero hom when absent)."""
        h = self._diffs.get(n)
        if h is not None:
            return h
        m = n - 1 if self.orientation == "homological" else n + 1
        return zero_hom(self.group_at(n), self.group_at(m))

    def d_into(self, n: int) -> AbHom:
        m = n + 1 if self.orientation == "homological" else n - 1
        h = self._diffs.get(m)
        if h is not None:
            return h
        return zero_hom(self.group_at(m), self.group_at(n))

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
    M = la.zeros(tgt.group.ambient_rank, src.group.ambient_rank)
    for tj, sj, sign, blk in entries:
        h, w = blk.shape
        if h == 0 or w == 0:
            continue
        r0 = tgt.offsets[tj]
        c0 = src.offsets[sj]
        M[r0:r0 + h, c0:c0 + w] = M[r0:r0 + h, c0:c0 + w] + sign * blk
    return AbHom(src.group, tgt.group, M, check=False)


def _composite_is_zero(outer: AbHom, inner: AbHom) -> bool:
    """compose(outer, inner).is_zero(), column by column from the nonzero
    entries alone, without forming the dense product.  Every column that is
    not zero outright goes through the target's membership check."""
    outer_cols = la._to_cols(outer.matrix)
    for coeffs in la._to_cols(inner.matrix):
        col = la._combine(outer_cols, coeffs)
        if col and not outer.target.element_is_zero(col):
            return False
    return True


def _check_dd_zero(diffs, pairs):
    for n_outer, n_inner in pairs:
        if not _composite_is_zero(diffs[n_outer], diffs[n_inner]):
            raise OracleViolation(
                f"d o d is nonzero between degrees {n_inner} and {n_outer}")


def chain_complex(F: Diagram, top: int = None, normalized: bool = True) -> ChainComplex:
    """Homological complex with C_n the sum of F(sigma_0) over n-chains.

    d = sum of (-1)^i d_i; d_0 applies F(sigma_0 -> sigma_1), the other
    faces keep the coefficient and drop a vertex.  The unnormalized mode
    (weak chains, repeats allowed) never vanishes in high degrees, so it
    is built only up to top and homology is refused at the cut.
    """
    P = F.poset
    longest = longest_chain_length(P)
    if top is None:
        top = longest
    enum = enumerate_chains if normalized else enumerate_weak_chains
    blocks = {n: enum(P, n) for n in range(top + 1)}
    index = {n: {c.vertices: j for j, c in enumerate(blocks[n])}
             for n in range(top + 1)}
    sums = {n: direct_sum([F.groups[c.first] for c in blocks[n]])
            for n in range(top + 1)}
    diffs = {}
    for n in range(1, top + 1):
        entries = []
        for j, ch in enumerate(blocks[n]):
            v = ch.vertices
            for i in range(n + 1):
                face = v[:i] + v[i + 1:]
                tj = index[n - 1][face]
                if i == 0:
                    blk = F.hom(v[0], v[1]).matrix
                else:
                    blk = la.eye(F.groups[v[0]].ambient_rank)
                entries.append((tj, j, -1 if i % 2 else 1, blk))
        diffs[n] = _assemble(sums, n, n - 1, entries)
    _check_dd_zero(diffs, [(n - 1, n) for n in range(2, top + 1)])
    return ChainComplex("homological", blocks, sums, diffs, top,
                        normalized and top >= longest)


def cochain_complex(F: Diagram, top: int = None, normalized: bool = True) -> ChainComplex:
    """Cohomological complex with C^n the product of F(sigma_n) over
    n-chains (finite, so a direct sum).

    The component of d(x) at an (n+1)-chain tau sums (-1)^i x at the
    i-th face; the last coface is the only one that moves coefficients,
    through F(tau_n -> tau_{n+1}).
    """
    P = F.poset
    longest = longest_chain_length(P)
    if top is None:
        top = longest
    enum = enumerate_chains if normalized else enumerate_weak_chains
    blocks = {n: enum(P, n) for n in range(top + 1)}
    index = {n: {c.vertices: j for j, c in enumerate(blocks[n])}
             for n in range(top + 1)}
    sums = {n: direct_sum([F.groups[c.last] for c in blocks[n]])
            for n in range(top + 1)}
    diffs = {}
    for n in range(top):
        entries = []
        for tj, tau in enumerate(blocks[n + 1]):
            v = tau.vertices
            for i in range(n + 2):
                face = v[:i] + v[i + 1:]
                sj = index[n][face]
                if i == n + 1:
                    blk = F.hom(v[n], v[n + 1]).matrix
                else:
                    blk = la.eye(F.groups[v[n + 1]].ambient_rank)
                entries.append((tj, sj, -1 if i % 2 else 1, blk))
        diffs[n] = _assemble(sums, n, n + 1, entries)
    _check_dd_zero(diffs, [(n + 1, n) for n in range(top - 1)])
    return ChainComplex("cohomological", blocks, sums, diffs, top,
                        normalized and top >= longest)


def homology_at(X: ChainComplex, n: int) -> FgAbGroup:
    """H_n (or H^n): cycles modulo boundaries by the lattice method.

    Cycles are the ambient vectors whose differential lies in the
    relation span one degree over; boundaries are the image columns of
    the incoming differential joined with this degree's own relations.
    """
    if n < 0:
        return trivial_group()
    if n > X.top:
        if X.vanishes_above_top:
            return trivial_group()
        raise ValueError(f"complex truncated at {X.top}, degree {n} unavailable")
    if n == X.top and not X.vanishes_above_top:
        raise ValueError(
            f"degree {n} needs the complex built through degree {n + 1}")
    Cn = X.group_at(n)
    d_out = X.d_from(n)
    d_in = X.d_into(n)
    K = la.preimage_lattice(d_out.matrix, d_out.target.relations)
    B = la.hstack([d_in.matrix, Cn.relations])
    rels = la.solve(K, B)
    if rels is None:
        raise OracleViolation("boundary lattice escapes the cycle lattice")
    return FgAbGroup(K.shape[1], rels)


def derived_functor(F: Diagram, direction: str, i: int) -> FgAbGroup:
    """colim_i as chain homology, lim^i as cochain cohomology."""
    if i < 0:
        raise ValueError("derived functors are indexed by i >= 0")
    if direction == "colim":
        return homology_at(_cached_complex(F, "chain"), i)
    if direction == "lim":
        return homology_at(_cached_complex(F, "cochain"), i)
    raise ValueError(f"unknown direction {direction!r}")


def _cached_complex(F: Diagram, which: str) -> ChainComplex:
    """The normalized chain or cochain complex of F, built once per diagram."""
    cache = F._complexes
    if which not in cache:
        cache[which] = chain_complex(F) if which == "chain" else cochain_complex(F)
    return cache[which]


@dataclass(frozen=True)
class AcyclicityResult:
    acyclic: bool
    degree: int = None
    group: FgAbGroup = None

    def __bool__(self):
        return self.acyclic


def is_acyclic(F: Diagram, direction: str) -> AcyclicityResult:
    """All higher derived functors trivial; on failure carries the first
    nonvanishing degree and its group."""
    for i in range(1, longest_chain_length(F.poset) + 1):
        H = derived_functor(F, direction, i)
        if not H.is_trivial:
            return AcyclicityResult(False, i, H)
    return AcyclicityResult(True)


def colimit_direct(F: Diagram) -> FgAbGroup:
    """Coequalizer presentation: the sum of all values modulo
    x - F(cover)(x) for every ambient generator and cover."""
    P = F.poset
    sums = direct_sum([F.groups[i] for i in P.ids])
    pos = {ident: k for k, ident in enumerate(P.ids)}
    cols = [sums.group.relations]
    for a, b in P.covers:
        mat = F.cover_maps[(a, b)].matrix
        ra = F.groups[a].ambient_rank
        block = la.zeros(sums.group.ambient_rank, ra)
        oa = sums.offsets[pos[a]]
        ob = sums.offsets[pos[b]]
        for j in range(ra):
            block[oa + j, j] = 1
            for i in range(mat.shape[0]):
                block[ob + i, j] = block[ob + i, j] - mat[i, j]
        cols.append(block)
    return FgAbGroup(sums.group.ambient_rank, la.hstack(cols))


def limit_direct(F: Diagram) -> FgAbGroup:
    """Compatible tuples: the joint equalizer of all cover maps inside
    the product of the values."""
    P = F.poset
    sums = direct_sum([F.groups[i] for i in P.ids])
    pos = {ident: k for k, ident in enumerate(P.ids)}
    if not P.covers:
        return sums.group
    tgt = direct_sum([F.groups[b] for _, b in P.covers])
    M = la.zeros(tgt.group.ambient_rank, sums.group.ambient_rank)
    for k, (a, b) in enumerate(P.covers):
        mat = F.cover_maps[(a, b)].matrix
        ra = F.groups[a].ambient_rank
        rb = F.groups[b].ambient_rank
        oa = sums.offsets[pos[a]]
        ob = sums.offsets[pos[b]]
        row = tgt.offsets[k]
        M[row:row + rb, oa:oa + ra] = M[row:row + rb, oa:oa + ra] + mat
        for i in range(rb):
            M[row + i, ob + i] = M[row + i, ob + i] - 1
    L = la.preimage_lattice(M, tgt.group.relations)
    rels = la.solve(L, sums.group.relations)
    assert rels is not None, "componentwise relations are always compatible"
    return FgAbGroup(L.shape[1], rels)
