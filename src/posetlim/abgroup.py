"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^g modulo the column span of a g x k relations matrix.  Homs
are matrices on ambient generators, equal when they differ by target
relations, and zero when every nonzero column is a target relation
combination.  Everything reduces to exact integer lattice computations.
Membership tests and solves use the SpanChecker each matrix keeps
(IntMatrix.span); this module builds and caches no checker of its own.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import prod

from . import intlinalg as la
from .errors import AmbientMismatchError, MismatchError, OracleViolation


class FgAbGroup:
    """Z^ambient_rank modulo the column span of `relations`."""

    def __init__(self, ambient_rank: int, relations=None):
        if ambient_rank < 0:
            raise ValueError("negative ambient rank")
        self.ambient_rank = int(ambient_rank)
        if relations is None:
            relations = la.zeros(ambient_rank, 0)
        elif not isinstance(relations, la.IntMatrix):
            relations = la.intmat(relations, (ambient_rank, 0))
        if relations.shape[0] != self.ambient_rank:
            raise ValueError("relations must have one row per ambient generator")
        self.relations = relations

    @cached_property
    def _structure(self):
        diag = la.diagonal_of_snf(self.relations)
        torsion = tuple(d for d in diag if d > 1)
        free_rank = self.ambient_rank - len(diag)
        return free_rank, torsion

    @property
    def free_rank(self) -> int:
        return self._structure[0]

    @property
    def invariant_factors(self) -> tuple:
        return self._structure[1]

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    def order(self):
        """Number of elements, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def is_isomorphic_to(self, other: "FgAbGroup") -> bool:
        return (self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors)

    def same_presentation(self, other: "FgAbGroup") -> bool:
        return other is self or (self.ambient_rank == other.ambient_rank
                                 and self.relations == other.relations)

    def element_is_zero(self, x) -> bool:
        return self.relations.span.contains(x)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({self.ambient_rank}, rels={self.relations.shape[1]}: {self.describe()})"


# the one zero group: the empty direct sum's group, every zero entry of
# a page and the homology at every degree of ambient rank 0
_ZERO = FgAbGroup(0)


def trivial_group() -> FgAbGroup:
    """The shared zero group (ambient rank 0); it is never mutated."""
    return _ZERO


def free_group(n: int) -> FgAbGroup:
    return FgAbGroup(n)


def cyclic_group(d: int) -> FgAbGroup:
    if d <= 0:
        raise ValueError("order must be positive")
    return FgAbGroup(1, la.intmat([[d]]))


def group_from_invariants(free_rank: int, factors) -> FgAbGroup:
    factors = list(factors)
    g = free_rank + len(factors)
    rel = la.from_blocks(g, len(factors), [(free_rank + j, j, int(d), la.eye(1))
                                           for j, d in enumerate(factors)])
    return FgAbGroup(g, rel)


class AbHom:
    """Hom of presented groups: a target_ambient x source_ambient matrix.

    Well-definedness (matrix maps source relations into the target
    relation span) is checked at construction unless the caller certifies
    it with check=False.
    """

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix, check: bool = True):
        if not isinstance(matrix, la.IntMatrix):
            matrix = la.intmat(matrix, (target.ambient_rank, source.ambient_rank))
        if matrix.shape != (target.ambient_rank, source.ambient_rank):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"({target.ambient_rank}, {source.ambient_rank})")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and source.relations.shape[1]:
            for j, col in enumerate((matrix @ source.relations).cols):
                if not target.relations.span.contains(col):
                    raise ValueError(
                        f"not well defined: image of relation {j} "
                        f"is outside the target relation span")

    def __call__(self, x):
        """Apply to an ambient vector, returning an ambient vector of the target."""
        out = self.matrix @ la.intmat([[v] for v in x], (self.source.ambient_rank, 1))
        return out[:, 0]

    def equal(self, other: "AbHom") -> bool:
        """Equality as homs: matrices differ by the target relation span."""
        if self.matrix.shape != other.matrix.shape:
            return False
        return (self.matrix == other.matrix
                or self.target.relations.span.contains_all(self.matrix - other.matrix))

    def is_zero(self) -> bool:
        """Every column lies in the target relation span; a zero column
        needs no check, so an all-zero matrix never builds the target's
        relation checker."""
        return all(not col or self.target.element_is_zero(col) for col in self.matrix.cols)

    def __repr__(self):
        return f"AbHom({self.source.describe()} -> {self.target.describe()})"


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> AbHom:
    return AbHom(source, target, la.zeros(target.ambient_rank, source.ambient_rank),
                 check=False)


def identity_hom(G: FgAbGroup) -> AbHom:
    return AbHom(G, G, la.eye(G.ambient_rank), check=False)


def compose(second: AbHom, first: AbHom) -> AbHom:
    """second after first; MismatchError when endpoints disagree."""
    if not first.target.same_presentation(second.source):
        raise MismatchError("target of first differs from source of second")
    return AbHom(first.source, second.target, second.matrix @ first.matrix, check=False)


class Subgroup:
    """Subgroup of `ambient` generated by the columns of `generators`
    together with the ambient relations."""

    def __init__(self, ambient: FgAbGroup, generators):
        if not isinstance(generators, la.IntMatrix):
            generators = la.intmat(generators, (ambient.ambient_rank, 0))
        if generators.shape[0] != ambient.ambient_rank:
            raise AmbientMismatchError(
                f"generators have {generators.shape[0]} rows, "
                f"ambient rank is {ambient.ambient_rank}")
        self.ambient = ambient
        self.generators = generators

    @cached_property
    def _lattice(self) -> la.IntMatrix:
        """Echelon basis of span(generators | ambient relations)."""
        return la.lattice_basis(la.hstack([self.generators, self.ambient.relations]))

    def contains_element(self, x) -> bool:
        return self._lattice.span.contains(x)

    def contains_subgroup(self, other: "Subgroup"):
        """(verdict, witness): witness is a generator column of `other`
        outside self, or None."""
        if not self.ambient.same_presentation(other.ambient):
            raise AmbientMismatchError("subgroups live in different ambient groups")
        for j, col in enumerate(other.generators.cols):
            if not self._lattice.span.contains(col):
                return False, other.generators[:, j]
        return True, None

    @cached_property
    def as_group(self):
        """(FgAbGroup presenting the subgroup, embedding AbHom into ambient)."""
        basis = self._lattice
        grp = subquotient(basis, self.ambient.relations, "a subgroup")
        emb = AbHom(grp, self.ambient, basis, check=False)
        return grp, emb

    @property
    def is_trivial(self) -> bool:
        """Every generator lies in the ambient relation span."""
        return self.ambient.relations.span.contains_all(self.generators)

    def __repr__(self):
        grp, _ = self.as_group
        return f"Subgroup({grp.describe()} in {self.ambient.describe()})"


def kernel(h: AbHom) -> Subgroup:
    """The kernel of h, a Subgroup of the source (as_group presents it)."""
    return Subgroup(h.source, la.preimage_lattice(h.matrix, h.target.relations))


def quotient(G: FgAbGroup, S: Subgroup):
    """(G/S, projection hom).  AmbientMismatchError if S lives elsewhere."""
    if not G.same_presentation(S.ambient):
        raise AmbientMismatchError("subgroup is not given inside this group")
    Q = FgAbGroup(G.ambient_rank, la.hstack([G.relations, S.generators]))
    proj = AbHom(G, Q, la.eye(G.ambient_rank), check=False)
    return Q, proj


DirectSum = namedtuple("DirectSum", "group summands offsets")


# the empty direct sum, shared like the zero group it holds
_EMPTY_SUM = DirectSum(_ZERO, [], [])


def direct_sum(groups) -> DirectSum:
    """Direct sum as a block layout: summand k occupies the ambient rows
    offsets[k] onward of group, and its relations sit block-diagonally.
    The empty sum is one shared instance, whose lists must not be mutated."""
    summands = list(groups)
    if not summands:
        return _EMPTY_SUM
    offsets = []
    rel_blocks = []
    rank = cat = 0
    for G in summands:
        offsets.append(rank)
        rel_blocks.append((rank, cat, 1, G.relations))
        rank += G.ambient_rank
        cat += G.relations.shape[1]
    total = FgAbGroup(rank, la.from_blocks(rank, cat, rel_blocks))
    return DirectSum(total, summands, offsets)


def subquotient(L: la.IntMatrix, B: la.IntMatrix, where) -> FgAbGroup:
    """span(L) / span(B), presented on L's columns; OracleViolation
    naming where when B leaves span(L)."""
    rels = la.solve(L, B)
    if rels is None:
        raise OracleViolation(f"boundary lattice escapes the cycle lattice at {where}")
    return FgAbGroup(L.shape[1], rels)


def homology(d_in: AbHom, d_out: AbHom, where) -> FgAbGroup:
    """ker d_out / im d_in at the group between them.  The cycles are the
    preimage of d_out's target relations, the boundaries d_in's image
    joined with the middle group's relations."""
    K = la.preimage_lattice(d_out.matrix, d_out.target.relations)
    return subquotient(K, la.hstack([d_in.matrix, d_out.source.relations]), where)


def hom_is_mono(h: AbHom) -> bool:
    """The kernel is trivial, by span membership of its generators."""
    return kernel(h).is_trivial
