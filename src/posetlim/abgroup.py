"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^g modulo the column span of a g x k relations matrix.  Homs
are matrices on ambient generators, equal when they differ by target
relations.  Everything reduces to exact integer lattice computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from . import intlinalg as la
from .errors import AmbientMismatchError, MismatchError


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
    def _rel_checker(self) -> la.SpanChecker:
        return la.SpanChecker(self.relations)

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
        return self._rel_checker.contains(x)

    def reduce_element(self, x):
        """Canonical coset representative of x (unique per class)."""
        return tuple(self._rel_checker.residue(x))

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({self.ambient_rank}, rels={self.relations.shape[1]}: {self.describe()})"


def trivial_group() -> FgAbGroup:
    return FgAbGroup(0)


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


@dataclass(frozen=True)
class GroupInfo:
    free_rank: int
    invariant_factors: tuple
    is_free: bool
    is_trivial: bool
    is_injective_in_ab: bool


def classify_group(G: FgAbGroup) -> GroupInfo:
    """Structure of G from the Smith form of its relations.

    A finitely generated group is injective (divisible) only when trivial.
    """
    return GroupInfo(
        free_rank=G.free_rank,
        invariant_factors=G.invariant_factors,
        is_free=G.is_free,
        is_trivial=G.is_trivial,
        is_injective_in_ab=G.is_trivial,
    )


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
            moved = matrix @ source.relations
            chk = target._rel_checker
            for j, col in enumerate(moved.cols):
                if not chk.contains(col):
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
        return self.target._rel_checker.contains_all(self.matrix - other.matrix)

    def is_zero(self) -> bool:
        return self.target._rel_checker.contains_all(self.matrix)

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

    @cached_property
    def _checker(self) -> la.SpanChecker:
        return la.SpanChecker(self._lattice)

    def contains_element(self, x) -> bool:
        return self._checker.contains(x)

    def contains_subgroup(self, other: "Subgroup"):
        """(verdict, witness): witness is a generator column of `other`
        outside self, or None."""
        if not self.ambient.same_presentation(other.ambient):
            raise AmbientMismatchError("subgroups live in different ambient groups")
        for j, col in enumerate(other.generators.cols):
            if not self._checker.contains(col):
                return False, other.generators[:, j]
        return True, None

    def same_subgroup(self, other: "Subgroup") -> bool:
        a, _ = self.contains_subgroup(other)
        b, _ = other.contains_subgroup(self)
        return a and b

    @cached_property
    def as_group(self):
        """(FgAbGroup presenting the subgroup, embedding AbHom into ambient)."""
        basis = self._lattice
        rels = la.solve(basis, self.ambient.relations)
        assert rels is not None, "ambient relations must lie in the subgroup lattice"
        grp = FgAbGroup(basis.shape[1], rels)
        emb = AbHom(grp, self.ambient, basis, check=False)
        return grp, emb

    @property
    def is_trivial(self) -> bool:
        grp, _ = self.as_group
        return grp.is_trivial

    def is_full(self) -> bool:
        full = Subgroup(self.ambient, la.eye(self.ambient.ambient_rank))
        ok, _ = self.contains_subgroup(full)
        return ok

    def __repr__(self):
        grp, _ = self.as_group
        return f"Subgroup({grp.describe()} in {self.ambient.describe()})"


def contains(S: Subgroup, x) -> bool | tuple:
    """Membership of an element, or containment of another subgroup
    (with witness on failure)."""
    if isinstance(x, Subgroup):
        return S.contains_subgroup(x)
    return S.contains_element(x)


def kernel(h: AbHom):
    """Kernel of h.

    Returns (K, K_group, embedding): K is a Subgroup of the source whose
    lattice is the projection of ker [A | -R_target] onto source
    coordinates; K_group presents it abstractly with an embedding into
    the source.
    """
    K_lattice = la.preimage_lattice(h.matrix, h.target.relations)
    K = Subgroup(h.source, K_lattice)
    grp, emb = K.as_group
    return K, grp, emb


def image(h: AbHom) -> Subgroup:
    """Image of h as a subgroup of the target."""
    return Subgroup(h.target, h.matrix)


def quotient(G: FgAbGroup, S: Subgroup):
    """(G/S, projection hom).  AmbientMismatchError if S lives elsewhere."""
    if not G.same_presentation(S.ambient):
        raise AmbientMismatchError("subgroup is not given inside this group")
    Q = FgAbGroup(G.ambient_rank, la.hstack([G.relations, S.generators]))
    proj = AbHom(G, Q, la.eye(G.ambient_rank), check=False)
    return Q, proj


@dataclass
class DirectSum:
    group: FgAbGroup
    summands: list
    offsets: list


def direct_sum(groups) -> DirectSum:
    """Direct sum as a block layout: summand k occupies the ambient rows
    offsets[k] onward of group, and its relations sit block-diagonally."""
    summands = list(groups)
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


def hom_is_mono(h: AbHom) -> bool:
    _, ker_grp, _ = kernel(h)
    return ker_grp.is_trivial


def hom_is_epi(h: AbHom) -> bool:
    Q, _ = quotient(h.target, image(h))
    return Q.is_trivial


def enumerate_elements(G: FgAbGroup, cap: int = 4096):
    """All elements of a finite group as canonical representatives.

    Closure of the ambient generators under addition; None when the
    group is infinite or larger than cap.
    """
    if G.free_rank:
        return None
    gens = [tuple(1 if i == j else 0 for i in range(G.ambient_rank))
            for j in range(G.ambient_rank)]
    zero = G.reduce_element([0] * G.ambient_rank)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.reduce_element([a + b for a, b in zip(x, g)])
            if y not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(y)
                frontier.append(y)
    return seen
