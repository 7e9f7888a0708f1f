"""Functors from a graded poset to finitely generated abelian groups.

A diagram assigns a group to each object and a hom to each cover; the
composite along any cover path between two comparable objects is the
value on the unique arrow, so all diamonds must commute.  Validation
caches every composite and reports the first failing diamond with both
witness paths.
"""

from __future__ import annotations

from functools import cached_property

from . import intlinalg as la
from .abgroup import (
    AbHom,
    FgAbGroup,
    Subgroup,
    compose,
    direct_sum,
    free_group,
    identity_hom,
    quotient,
    trivial_group,
    zero_hom,
)
from .errors import (
    DiamondError,
    MismatchError,
    MissingDataError,
    NoArrowError,
    NotNaturalError,
)
from .poset import GradedPoset


class Diagram:
    """Validated functor.  Construct through validate_functor."""

    def __init__(self, poset, groups, cover_maps, composites, paths):
        self.poset = poset
        self.groups = groups
        self.cover_maps = cover_maps
        self._composites = composites
        self._paths = paths
        # nerve complexes by (kind, matching) and filtered complexes by
        # (variant, display degrees); filled by derived and spectral
        self._complexes = {}
        self._filtered = {}

    @cached_property
    def _detached(self) -> "Diagram":
        """The same functor under a Diagram of its own, with its own
        caches.  A cached object that builds a complex later holds this,
        not the diagram it is cached on, so the caches make no reference
        cycle and a dropped diagram is freed at once."""
        return Diagram(self.poset, self.groups, self.cover_maps, self._composites, self._paths)

    def group(self, i: str) -> FgAbGroup:
        self.poset._check_id(i)
        return self.groups[i]

    def hom(self, p: str, q: str) -> AbHom:
        self.poset._check_id(p)
        self.poset._check_id(q)
        try:
            return self._composites[(p, q)]
        except KeyError:
            raise NoArrowError(f"no arrow {p!r} -> {q!r}") from None

    def path(self, p, q):
        """The cover path whose composite is cached for (p, q)."""
        return self._paths[(p, q)]

    def __repr__(self):
        vals = ", ".join(f"{i}: {self.groups[i].describe()}" for i in self.poset.ids)
        return f"Diagram({vals})"


def validate_functor(poset: GradedPoset, groups, cover_maps) -> Diagram:
    """Check the data of a functor and cache all path composites.

    groups: id -> FgAbGroup for every object.
    cover_maps: (p, p') -> AbHom for every cover, endpoints matching.
    Raises MissingDataError for absent data, MismatchError for wrong
    endpoints, DiamondError when two cover paths compose differently.
    """
    for i in poset.ids:
        if i not in groups:
            raise MissingDataError(f"no group for object {i!r}")
    maps = {}
    for c in poset.covers:
        h = cover_maps.get(c)
        if h is None:
            raise MissingDataError(f"no hom for cover {c!r}")
        if not h.source.same_presentation(groups[c[0]]):
            raise MismatchError(f"hom for cover {c!r} has the wrong source")
        if not h.target.same_presentation(groups[c[1]]):
            raise MismatchError(f"hom for cover {c!r} has the wrong target")
        maps[c] = h
    for c in cover_maps:
        if tuple(c) not in maps:
            raise MissingDataError(f"map given for {c!r}, which is not a cover")

    composites = {}
    paths = {}
    for i in poset.ids:
        composites[(i, i)] = identity_hom(groups[i])
        paths[(i, i)] = (i,)

    # composites by increasing degree gap: every first cover step lands
    # on a pair already done, so path independence is checked inductively
    # across first steps only
    pairs = sorted(
        ((p, q) for p in poset.ids for q in poset.strictly_above[p]),
        key=lambda pq: (poset.degree[pq[1]] - poset.degree[pq[0]], pq))
    for p, q in pairs:
        chosen = None
        for x in poset.covers_out[p]:
            if not poset.leq(x, q):
                continue
            comp = compose(composites[(x, q)], maps[(p, x)])
            path = (p,) + paths[(x, q)]
            if chosen is None:
                chosen = (comp, path)
            elif not chosen[0].equal(comp):
                raise DiamondError(
                    f"paths {chosen[1]} and {path} compose to different homs",
                    path_a=chosen[1], path_b=path,
                    matrix_a=chosen[0].matrix, matrix_b=comp.matrix)
        composites[(p, q)] = chosen[0]
        paths[(p, q)] = chosen[1]
    return Diagram(poset, dict(groups), maps, composites, paths)


def im_at(F: Diagram, i0: str) -> Subgroup:
    """Subgroup of F(i0) generated by the images of all

    non-identity incoming arrows; covers into i0 suffice because every
    arrow of degree > 1 factors through a final cover.
    """
    F.poset._check_id(i0)
    blocks = [F.cover_maps[(j, i0)].matrix for j in F.poset.covers_into[i0]]
    rank = F.groups[i0].ambient_rank
    gens = la.hstack(blocks) if blocks else la.zeros(rank, 0)
    return Subgroup(F.groups[i0], gens)


def coker_at(F: Diagram, i0: str):
    """(F(i0)/Im at i0, projection hom)."""
    return quotient(F.groups[i0], im_at(F, i0))


def ker_at(F: Diagram, i0: str) -> Subgroup:
    """Intersection of the kernels of all non-identity arrows out of i0;
    the full group when there are none.

    Unlike images, kernels are intersected over every outgoing arrow,
    not just covers (the cover intersection happens to agree, because a
    vector killed by every first cover step is killed by every longer
    composite; both are computed in the tests).
    """
    F.poset._check_id(i0)
    G = F.groups[i0]
    lattice = la.eye(G.ambient_rank)
    for q in F.poset.strictly_above[i0]:
        h = F.hom(i0, q)
        ker_q = la.preimage_lattice(h.matrix, h.target.relations)
        lattice = la.intersect_lattices(lattice, ker_q)
    return Subgroup(G, lattice)


class NatTransformation:
    """Componentwise hom between diagrams over the same poset.

    Naturality is verified on covers at construction (sufficient, since
    composites are cover products); NotNaturalError carries the first
    failing cover.
    """

    def __init__(self, source: Diagram, target: Diagram, components):
        if source.poset.ids != target.poset.ids or \
                sorted(source.poset.covers) != sorted(target.poset.covers):
            raise MismatchError("source and target live over different posets")
        self.source = source
        self.target = target
        self.components = dict(components)
        for i in source.poset.ids:
            h = self.components.get(i)
            if h is None:
                raise MissingDataError(f"no component at {i!r}")
            if not h.source.same_presentation(source.groups[i]) or \
                    not h.target.same_presentation(target.groups[i]):
                raise MismatchError(f"component at {i!r} has the wrong endpoints")
        for a, b in source.poset.covers:
            left = compose(self.components[b], source.cover_maps[(a, b)])
            right = compose(target.cover_maps[(a, b)], self.components[a])
            if not left.equal(right):
                raise NotNaturalError(
                    f"square over cover ({a!r}, {b!r}) does not commute")

    def component(self, i: str) -> AbHom:
        return self.components[i]

    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.components.values())


def representable_diagram(P: GradedPoset, c: str) -> Diagram:
    """Z at every object above c, trivial elsewhere, identities between
    the Z's."""
    P._check_id(c)
    groups = {i: free_group(1) if P.leq(c, i) else trivial_group()
              for i in P.ids}
    maps = {}
    for a, b in P.covers:
        if P.leq(c, a):
            maps[(a, b)] = identity_hom(groups[a])
        else:
            maps[(a, b)] = zero_hom(groups[a], groups[b])
    return validate_functor(P, groups, maps)


def skyscraper_diagram(P: GradedPoset, i0: str, A: FgAbGroup) -> Diagram:
    """A at i0, trivial elsewhere, zero on every cover."""
    P._check_id(i0)
    groups = {i: A if i == i0 else trivial_group() for i in P.ids}
    maps = {c: zero_hom(groups[c[0]], groups[c[1]]) for c in P.covers}
    return validate_functor(P, groups, maps)


def constant_diagram(P: GradedPoset, A: FgAbGroup) -> Diagram:
    """A everywhere with identity transition maps."""
    groups = {i: A for i in P.ids}
    maps = {c: identity_hom(A) for c in P.covers}
    return validate_functor(P, groups, maps)


def transpose_diagram(F: Diagram) -> Diagram:
    """The same matrices read backwards over the opposite poset.

    Only defined when every value is free (a transposed matrix has no
    reason to respect relations).  Diamonds still commute: transposition
    reverses products and equality of free-target homs is equality of
    matrices.
    """
    from .poset import opposite

    for i in F.poset.ids:
        if F.groups[i].relations.shape[1]:
            raise MismatchError(
                f"transpose needs free values, {i!r} has relations")
    Q = opposite(F.poset)
    maps = {}
    for a, b in F.poset.covers:
        M = F.cover_maps[(a, b)].matrix
        maps[(b, a)] = AbHom(F.groups[b], F.groups[a], M.T, check=False)
    return validate_functor(Q, dict(F.groups), maps)


def diagrams_equal(F: Diagram, G: Diagram) -> bool:
    """Objectwise equal presentations and coverwise equal homs."""
    if F.poset.ids != G.poset.ids or sorted(F.poset.covers) != sorted(G.poset.covers):
        return False
    if any(F.poset.degree[i] != G.poset.degree[i] for i in F.poset.ids):
        return False
    for i in F.poset.ids:
        if not F.groups[i].same_presentation(G.groups[i]):
            return False
    return all(F.cover_maps[c].equal(G.cover_maps[c]) for c in F.poset.covers)


def direct_sum_diagrams(diagrams):
    """The objectwise direct sum diagram.

    All summands must live over the same poset; groups are summed
    objectwise and cover maps act blockwise.
    """
    diagrams = list(diagrams)
    if not diagrams:
        raise ValueError("need at least one summand")
    P = diagrams[0].poset
    for D in diagrams[1:]:
        if D.poset.ids != P.ids or sorted(D.poset.covers) != sorted(P.covers):
            raise MismatchError("summands live over different posets")
    sums = {i: direct_sum([D.groups[i] for D in diagrams]) for i in P.ids}
    groups = {i: sums[i].group for i in P.ids}
    maps = {}
    for a, b in P.covers:
        M = la.from_blocks(
            groups[b].ambient_rank, groups[a].ambient_rank,
            [(sums[b].offsets[k], sums[a].offsets[k], 1, D.cover_maps[(a, b)].matrix)
             for k, D in enumerate(diagrams)])
        maps[(a, b)] = AbHom(groups[a], groups[b], M, check=False)
    return validate_functor(P, groups, maps)
