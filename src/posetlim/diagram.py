"""Functors from a graded poset to finitely generated abelian groups.

A diagram assigns a group to each object and a hom to each cover; the
composite along any cover path between two comparable objects is the
value on the unique arrow, so all diamonds must commute.  Validation
compares composites only at objects with two or more upper covers, and
only where no shorter pair already forces them equal: one comparison
per connected component of the first covers, grid4x4's 9 squares rather
than all 36 pairs of first covers.  It composes only the homs those
comparisons need, and reports the first failing diamond with both
witness paths, the same ones an all-pairs comparison reports.  Every
other composite is composed the first time it is asked for, along the
first cover of its source below its target, and kept.
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

    def __init__(self, poset, groups, cover_maps, composites):
        self.poset = poset
        self.groups = groups
        self.cover_maps = cover_maps
        # (hom, cover path) by comparable pair, filled as they are asked for
        self._composites = composites
        # nerve complexes by (kind, matching) and filtered complexes by
        # (variant, display degrees); filled by derived and spectral
        self._complexes = {}
        self._filtered = {}
        # im_at and ker_at by object
        self._images = {}
        self._kernels = {}

    @cached_property
    def _detached(self) -> "Diagram":
        """The same functor under a Diagram of its own, with its own
        caches.  A cached object that builds a complex later holds this,
        not the diagram it is cached on, so the caches make no reference
        cycle and a dropped diagram is freed at once."""
        return Diagram(self.poset, self.groups, self.cover_maps, self._composites)

    def group(self, i: str) -> FgAbGroup:
        self.poset._check_id(i)
        return self.groups[i]

    def hom(self, p: str, q: str) -> AbHom:
        """The value on the arrow p -> q: the composite along path(p, q)."""
        return self._composite(p, q)[0]

    def path(self, p, q):
        """The cover path whose composite is hom(p, q)."""
        return self._composite(p, q)[1]

    def _composite(self, p, q):
        """(hom, path) for p <= q, kept once composed.  The path runs
        through the first cover of p below q, then along path(x, q) for
        that cover x."""
        cache = self._composites
        hit = cache.get((p, q))
        if hit is not None:
            return hit
        P = self.poset
        P._check_id(p)
        P._check_id(q)
        if p == q:
            hit = cache[(p, p)] = (identity_hom(self.groups[p]), (p,))
            return hit
        if q not in P.above_set[p]:
            raise NoArrowError(f"no arrow {p!r} -> {q!r}")
        # first covers up from p to a pair already composed or a cover of q
        walk = [p]
        while (walk[-1], q) not in cache and q not in P.covers_out[walk[-1]]:
            walk.append(_first_cover(P, walk[-1], q))
        x = walk.pop()
        h, path = cache.get((x, q)) or (self.cover_maps[(x, q)], (x, q))
        cache[(x, q)] = (h, path)
        for y in reversed(walk):
            h, path = compose(h, self.cover_maps[(y, x)]), (y,) + path
            cache[(y, q)] = (h, path)
            x = y
        return h, path

    def __repr__(self):
        vals = ", ".join(f"{i}: {self.groups[i].describe()}" for i in self.poset.ids)
        return f"Diagram({vals})"


def _first_cover(P: GradedPoset, p, q):
    """The first of p's upper covers strictly below q."""
    return next(x for x in P.covers_out[p] if q in P.above_set[x])


def validate_functor(poset: GradedPoset, groups, cover_maps) -> Diagram:
    """Check the data of a functor; composites are composed when asked for.

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
    F = Diagram(poset, dict(groups), maps, {})

    # pairs by increasing degree gap.  Two first covers x, x' of p below
    # q, both below some z < q, give equal composites once the shorter
    # pairs (p, z), (x, q) and (x', q) are path independent, since both
    # paths then run through z.  So only the first member of each
    # connected component of that relation is compared, and the first
    # one that differs is the first cover that an all-pairs comparison
    # would have reported.  At a gap of 2 nothing lies strictly between
    # a first cover and q, so every first cover is a head.
    above, below = poset.above_set, poset.below_set
    checks = []
    for p in poset.ids:
        ups = poset.covers_out[p]
        if len(ups) > 1:
            for q in above[p]:
                firsts = [x for x in ups if q in above[x]]
                if len(firsts) > 1:
                    checks.append((poset.degree[q] - poset.degree[p], p, q, firsts))
    checks.sort()
    for gap, p, q, firsts in checks:
        if gap > 2:
            firsts = _component_heads(firsts, lambda x: above[x] & below[q])
            if len(firsts) < 2:
                continue
        x = firsts[0]
        chosen = compose(F.hom(x, q), maps[(p, x)])
        path = (p,) + F.path(x, q)
        for y in firsts[1:]:
            comp = compose(F.hom(y, q), maps[(p, y)])
            if not chosen.equal(comp):
                other = (p,) + F.path(y, q)
                raise DiamondError(
                    f"paths {path} and {other} compose to different homs",
                    path_a=path, path_b=other,
                    matrix_a=chosen.matrix, matrix_b=comp.matrix)
        F._composites[(p, q)] = (chosen, path)
    return F


def _component_heads(items, reach):
    """The first item of each connected component, in order, where two
    items are joined when their reach sets meet."""
    heads, reaches = [], []
    for x in items:
        r = reach(x)
        hit = [k for k, s in enumerate(reaches) if not s.isdisjoint(r)]
        if not hit:
            heads.append(x)
            reaches.append(r)
            continue
        for k in reversed(hit[1:]):
            r = r | reaches.pop(k)
            heads.pop(k)
        reaches[hit[0]] = reaches[hit[0]] | r
    return heads


def im_at(F: Diagram, i0: str) -> Subgroup:
    """Subgroup of F(i0) generated by the images of all

    non-identity incoming arrows; covers into i0 suffice because every
    arrow of degree > 1 factors through a final cover.  Built once per
    object and kept on F.
    """
    hit = F._images.get(i0)
    if hit is None:
        F.poset._check_id(i0)
        blocks = [F.cover_maps[(j, i0)].matrix for j in F.poset.covers_into[i0]]
        rank = F.groups[i0].ambient_rank
        gens = la.hstack(blocks) if blocks else la.zeros(rank, 0)
        hit = F._images[i0] = Subgroup(F.groups[i0], gens)
    return hit


def coker_at(F: Diagram, i0: str):
    """(F(i0)/Im at i0, projection hom)."""
    return quotient(F.groups[i0], im_at(F, i0))


def ker_at(F: Diagram, i0: str) -> Subgroup:
    """Intersection of the kernels of all non-identity arrows out of i0;
    the full group when there are none.  Built once per object and kept
    on F.

    Unlike images, kernels are intersected over every outgoing arrow,
    not just covers (the cover intersection happens to agree, because a
    vector killed by every first cover step is killed by every longer
    composite; both are computed in the tests).
    """
    hit = F._kernels.get(i0)
    if hit is None:
        F.poset._check_id(i0)
        G = F.groups[i0]
        lattice = la.eye(G.ambient_rank)
        for q in F.poset.strictly_above[i0]:
            h = F.hom(i0, q)
            ker_q = la.preimage_lattice(h.matrix, h.target.relations)
            lattice = la.intersect_lattices(lattice, ker_q)
        hit = F._kernels[i0] = Subgroup(G, lattice)
    return hit


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
