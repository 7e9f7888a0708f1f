"""Functors from a graded poset to finitely generated abelian groups.

A diagram assigns a group to each object and a hom to each cover; the
composite along any cover path between two comparable objects is the
value on the unique arrow, so all diamonds must commute.  Validation
compares p -> x -> q with p -> y -> q for every object p, every two
upper covers x, y of p and every minimal element q of the common
up-set of x and y, and nothing else: grid4x4's 9 squares rather than
all 36 pairs of first covers below some object.

That is enough, by induction on the degree gap from p to q.  Take two
first covers x, y of p below q and suppose every pair with a smaller
gap is path independent.  Either q is a minimal common upper bound of
x and y, and the two composites are compared; or x and y lie below some
m < q, and then both composites factor through m, where the shorter
pair (p, m) is already path independent.  So the checks pass exactly
when the functor commutes, and by increasing gap the first failing one
is the pair, the two witness paths and the matrices that an all-pairs
comparison reports.  Validation composes only the homs those checks
need; every other composite is composed the first time it is asked for,
along the first cover of its source below its target, and kept.  Only
the homs are kept: a cover path is walked when something asks for one,
as a failing check does for its two witness paths.
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
)
from .poset import GradedPoset


class Diagram:
    """Validated functor.  Construct through validate_functor."""

    def __init__(self, poset, groups, cover_maps, composites):
        self.poset = poset
        self.groups = groups
        self.cover_maps = cover_maps
        # the hom by comparable pair, filled as they are asked for
        self._composites = composites
        # the one store (kept), by tagged key: ("complex", kind, matching),
        # ("filtered", variant, display degrees), ("image" | "kernel", i0)
        self._kept = {}

    def kept(self, key, build, *args):
        """build(*args), run once per key and kept on the diagram.

        >>> F = Diagram(None, {}, {}, {})
        >>> F.kept(("image", "a"), list, "ab"), F.kept(("image", "a"), list, "xy")
        (['a', 'b'], ['a', 'b'])
        """
        hit = self._kept.get(key)
        if hit is None:
            hit = self._kept[key] = build(*args)
        return hit

    @cached_property
    def _detached(self) -> "Diagram":
        """The same functor under a Diagram of its own, with its own
        store.  A complex holds this, not the diagram it is kept on, and
        builds page 0's level pieces from it later, so the store makes no
        reference cycle and a dropped diagram is freed at once."""
        return Diagram(self.poset, self.groups, self.cover_maps, self._composites)

    def hom(self, p: str, q: str) -> AbHom:
        """The value on the arrow p -> q, the composite along path(p, q),
        kept once composed with every composite on the way."""
        cache = self._composites
        h = cache.get((p, q))
        if h is not None:
            return h
        P = self.poset
        if not P.leq(p, q):
            raise NoArrowError(f"no arrow {p!r} -> {q!r}")
        if p == q:
            return cache.setdefault((p, p), identity_hom(self.groups[p]))
        # first covers up from p to a pair already composed or a cover of q
        walk = [p]
        while (walk[-1], q) not in cache and q not in P.covers_out[walk[-1]]:
            walk.append(_first_cover(P, walk[-1], q))
        x = walk.pop()
        h = cache[(x, q)] = cache.get((x, q)) or self.cover_maps[(x, q)]
        for y in reversed(walk):
            h = cache[(y, q)] = compose(h, self.cover_maps[(y, x)])
            x = y
        return h

    def path(self, p, q):
        """The cover path whose composite is hom(p, q): from p through the
        first upper cover below q, or q itself, up to q."""
        if not self.poset.leq(p, q):
            raise NoArrowError(f"no arrow {p!r} -> {q!r}")
        walk = [p]
        while walk[-1] != q:
            walk.append(_first_cover(self.poset, walk[-1], q))
        return tuple(walk)

    def __repr__(self):
        vals = ", ".join(f"{i}: {self.groups[i].describe()}" for i in self.poset.ids)
        return f"Diagram({vals})"


def _first_cover(P: GradedPoset, p, q):
    """The first of p's upper covers at or below q, for p < q."""
    return next(x for x in P.covers_out[p] if x == q or q in P.above_set[x])


def validate_functor(poset: GradedPoset, groups, cover_maps) -> Diagram:
    """Check the data of a functor; composites are composed when asked for.

    groups: id -> FgAbGroup for every object.
    cover_maps: (p, p') -> AbHom for every cover, endpoints matching.
    Raises MissingDataError for absent data, MismatchError for wrong
    endpoints, DiamondError when two cover paths compose differently.
    The functor commutes exactly when, for every p, every two upper
    covers x, y of p and every minimal common upper bound q of x and y,
    p -> x -> q and p -> y -> q agree (module docstring); these checks
    run by increasing degree gap, so the first that fails is the first
    failing pair of an all-pairs comparison.
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

    # one check per two upper covers x, y of p and per minimal element q
    # of above[x] & above[y], by increasing degree gap; see the module
    # docstring for why these suffice.  That set is an up-set, so q is
    # minimal in it when none of q's lower covers lies in it.
    above, degree = poset.above_set, poset.degree
    checks = []
    for p in poset.ids:
        ups = poset.covers_out[p]
        for k, x in enumerate(ups):
            for y in ups[k + 1:]:
                common = above[x] & above[y]
                for q in common:
                    if common.isdisjoint(poset.covers_into[q]):
                        checks.append((degree[q] - degree[p], p, q, x, y))
    checks.sort()
    through = {}  # (p, z, q) -> p -> z -> q for a cover z of p
    for _, p, q, x, y in checks:
        for z in (x, y):
            if (p, z, q) not in through:
                through[(p, z, q)] = compose(F.hom(z, q), maps[(p, z)])
        a, b = through[(p, x, q)], through[(p, y, q)]
        if not a.equal(b):
            path_a, path_b = (p,) + F.path(x, q), (p,) + F.path(y, q)
            raise DiamondError(
                f"paths {path_a} and {path_b} compose to different homs",
                path_a=path_a, path_b=path_b, matrix_a=a.matrix, matrix_b=b.matrix)
        if x == _first_cover(poset, p, q):
            F._composites[(p, q)] = a
    return F


def im_at(F: Diagram, i0: str) -> Subgroup:
    """Subgroup of F(i0) generated by the images of all
    non-identity incoming arrows; covers into i0 suffice because every
    arrow of degree > 1 factors through a final cover.  Built once per
    object and kept on F.
    """
    return F.kept(("image", i0), _image, F, i0)


def _image(F: Diagram, i0: str) -> Subgroup:
    F.poset._check_id(i0)
    blocks = [F.cover_maps[(j, i0)].matrix for j in F.poset.covers_into[i0]]
    rank = F.groups[i0].ambient_rank
    return Subgroup(F.groups[i0], la.hstack(blocks) if blocks else la.zeros(rank, 0))


def coker_at(F: Diagram, i0: str):
    """(F(i0)/Im at i0, projection hom)."""
    return quotient(F.groups[i0], im_at(F, i0))


def ker_at(F: Diagram, i0: str) -> Subgroup:
    """Intersection of the kernels of all non-identity arrows out of i0;
    the full group when there are none.  Covers out of i0 suffice because
    every such arrow factors through a first cover, so what every cover
    kills every arrow kills.  Built once per object and kept on F.
    """
    return F.kept(("kernel", i0), _joint_kernel, F, i0)


def _joint_kernel(F: Diagram, i0: str) -> Subgroup:
    F.poset._check_id(i0)
    G = F.groups[i0]
    lattice = la.eye(G.ambient_rank)
    for q in F.poset.covers_out[i0]:
        h = F.cover_maps[(i0, q)]
        ker_q = la.preimage_lattice(h.matrix, h.target.relations)
        lattice = la.intersect_lattices(lattice, ker_q)
    return Subgroup(G, lattice)


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
