"""Finite graded posets given by objects with degrees and a cover relation.

Every cover changes degree by exactly one.  Posets declared with
direction="decreasing" (degrees fall along covers) are normalized to an
internal increasing degree; the user's degrees are kept for display.
A chain is the tuple of its object ids in ascending order; only
enumerate_chains wraps each in a Chain.

The order is kept once: the covers both ways and, per element, one int
mask of the ids strictly above it, bit k standing for ids[k].  Only this
module reads a mask; the others ask GradedPoset's methods, which take
and give ids.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import compress
from operator import or_

from .errors import (
    CycleError,
    DegreeError,
    DuplicateIdError,
    EmptyPosetError,
    UnknownIdError,
)


PosetObject = namedtuple("PosetObject", "id degree")

_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _selector(mask):
    """Bytes 0 and 1, the k-th being bit k of mask, to compress ids by."""
    return bin(mask)[:1:-1].encode().translate(_DIGITS)


class Chain(namedtuple("Chain", "vertices")):
    """Strictly ascending chain of object ids, as enumerate_chains lists
    it; everything else holds a chain as its tuple of ids."""
    __slots__ = ()

    @property
    def first(self) -> str:
        return self.vertices[0]

    @property
    def last(self) -> str:
        return self.vertices[-1]


class GradedPoset:
    """Validated graded poset.  Use validate_graded to construct.  It
    keeps the order once, as the covers both ways and the up-set masks."""

    def __init__(self, objects, covers, direction):
        self.objects = list(objects)
        self.covers = list(covers)
        self.direction = direction
        self.display_degrees = dict(self.objects)
        sign = 1 if direction == "increasing" else -1
        self.degree = {i: sign * d for i, d in self.display_degrees.items()}
        self.ids = sorted(self.degree)

    @cached_property
    def covers_out(self):
        out = {i: [] for i in self.ids}
        for a, b in self.covers:
            out[a].append(b)
        return {i: sorted(v) for i, v in out.items()}

    @cached_property
    def covers_into(self):
        into = {i: [] for i in self.ids}
        for a, b in self.covers:
            into[b].append(a)
        return {i: sorted(v) for i, v in into.items()}

    @cached_property
    def _pos(self):
        """id -> its position in ids, the bit that stands for it in a mask."""
        return {i: k for k, i in enumerate(self.ids)}

    @cached_property
    def _up(self):
        """id -> the mask of the ids strictly above it (transitive closure),
        from the top degree down, so a deep poset needs no deep recursion."""
        pos, up = self._pos, {}
        for i in sorted(self.ids, key=self.degree.get, reverse=True):
            mask = 0
            for j in self.covers_out[i]:
                mask |= up[j] | 1 << pos[j]
            up[i] = mask
        return up

    @cached_property
    def maximal(self):
        """The maximal ids, in id order."""
        return [i for i in self.ids if not self.covers_out[i]]

    def _members(self, mask):
        """The ids whose bits mask sets, in id order."""
        return list(compress(self.ids, _selector(mask)))

    def above(self, p: str) -> list:
        """The ids strictly above p, in id order."""
        return self._members(self._up[p])

    def above_among(self, p: str, ids) -> list:
        """The ids of the list ids strictly above p, in its order."""
        low, pos = self._up[p], self._pos
        return [x for x in ids if low >> pos[x] & 1]

    def below_among(self, q: str, ids) -> list:
        """The ids of the list ids strictly below q, in its order."""
        up, k = self._up, self._pos[q]
        return [x for x in ids if up[x] >> k & 1]

    def between(self, p: str, q: str) -> list:
        """The ids strictly between p and q, in id order, from the layers between."""
        return sorted(self.below_among(q, self.above_among(p, [
            x for d in range(self.degree[p] + 1, self.degree[q]) for x in self.layers.get(d, ())])))

    def minimal_above(self, x: str, y: str) -> list:
        """The minimal ids among those strictly above both x and y, in id order."""
        up, pos = self._up, self._pos
        common = self._members(up[x] & up[y])
        higher = reduce(or_, map(up.__getitem__, common), 0)
        return [q for q in common if not higher >> pos[q] & 1]

    def first_cover(self, p: str, q: str) -> str:
        """The first of p's upper covers at or below q, for p < q."""
        up, k = self._up, self._pos[q]
        return next(x for x in self.covers_out[p] if x == q or up[x] >> k & 1)

    @cached_property
    def layers(self):
        """Internal degree -> the sorted ids of that degree."""
        out = {}
        for i in self.ids:
            out.setdefault(self.degree[i], []).append(i)
        return out

    @cached_property
    def length(self) -> int:
        """Largest n with a strict chain of n+1 vertices."""
        depth = {}
        for i in sorted(self.ids, key=self.degree.get, reverse=True):
            depth[i] = 1 + max((depth[j] for j in self.covers_out[i]), default=0)
        return max(depth.values()) - 1

    def leq(self, p: str, q: str) -> bool:
        self._check_id(p)
        self._check_id(q)
        return p == q or bool(self._up[p] >> self._pos[q] & 1)

    def _check_id(self, p: str):
        if p not in self.degree:
            raise UnknownIdError(f"no object with id {p!r}")

    @property
    def dimension(self) -> int:
        """Span of the degree function (max - min)."""
        degs = list(self.degree.values())
        return max(degs) - min(degs)


def validate_graded(objects, covers, direction: str = "increasing") -> GradedPoset:
    """Validate and normalize a graded poset.

    objects: iterable of PosetObject or (id, degree) pairs; degree may be
    None on every object to request inference (longest consistent
    labeling by breadth-first propagation, min degree 0 per component).
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"unknown direction {direction!r}")
    objs = []
    for o in objects:
        if isinstance(o, PosetObject):
            objs.append(o)
        else:
            ident, deg = o
            objs.append(PosetObject(str(ident), deg if deg is None else int(deg)))
    if not objs:
        raise EmptyPosetError("a graded poset needs at least one object")
    seen = set()
    for o in objs:
        if o.id in seen:
            raise DuplicateIdError(f"duplicate object id {o.id!r}")
        seen.add(o.id)
    # insertion-ordered, so duplicates go and the first-seen order stays
    pairs = {}
    for a, b in covers:
        a, b = str(a), str(b)
        if a not in seen:
            raise UnknownIdError(f"cover references unknown id {a!r}")
        if b not in seen:
            raise UnknownIdError(f"cover references unknown id {b!r}")
        pairs[(a, b)] = None
    pairs = list(pairs)

    degrees_given = [o.degree is not None for o in objs]
    if any(degrees_given) and not all(degrees_given):
        raise DegreeError("either all degrees or none must be given")
    if not all(degrees_given):
        _reject_cycles(seen, pairs)
        # decreasing convention: display degrees step -1 along covers,
        # which is the increasing problem on the reversed covers
        step_pairs = pairs if direction == "increasing" else [(b, a) for a, b in pairs]
        inferred = infer_degrees([o.id for o in objs], step_pairs)
        objs = [PosetObject(o.id, inferred[o.id]) for o in objs]

    sign = 1 if direction == "increasing" else -1
    internal = {o.id: sign * o.degree for o in objs}
    for a, b in pairs:
        if internal[b] - internal[a] != 1:
            raise DegreeError(
                f"cover ({a!r}, {b!r}) changes degree by "
                f"{internal[b] - internal[a]}, expected exactly 1 "
                f"({direction} convention)")
    # every cover raises the internal degree by 1, so no cycle gets here
    return GradedPoset(objs, pairs, direction)


def _reject_cycles(ids, pairs):
    out = {i: [] for i in ids}
    indeg = {i: 0 for i in ids}
    for a, b in pairs:
        out[a].append(b)
        indeg[b] += 1
    queue = [i for i in ids if indeg[i] == 0]
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for j in out[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if seen != len(indeg):
        stuck = sorted(i for i in indeg if indeg[i] > 0)
        raise CycleError(f"cover relation has a directed cycle through {stuck}")


def infer_degrees(ids, covers) -> dict:
    """Degrees from covers alone: propagate deg(b) = deg(a) + 1 over the
    undirected cover graph, then shift each component's minimum to 0.
    DegreeError when the constraints are contradictory (no grading exists).
    """
    adj = {i: [] for i in ids}
    for a, b in covers:
        adj[a].append((b, 1))
        adj[b].append((a, -1))
    deg = {}
    for root in sorted(ids):
        if root in deg:
            continue
        component = [root]
        deg[root] = 0
        queue = [root]
        while queue:
            i = queue.pop()
            for j, step in adj[i]:
                want = deg[i] + step
                if j in deg:
                    if deg[j] != want:
                        raise DegreeError(
                            f"no grading exists: {j!r} would need degrees "
                            f"{deg[j]} and {want}")
                else:
                    deg[j] = want
                    component.append(j)
                    queue.append(j)
        low = min(deg[i] for i in component)
        for i in component:
            deg[i] -= low
    return deg


def chains_up_to(P: GradedPoset, top: int, inside=None):
    """[the n-chains for n = 0..top], each a tuple of ids, each degree in
    lexicographic order, from one depth-first walk that emits every
    prefix it visits; with inside (a collection of ids), only the chains
    of that subposet."""
    out = [[] for _ in range(top + 1)]
    starts = P.ids if inside is None else sorted(inside)
    within = -1 if inside is None else sum(1 << P._pos[i] for i in inside)  # -1: every bit
    above = {i: P._members(P._up[i] & within) for i in starts}

    def extend(prefix):
        out[len(prefix) - 1].append(prefix)
        if len(prefix) <= top:
            for nxt in above[prefix[-1]]:
                extend(prefix + (nxt,))

    if top >= 0:
        for start in starts:
            extend((start,))
    return out


def chains_starting(P: GradedPoset, ids, sign) -> list:
    """For each of P.ids in order, the sum of sign**n over the n-chains of
    the subposet on ids (a collection of P's ids) that start there, 0 off
    ids, without listing a chain: S(v) = 1 + sign * the sum of S(w) over
    the w > v in ids.  Sign 1 counts chains; -1 gives Euler terms."""
    pos, up = P._pos, P._up
    out = [0] * len(P.ids)
    for v in sorted(ids, key=P.degree.get, reverse=True):
        # every w > v off ids still holds 0, so v's whole up-set is summed
        out[pos[v]] = 1 + sign * sum(compress(out, _selector(up[v])))
    return out


def chain_total(P: GradedPoset, ids) -> int:
    """The number of chains of the subposet on ids, none listed."""
    return sum(chains_starting(P, ids, 1))


def enumerate_chains(P: GradedPoset, n: int):
    """All strictly ascending chains with n+1 vertices as Chains, in
    lexicographic order of their id sequences."""
    return [Chain(c) for c in chains_up_to(P, n)[n]] if n >= 0 else []


def longest_chain_length(P: GradedPoset) -> int:
    """Largest n with a strict chain of n+1 vertices, computed once per
    poset."""
    return P.length


def opposite(P: GradedPoset) -> GradedPoset:
    """Order-reversal: covers flipped, display degrees kept, direction
    flag flipped (so internal degrees negate).  Built once and kept on P,
    it shares P's cover lists (roles swapped), bit positions and length;
    its own masks, P's down-sets, are built when read."""
    Q = vars(P).get("_opposite")
    if Q is None:
        flipped = "decreasing" if P.direction == "increasing" else "increasing"
        Q = P._opposite = GradedPoset(P.objects, [(b, a) for a, b in P.covers], flipped)
        Q.covers_out, Q.covers_into, Q._pos, Q.length = P.covers_into, P.covers_out, P._pos, P.length
    return Q
