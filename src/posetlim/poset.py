"""Finite graded posets given by objects with degrees and a cover relation.

Every cover changes degree by exactly one.  Posets declared with
direction="decreasing" (degrees fall along covers) are normalized to an
internal increasing degree; the user's degrees are kept for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CycleError,
    DegreeError,
    DuplicateIdError,
    EmptyPosetError,
    UnknownIdError,
)


@dataclass(frozen=True)
class PosetObject:
    id: str
    degree: int


@dataclass(frozen=True)
class Chain:
    """Strictly ascending chain of object ids; a chain with n+1 vertices
    has dimension n."""
    vertices: tuple

    @property
    def n(self) -> int:
        return len(self.vertices) - 1

    @property
    def first(self) -> str:
        return self.vertices[0]

    @property
    def last(self) -> str:
        return self.vertices[-1]


class GradedPoset:
    """Validated graded poset.  Use validate_graded to construct."""

    def __init__(self, objects, covers, direction):
        self.objects = list(objects)
        self.covers = [tuple(c) for c in covers]
        self.direction = direction
        self.display_degrees = {o.id: o.degree for o in self.objects}
        sign = 1 if direction == "increasing" else -1
        self.degree = {o.id: sign * o.degree for o in self.objects}
        self.ids = sorted(o.id for o in self.objects)

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
    def above_set(self):
        """id -> frozenset of the ids strictly above it (transitive closure)."""
        memo = {}

        def walk(i):
            if i in memo:
                return memo[i]
            acc = set()
            for j in self.covers_out[i]:
                acc.add(j)
                acc |= walk(j)
            memo[i] = acc
            return acc

        for i in self.ids:
            walk(i)
        return {i: frozenset(memo[i]) for i in self.ids}

    @cached_property
    def below_set(self):
        """id -> frozenset of the ids strictly below it."""
        below = {i: set() for i in self.ids}
        for i, ups in self.above_set.items():
            for j in ups:
                below[j].add(i)
        return {i: frozenset(v) for i, v in below.items()}

    @cached_property
    def strictly_above(self):
        """id -> sorted ids strictly above it."""
        return {i: sorted(v) for i, v in self.above_set.items()}

    @cached_property
    def strictly_below(self):
        return {i: sorted(v) for i, v in self.below_set.items()}

    @cached_property
    def length(self) -> int:
        """Largest n with a strict chain of n+1 vertices."""
        memo = {}

        def depth(i):
            if i not in memo:
                memo[i] = 1 + max((depth(j) for j in self.covers_out[i]), default=0)
            return memo[i]

        return max(depth(i) for i in self.ids) - 1

    def leq(self, p: str, q: str) -> bool:
        self._check_id(p)
        self._check_id(q)
        return p == q or q in self.above_set[p]

    def _check_id(self, p: str):
        if p not in self.degree:
            raise UnknownIdError(f"no object with id {p!r}")

    @property
    def dimension(self) -> int:
        """Span of the degree function (max - min)."""
        degs = list(self.degree.values())
        return max(degs) - min(degs)

    @property
    def min_internal(self) -> int:
        return min(self.degree.values())

    @property
    def max_internal(self) -> int:
        return max(self.degree.values())

    def __len__(self):
        return len(self.objects)


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
    pairs = []
    for a, b in covers:
        a, b = str(a), str(b)
        if a not in seen:
            raise UnknownIdError(f"cover references unknown id {a!r}")
        if b not in seen:
            raise UnknownIdError(f"cover references unknown id {b!r}")
        if (a, b) not in pairs:
            pairs.append((a, b))

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
    # degree-valid covers cannot close a cycle; check defensively anyway
    _reject_cycles(seen, pairs)
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
    """[the n-chains for n = 0..top], each degree in lexicographic order
    of its id sequences, from one depth-first walk that emits every
    prefix it visits; with inside (a set of ids), only the chains of
    that subposet."""
    out = [[] for _ in range(top + 1)]
    if inside is None:
        starts, above = P.ids, P.strictly_above
    else:
        starts = sorted(inside)
        above = {i: [j for j in P.strictly_above[i] if j in inside] for i in starts}

    def extend(prefix):
        out[len(prefix) - 1].append(Chain(prefix))
        if len(prefix) <= top:
            for nxt in above[prefix[-1]]:
                extend(prefix + (nxt,))

    if top >= 0:
        for start in starts:
            extend((start,))
    return out


def chain_counts(P: GradedPoset, inside=None):
    """[the number of n-chains for n = 0..], without listing a chain; with
    inside (a set of ids), of the chains of that subposet.  The n-chains
    that start at v are v followed by an (n-1)-chain that starts above
    it, so one pass from the top degree down counts them all."""
    ids = P.ids if inside is None else inside
    starting = {}
    for v in sorted(ids, key=P.degree.get, reverse=True):
        acc = [1]
        for w in P.above_set[v]:
            if w in starting:
                ws = starting[w]
                acc.extend([0] * (len(ws) + 1 - len(acc)))
                for n, c in enumerate(ws, 1):
                    acc[n] += c
        starting[v] = acc
    total = []
    for acc in starting.values():
        total.extend([0] * (len(acc) - len(total)))
        for n, c in enumerate(acc):
            total[n] += c
    return total


def enumerate_chains(P: GradedPoset, n: int):
    """All strictly ascending chains with n+1 vertices, in lexicographic
    order of their id sequences."""
    return chains_up_to(P, n)[n] if n >= 0 else []


def longest_chain_length(P: GradedPoset) -> int:
    """Largest n with a strict chain of n+1 vertices, computed once per
    poset."""
    return P.length


def opposite(P: GradedPoset) -> GradedPoset:
    """Order-reversal: covers flipped, display degrees kept, direction
    flag flipped (so internal degrees negate).  Exact involution."""
    flipped = "decreasing" if P.direction == "increasing" else "increasing"
    return GradedPoset(P.objects, [(b, a) for a, b in P.covers], flipped)


def bounds(P: GradedPoset):
    """(min display degree, max display degree, dimension)."""
    if not P.objects:
        raise EmptyPosetError("empty poset has no bounds")
    degs = [o.degree for o in P.objects]
    return min(degs), max(degs), P.dimension
