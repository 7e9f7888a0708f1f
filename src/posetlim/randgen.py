"""Seeded random posets and diagrams for the property-test suite.

All sampling runs on a private random.Random stream derived from the
config seed and an operation tag, so identical configs reproduce
identical instances regardless of call order or global PRNG state.

Free random matrices are only sound on forests (single parents mean
unique paths, so functoriality imposes no equations); on arbitrary
posets only by-construction functorial families are generated.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import intlinalg as la
from .abgroup import AbHom, FgAbGroup, free_group, group_from_invariants, zero_hom
from .diagram import (
    Diagram,
    constant_diagram,
    direct_sum_diagrams,
    representable_diagram,
    skyscraper_diagram,
    validate_functor,
)
from .errors import FamilyMismatchError
from .poset import GradedPoset, validate_graded

POSET_FAMILIES = ("forest", "layered")
DIAGRAM_MODES = ("free_maps_on_forest", "sums_of_standard",
                 "pseudo_projective_by_construction")
# free rank and torsion factors of random groups, entries of random maps
MAX_GROUP_RANK = 2
MAX_TORSION_FACTOR = 6
MAX_MATRIX_ENTRY = 3
# the most objects a generated poset may have: the slowest layered draw
# takes 0.6 s at 120 objects (seeds 0-149), 1.3 s at 140 (one Xeon core)
MAX_OBJECTS = 120


class GenConfig(namedtuple("GenConfig", "seed max_objects max_degree_span family",
                           defaults=(0, 6, 3, "forest"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_objects < 1:
            raise ValueError("max_objects must be at least 1")
        if self.max_objects > MAX_OBJECTS:
            raise ValueError(f"max_objects must be at most {MAX_OBJECTS}")
        if self.max_degree_span < 0:
            raise ValueError("max_degree_span must be at least 0")
        if self.family not in POSET_FAMILIES:
            raise ValueError(f"unknown poset family {self.family!r}")
        return self

    def stream(self, tag: str) -> random.Random:
        """Independent deterministic stream per (seed, operation)."""
        return random.Random(f"{self.seed}:{tag}")


def is_forest(P: GradedPoset) -> bool:
    """No object has two parents, so paths between comparables are unique."""
    return all(len(v) <= 1 for v in P.covers_into.values())


def gen_poset(cfg: GenConfig) -> GradedPoset:
    rng = cfg.stream("poset")
    if cfg.family == "forest":
        return _forest_poset(rng, cfg)
    return _layered_poset(rng, cfg)


def _forest_poset(rng, cfg):
    n = rng.randrange(1, cfg.max_objects + 1)
    objects = [("v0", 0)]
    degrees = {"v0": 0}
    covers = []
    for k in range(1, n):
        ident = f"v{k}"
        # parents are capped by the degree budget; roots keep degree 0
        eligible = sorted(i for i, d in degrees.items()
                          if d < cfg.max_degree_span)
        if not eligible or rng.random() < 0.25:
            degrees[ident] = 0
        else:
            parent = rng.choice(eligible)
            degrees[ident] = degrees[parent] + 1
            covers.append((parent, ident))
        objects.append((ident, degrees[ident]))
    return validate_graded(objects, covers)


def _layered_poset(rng, cfg):
    n = rng.randrange(1, cfg.max_objects + 1)
    layers = min(rng.randrange(1, cfg.max_degree_span + 2), n)
    sizes = [1] * layers
    for _ in range(n - layers):
        sizes[rng.randrange(layers)] += 1
    objects = []
    by_layer = []
    k = 0
    for d, size in enumerate(sizes):
        row = []
        for _ in range(size):
            ident = f"v{k}"
            objects.append((ident, d))
            row.append(ident)
            k += 1
        by_layer.append(row)
    covers = []
    for d in range(layers - 1):
        for u in by_layer[d]:
            for w in by_layer[d + 1]:
                if rng.random() < 0.5:
                    covers.append((u, w))
    return validate_graded(objects, covers)


def _random_group(rng) -> FgAbGroup:
    """Random presentation: some free coordinates, then diagonal
    torsion coordinates."""
    rank = rng.randrange(0, MAX_GROUP_RANK + 1)
    torsion = [rng.randrange(2, MAX_TORSION_FACTOR + 1)
               for _ in range(rng.randrange(0, 3))]
    return group_from_invariants(rank, torsion)


def _coordinate_orders(G: FgAbGroup):
    """Per-ambient-coordinate orders for the diagonal presentations
    produced here (0 marks a free coordinate)."""
    orders = [0] * G.ambient_rank
    for col in G.relations.cols:
        if len(col) == 1:
            (i, v), = col.items()
            orders[i] = abs(v)
    return orders


def _random_hom(rng, A: FgAbGroup, B: FgAbGroup) -> AbHom:
    """Random well-defined hom: each entry is a random multiple of the
    smallest coefficient sending the source generator's order into the
    target relation."""
    src = _coordinate_orders(A)
    tgt = _coordinate_orders(B)
    rows = [[0] * len(src) for _ in tgt]
    for j, m in enumerate(src):
        for i, k in enumerate(tgt):
            c = rng.randrange(-MAX_MATRIX_ENTRY, MAX_MATRIX_ENTRY + 1)
            if m == 0:
                rows[i][j] = c
            elif k != 0:
                rows[i][j] = (k // math.gcd(m, k)) * c
    return AbHom(A, B, la.intmat(rows, (B.ambient_rank, A.ambient_rank)))


def gen_diagram(cfg: GenConfig, P: GradedPoset, mode: str) -> Diagram:
    if mode not in DIAGRAM_MODES:
        raise ValueError(f"unknown diagram mode {mode!r}")
    rng = cfg.stream(f"diagram:{mode}")
    if mode == "free_maps_on_forest":
        if not is_forest(P):
            raise FamilyMismatchError(
                "free random maps need a forest poset; paths are not unique here")
        groups = {i: _random_group(rng) for i in P.ids}
        maps = {(a, b): _random_hom(rng, groups[a], groups[b])
                for a, b in P.covers}
        return validate_functor(P, groups, maps)
    if mode == "sums_of_standard":
        parts = [_standard_part(rng, P)
                 for _ in range(rng.randrange(1, 5))]
        return direct_sum_diagrams(parts)
    return _pseudo_projective_diagram(rng, P)


def _standard_part(rng, P):
    kind = rng.choice(["representable", "skyscraper", "constant"])
    at = rng.choice(P.ids)
    if kind == "representable":
        return representable_diagram(P, at)
    if kind == "skyscraper":
        return skyscraper_diagram(P, at, _random_group(rng))
    return constant_diagram(P, _random_group(rng))


def _scaled_representable(rng, P):
    """Representable shape with each cover map replaced by a random
    positive multiplication; on a forest any choice is functorial, and
    every one-step assembly map stays injective."""
    at = rng.choice(P.ids)
    groups = {i: free_group(1) if P.leq(at, i) else free_group(0)
              for i in P.ids}
    maps = {}
    for a, b in P.covers:
        if P.leq(at, a):
            m = rng.randrange(1, MAX_MATRIX_ENTRY + 1)
            maps[(a, b)] = AbHom(groups[a], groups[b], la.intmat([[m]]))
        else:
            maps[(a, b)] = zero_hom(groups[a], groups[b])
    return validate_functor(P, groups, maps)


def _pseudo_projective_diagram(rng, P):
    """One to three representables summed, scaled on a forest, drawn once:
    every draw is pseudo-projective.  A forest object has at most one
    ancestor d degrees down and scaled arrows are injective, so the kernel
    in every pseudo condition is 0; off forests the sum is projective."""
    forest = is_forest(P)
    return direct_sum_diagrams(
        [_scaled_representable(rng, P) if forest else representable_diagram(P, rng.choice(P.ids))
         for _ in range(rng.randrange(1, 4))])
