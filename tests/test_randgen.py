import pytest

from posetlim.classify import is_pseudo_projective
from posetlim.derived import is_acyclic
from posetlim.diagram import validate_functor
from posetlim.errors import FamilyMismatchError
from posetlim.poset import validate_graded
from posetlim.randgen import (
    DIAGRAM_MODES,
    MAX_MATRIX_ENTRY,
    MAX_OBJECTS,
    GenConfig,
    gen_diagram,
    gen_poset,
    is_forest,
)

from helpers import bounds, diagrams_equal, pullback_poset, pushout_poset


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_objects=0)
    with pytest.raises(ValueError, match=f"max_objects must be at most {MAX_OBJECTS}"):
        GenConfig(max_objects=MAX_OBJECTS + 1)
    assert GenConfig(max_objects=MAX_OBJECTS).max_objects == MAX_OBJECTS
    with pytest.raises(ValueError):
        GenConfig(family="grid")
    with pytest.raises(ValueError):
        gen_diagram(GenConfig(), pushout_poset(), "free_for_all")


def test_poset_determinism():
    for family in ("forest", "layered"):
        cfg = GenConfig(seed=123, family=family)
        P, Q = gen_poset(cfg), gen_poset(cfg)
        assert [(o.id, o.degree) for o in P.objects] == \
               [(o.id, o.degree) for o in Q.objects]
        assert P.covers == Q.covers
        assert P.direction == Q.direction


def test_diagram_determinism():
    cfg = GenConfig(seed=77)
    P = gen_poset(cfg)
    for mode in DIAGRAM_MODES:
        assert diagrams_equal(gen_diagram(cfg, P, mode),
                              gen_diagram(cfg, P, mode))


def test_forest_family_properties():
    for seed in range(30):
        cfg = GenConfig(seed=seed, max_objects=7, max_degree_span=2)
        P = gen_poset(cfg)
        assert is_forest(P)
        assert 1 <= len(P.objects) <= 7
        lo, hi, _ = bounds(P)
        assert hi - lo <= 2


def test_layered_family_properties():
    for seed in range(30):
        cfg = GenConfig(seed=seed, family="layered", max_objects=8)
        P = gen_poset(cfg)
        deg = P.display_degrees
        for a, b in P.covers:
            assert deg[b] == deg[a] + 1
        assert len(P.objects) <= 8


def test_single_object_budget():
    P = gen_poset(GenConfig(seed=5, max_objects=1))
    assert len(P.objects) == 1 and P.covers == []


def test_free_maps_respect_entry_bound():
    checked = 0
    for seed in range(20):
        cfg = GenConfig(seed=seed)
        P = gen_poset(cfg)
        F = gen_diagram(cfg, P, "free_maps_on_forest")
        for (a, b), h in F.cover_maps.items():
            if F.groups[a].relations.size or F.groups[b].relations.size:
                continue
            for v in h.matrix.flat:
                assert abs(int(v)) <= MAX_MATRIX_ENTRY
                checked += 1
    assert checked > 0


def test_free_maps_need_forest():
    with pytest.raises(FamilyMismatchError):
        gen_diagram(GenConfig(), pullback_poset(), "free_maps_on_forest")


def test_sums_of_standard_on_any_poset():
    for P in (pullback_poset(), pushout_poset()):
        for seed in range(5):
            F = gen_diagram(GenConfig(seed=seed), P, "sums_of_standard")
            revalidated = validate_functor(P, F.groups, F.cover_maps)
            assert diagrams_equal(F, revalidated)


def test_pseudo_projective_mode_delivers():
    """The mode's diagrams are pseudo-projective and colim-acyclic; it
    draws each once and checks nothing, so every draw must be
    pseudo-projective: both families, seeds 0-199, up to 14 objects."""
    posets = [pullback_poset()]
    for seed in range(6):
        posets.append(gen_poset(GenConfig(seed=seed)))
    for k, P in enumerate(posets):
        F = gen_diagram(GenConfig(seed=k), P, "pseudo_projective_by_construction")
        assert is_pseudo_projective(F).ok
        assert is_acyclic(F, "colim").acyclic
    for family in ("forest", "layered"):
        for seed in range(200):
            for max_objects in (3, 6, 10, 14):
                cfg = GenConfig(seed=seed, family=family, max_objects=max_objects)
                F = gen_diagram(cfg, gen_poset(cfg), "pseudo_projective_by_construction")
                assert is_pseudo_projective(F).ok, (family, seed, max_objects)

