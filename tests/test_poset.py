import itertools

import pytest

from posetlim.errors import (
    CycleError,
    DegreeError,
    DuplicateIdError,
    EmptyPosetError,
    UnknownIdError,
)
from posetlim.poset import (
    GradedPoset,
    PosetObject,
    chain_total,
    chains_up_to,
    enumerate_chains,
    infer_degrees,
    longest_chain_length,
    opposite,
    validate_graded,
)
from posetlim.randgen import GenConfig, gen_poset

from helpers import (
    SHAPES,
    below_set,
    bounds,
    chain_counts,
    per_degree_walk,
    shape,
    strictly_below,
)


def pushout_poset():
    # b <- a -> c rendered as covers upward from a
    return validate_graded(
        [("a", 0), ("b", 1), ("c", 1)], [("a", "b"), ("a", "c")])


def test_validation_rejects_bad_input():
    with pytest.raises(EmptyPosetError):
        validate_graded([], [])
    with pytest.raises(DuplicateIdError):
        validate_graded([("a", 0), ("a", 1)], [])
    with pytest.raises(UnknownIdError):
        validate_graded([("a", 0)], [("a", "zz")])
    with pytest.raises(DegreeError):
        validate_graded([("a", 0), ("b", 2)], [("a", "b")])
    with pytest.raises(DegreeError):
        # degree must change, covers between equal degrees are not graded
        validate_graded([("a", 0), ("b", 0)], [("a", "b")])
    with pytest.raises(DegreeError):
        validate_graded([("a", 0), ("b", None)], [("a", "b")])
    with pytest.raises(DegreeError):
        # with degrees given, a cycle has a cover that does not raise the
        # degree by 1, so the degree check refuses it before any cycle check
        validate_graded([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c"), ("c", "a")])


def test_duplicate_covers_are_dropped_in_first_seen_order():
    P = validate_graded([("a", 0), ("b", 1), ("c", 1), ("d", 2)],
                        [("a", "c"), ("c", "d"), ("a", "c"), ("a", "b"), ("c", "d"),
                         ("b", "d"), ("a", "b")])
    assert P.covers == [("a", "c"), ("c", "d"), ("a", "b"), ("b", "d")]


def test_direction_conventions():
    P = validate_graded([("a", 1), ("b", 0)], [("a", "b")], direction="decreasing")
    assert P.degree == {"a": -1, "b": 0}
    assert P.display_degrees == {"a": 1, "b": 0}
    with pytest.raises(DegreeError):
        validate_graded([("a", 1), ("b", 0)], [("a", "b")], direction="increasing")
    with pytest.raises(ValueError):
        validate_graded([("a", 0)], [], direction="sideways")


def test_closure_and_precedes():
    P = validate_graded(
        [("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    assert P.leq("a", "c")
    assert P.leq("a", "a")
    assert not P.leq("c", "a")
    assert sorted(P.above_set["a"]) == ["b", "c"]
    assert strictly_below(P)["c"] == ["a", "b"]
    with pytest.raises(UnknownIdError):
        P.leq("a", "zz")


def brute_chains(P, n):
    out = []
    for tup in itertools.product(P.ids, repeat=n + 1):
        if all(P.leq(tup[i], tup[i + 1]) and tup[i] != tup[i + 1]
               for i in range(n)):
            out.append(tup)
    return sorted(out)


def test_chain_enumeration_matches_brute_force():
    P = validate_graded(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 2)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e")])
    for n in range(4):
        got = [ch.vertices for ch in enumerate_chains(P, n)]
        assert got == brute_chains(P, n)
        assert got == sorted(got)  # lexicographic order of id tuples
    assert enumerate_chains(P, 5) == []
    assert enumerate_chains(P, -1) == []
    assert longest_chain_length(P) == 2


def test_one_walk_lists_every_degree_as_the_per_degree_walks_do():
    posets = [shape(name) for name in SHAPES]
    for seed in range(12):
        cfg = GenConfig(seed=900 + seed, family=("forest", "layered")[seed % 2],
                        max_objects=10)
        posets += [gen_poset(cfg), opposite(gen_poset(cfg))]
    for P in posets:
        top = longest_chain_length(P)
        walked = chains_up_to(P, top)
        assert len(walked) == top + 1 and walked[top]
        for n, chains in enumerate(walked):
            want = per_degree_walk(P, n)
            assert chains == want == sorted(want)
            assert [c.vertices for c in enumerate_chains(P, n)] == want
        assert enumerate_chains(P, top + 1) == []
    assert chains_up_to(posets[0], -1) == []


def test_chain_counts_and_sets_agree_with_the_walk():
    """chain_counts matches the listed chains per degree, on the whole
    poset and inside the open intervals; the length matches the longest
    walked chain; and the down-sets, built bottom-up from covers_into,
    have x below y exactly when y is in the up-set of x."""
    posets = [shape(name) for name in SHAPES if name != "grid5x5"]
    for seed in range(8):
        cfg = GenConfig(seed=950 + seed, family=("forest", "layered")[seed % 2],
                        max_objects=10)
        posets += [gen_poset(cfg), opposite(gen_poset(cfg))]
    for P in posets:
        walked = chains_up_to(P, P.length)
        assert chain_counts(P) == [len(c) for c in walked]
        assert P.length == longest_chain_length(P) == len(walked) - 1
        below = below_set(P)
        assert list(below) == P.ids
        for a in P.ids:
            assert {x for x in P.ids if a in below[x]} == P.above_set[a]
            for b in P.above_set[a]:
                inside = P.above_set[a] & below[b]
                got = [len(c) for c in chains_up_to(P, P.length, inside)]
                want = chain_counts(P, inside)
                assert got[:len(want)] == want and not any(got[len(want):])
    assert sum(chain_counts(shape("grid5x5"))) == 10271


def test_chain_total_is_the_summed_counts():
    """chain_total, which keeps one count per vertex, equals the summed
    per-degree counts on the test shapes and generated posets, on the
    whole poset, every up- and down-set and every open interval, and on a
    chain of 60 objects, whose 2^60 - 1 chains need big integers."""
    posets = [shape(name) for name in SHAPES]
    for seed in range(4):
        cfg = GenConfig(seed=960 + seed, family=("forest", "layered")[seed % 2],
                        max_objects=10)
        posets += [gen_poset(cfg), opposite(gen_poset(cfg))]
    for P in posets:
        assert chain_total(P, P.ids) == sum(chain_counts(P))
        below = below_set(P)
        for a in P.ids:
            for inside in (P.above_set[a], below[a],
                           *(P.above_set[a] & below[b] for b in P.above_set[a])):
                assert chain_total(P, inside) == sum(chain_counts(P, inside))
    ids = [f"x{k:02d}" for k in range(60)]
    P = validate_graded([(i, k) for k, i in enumerate(ids)], list(zip(ids, ids[1:])))
    assert chain_total(P, P.ids) == sum(chain_counts(P)) == 2 ** 60 - 1


def test_chain_properties():
    P = pushout_poset()
    chains = enumerate_chains(P, 1)
    assert [c.vertices for c in chains] == [("a", "b"), ("a", "c")]
    ch = chains[0]
    assert ch.first == "a" and ch.last == "b"


def test_weak_chains():
    P = validate_graded([("a", 0), ("b", 1)], [("a", "b")])
    got = per_degree_walk(P, 1, weak=True)
    assert got == [("a", "a"), ("a", "b"), ("b", "b")]
    # on the pushout: 3 constant tuples plus 2 degeneracies of each of
    # the 2 strict edges
    Q = pushout_poset()
    assert len(per_degree_walk(Q, 2, weak=True)) == 3 + 2 * 2


def test_opposite_is_exact_involution():
    P = validate_graded(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    Q = opposite(P)
    assert Q.direction == "decreasing"
    assert sorted(Q.covers) == sorted((b, a) for a, b in P.covers)
    assert Q.display_degrees == P.display_degrees
    assert all(Q.degree[i] == -P.degree[i] for i in P.ids)
    assert Q.leq("d", "a") and not Q.leq("a", "d")
    R = opposite(Q)
    assert R.direction == P.direction
    assert sorted(R.covers) == sorted(P.covers)
    assert R.degree == P.degree


def test_bounds_and_dimension():
    P = validate_graded(
        [("a", 3), ("b", 4), ("c", 5)], [("a", "b"), ("b", "c")])
    assert bounds(P) == (3, 5, 2)
    assert P.dimension == 2
    single = validate_graded([("x", 7)], [])
    assert bounds(single) == (7, 7, 0)


def test_degree_inference():
    # two sources joining: longest-path labeling from minima would give
    # c degree 0 and reject the (c, d) cover; propagation finds c = 1
    P = validate_graded(
        [("a", None), ("b", None), ("c", None), ("d", None)],
        [("a", "b"), ("b", "d"), ("c", "d")])
    assert P.degree == {"a": 0, "b": 1, "c": 1, "d": 2}

    # components are normalized independently to min 0
    Q = validate_graded(
        [("a", None), ("b", None), ("x", None)], [("a", "b")])
    assert Q.degree == {"a": 0, "b": 1, "x": 0}

    # decreasing convention: display degrees fall along covers, min 0
    R = validate_graded(
        [("a", None), ("b", None), ("c", None)],
        [("a", "b"), ("b", "c")], direction="decreasing")
    assert R.display_degrees == {"a": 2, "b": 1, "c": 0}
    assert R.degree == {"a": -2, "b": -1, "c": 0}

    with pytest.raises(DegreeError):
        # a < b < c plus the shortcut cover a < c cannot be graded
        infer_degrees(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(CycleError):
        validate_graded(
            [("a", None), ("b", None)], [("a", "b"), ("b", "a")])


def test_poset_object_roundtrip():
    P = validate_graded([PosetObject("a", 0), PosetObject("b", 1)],
                        [("a", "b")])
    assert len(P.objects) == 2
    assert isinstance(P, GradedPoset)
    assert P.covers_out["a"] == ["b"]
    assert P.covers_into["b"] == ["a"]
    assert P.covers_into["a"] == []
