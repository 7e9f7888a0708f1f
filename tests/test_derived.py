import random
import tracemalloc
from importlib import resources

import pytest

from posetlim import derived
from posetlim import intlinalg as la
from posetlim import cli
from posetlim.abgroup import (
    AbHom,
    compose,
    cyclic_group,
    direct_sum,
    free_group,
    group_from_invariants,
    trivial_group,
)
from posetlim.derived import (
    chain_complex,
    cochain_complex,
    colimit_direct,
    derived_functor,
    euler_characteristic,
    homology_at,
    is_acyclic,
    limit_direct,
    reduce_complex,
)
from posetlim.diagram import (
    constant_diagram,
    direct_sum_diagrams,
    representable_diagram,
    skyscraper_diagram,
    transpose_diagram,
    validate_functor,
)
from posetlim import poset
from posetlim.errors import ChainBudgetError, FamilyMismatchError, OracleViolation
from posetlim.poset import (
    chain_counts,
    enumerate_chains,
    longest_chain_length,
    opposite,
    validate_graded,
)
from posetlim.randgen import DIAGRAM_MODES, GenConfig, gen_diagram, gen_poset

from helpers import (
    SHAPES,
    boolean_lattice,
    bundled_diagrams,
    crown_tower,
    eager_reduce_complex,
    grid,
    intro_pushout,
    pullback_poset,
    pushout_poset,
    random_forest_poset,
    random_free_forest_diagram,
    random_torsion_sum_diagram,
    shape,
    times_two_pullback,
    unnormalized_complex,
    z2_square,
)


def zero_one_pushout():
    """0 <- Z -> Z with maps 0 and the identity."""
    P = pushout_poset()
    Z = free_group(1)
    T = trivial_group()
    return validate_functor(
        P, {"a": Z, "b": T, "c": Z},
        {("a", "b"): AbHom(Z, T, []), ("a", "c"): AbHom(Z, Z, [[1]])})


def test_chain_complex_of_intro_pushout():
    X = chain_complex(intro_pushout())
    assert [c.vertices for c in X.blocks[0]] == [("a",), ("b",), ("c",)]
    assert [c.vertices for c in X.blocks[1]] == [("a", "b"), ("a", "c")]
    d1 = X.d_from(1)
    assert d1.matrix == la.intmat([[-1, -1], [2, 0], [0, 2]])
    assert X.group_at(0).free_rank == 3
    assert X.group_at(2).is_trivial


def test_chain_complex_degenerate_shapes():
    single = validate_graded([("x", 0)], [])
    G = cyclic_group(6)
    F = constant_diagram(single, G)
    X = chain_complex(F)
    assert X.group_at(0).is_isomorphic_to(G)
    assert X.top == 0
    assert homology_at(X, 1).is_trivial and X.group_at(1).is_trivial

    two = validate_graded([("x", 0), ("y", 5)], [])
    F2 = constant_diagram(two, free_group(1))
    X2 = chain_complex(F2)
    assert X2.group_at(0).free_rank == 2
    assert X2.group_at(1).is_trivial


def test_cochain_complex_of_pullback():
    X = cochain_complex(times_two_pullback())
    assert [c.vertices for c in X.blocks[1]] == [("b", "a"), ("c", "a")]
    # row for (b, a) reads x_a - 2 x_b against column order (a), (b), (c)
    d0 = X.d_from(0)
    assert d0.matrix == la.intmat([[1, -2, 0], [1, 0, -2]])


def test_three_chain_differentials_by_hand():
    """a < b < c with Z everywhere, F(a -> b) = 2 and F(b -> c) = 3, so
    F(a -> c) = 6.  Degree 2 is the first where an interior face (sign -1,
    identity block) sits between the two outer ones."""
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    Z = free_group(1)
    F = validate_functor(P, {"a": Z, "b": Z, "c": Z},
                         {("a", "b"): AbHom(Z, Z, [[2]]), ("b", "c"): AbHom(Z, Z, [[3]])})
    X, Y = chain_complex(F), cochain_complex(F)
    for C in (X, Y):
        assert [c.vertices for c in C.blocks[1]] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert [c.vertices for c in C.blocks[2]] == [("a", "b", "c")]
    # d(a<b<c) = 2 (b<c) - (a<c) + (a<b), the first face moving F(a) by 2
    assert X.d_from(2).matrix == la.intmat([[1], [-1], [2]])
    assert X.d_from(1).matrix == la.intmat([[-1, -1, 0], [2, 0, -1], [0, 6, 3]])
    # (dx)(a<b<c) = x(b<c) - x(a<c) + 3 x(a<b), the last face moving F(b) by 3
    assert Y.d_from(1).matrix == la.intmat([[3, -1, 1]])
    assert Y.d_from(0).matrix == la.intmat([[-2, 1, 0], [-6, 0, 1], [0, -3, 1]])
    # a cone both ways: colim = F(c), lim = F(a), nothing higher
    for C in (X, Y):
        assert homology_at(C, 0).is_isomorphic_to(Z)
        assert all(homology_at(C, n).is_trivial for n in (1, 2, 3))
    assert_reduction_agrees(F)


def test_cochain_of_skyscraper_at_maximal():
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)],
                        [("a", "b"), ("b", "c")])
    F = skyscraper_diagram(P, "c", cyclic_group(4))
    X = cochain_complex(F)
    # only blocks whose chain ends at c carry anything
    for n in range(X.top + 1):
        for j, ch in enumerate(X.blocks[n]):
            rank = F.groups[ch.last].ambient_rank
            assert rank == (1 if ch.last == "c" else 0)


def test_homology_of_intro_pushout():
    F = intro_pushout()
    H0 = derived_functor(F, "colim", 0)
    assert H0.free_rank == 1 and H0.invariant_factors == (2,)
    assert derived_functor(F, "colim", 1).is_trivial
    assert derived_functor(F, "colim", 5).is_trivial
    direct = colimit_direct(F)
    assert H0.is_isomorphic_to(direct)


def test_homology_of_zero_diagram():
    P = pushout_poset()
    F = constant_diagram(P, trivial_group())
    for n in range(3):
        assert derived_functor(F, "colim", n).is_trivial
        assert derived_functor(F, "lim", n).is_trivial


def test_zero_one_pushout_is_acyclic_with_trivial_colimit():
    F = zero_one_pushout()
    # the pushout of 0 <- Z -> Z collapses completely: the left leg kills
    # the generator that the right leg identifies with F(c)
    assert derived_functor(F, "colim", 0).is_trivial
    assert derived_functor(F, "colim", 1).is_trivial
    assert colimit_direct(F).is_trivial
    assert is_acyclic(F, "colim")


def test_limits_of_pullback():
    F = times_two_pullback()
    lim0 = derived_functor(F, "lim", 0)
    assert lim0.free_rank == 1 and not lim0.invariant_factors
    lim1 = derived_functor(F, "lim", 1)
    assert lim1.free_rank == 0 and lim1.invariant_factors == (2,)
    assert limit_direct(F).is_isomorphic_to(lim0)
    verdict = is_acyclic(F, "lim")
    assert not verdict
    assert verdict.degree == 1
    assert verdict.group.is_isomorphic_to(cyclic_group(2))


def test_representable_is_colim_acyclic():
    P = pushout_poset()
    R = representable_diagram(P, "a")
    assert derived_functor(R, "colim", 0).is_isomorphic_to(free_group(1))
    assert derived_functor(R, "colim", 1).is_trivial
    assert is_acyclic(R, "colim")


def test_constant_on_chain_is_lim_acyclic():
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)],
                        [("a", "b"), ("b", "c")])
    F = constant_diagram(P, cyclic_group(5))
    assert is_acyclic(F, "lim")
    assert derived_functor(F, "lim", 0).is_isomorphic_to(cyclic_group(5))
    assert colimit_direct(F).is_isomorphic_to(cyclic_group(5))


def test_direction_argument_validation():
    F = intro_pushout()
    with pytest.raises(ValueError):
        derived_functor(F, "colim", -1)
    with pytest.raises(ValueError):
        derived_functor(F, "sideways", 0)


def test_degree_zero_oracles_on_random_diagrams():
    rng = random.Random(23)
    P = validate_graded(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    for _ in range(10):
        F = random_torsion_sum_diagram(rng, P)
        assert derived_functor(F, "colim", 0).is_isomorphic_to(colimit_direct(F))
        assert derived_functor(F, "lim", 0).is_isomorphic_to(limit_direct(F))
    for _ in range(10):
        Q = random_forest_poset(rng)
        F = random_free_forest_diagram(rng, Q)
        assert derived_functor(F, "colim", 0).is_isomorphic_to(colimit_direct(F))
        assert derived_functor(F, "lim", 0).is_isomorphic_to(limit_direct(F))


def test_unnormalized_complex_gives_same_homology():
    rng = random.Random(7)
    P = pushout_poset()
    cases = [intro_pushout(), times_two_pullback(),
             random_torsion_sum_diagram(rng, P),
             random_free_forest_diagram(rng, random_forest_poset(rng, 5))]
    for F in cases:
        for n in range(2):
            norm_h = homology_at(chain_complex(F), n)
            raw = unnormalized_complex(F, "chain", n + 1)
            assert homology_at(raw, n).is_isomorphic_to(norm_h)
            norm_c = homology_at(cochain_complex(F), n)
            raw_c = unnormalized_complex(F, "cochain", n + 1)
            assert homology_at(raw_c, n).is_isomorphic_to(norm_c)


def test_transpose_duality_via_universal_coefficients():
    # over the opposite poset, the transposed matrices compute the
    # Z-dual complex, so lim^i picks up the free part of colim_i and the
    # torsion of colim_{i-1}
    rng = random.Random(71)
    cases = [intro_pushout()]
    for _ in range(8):
        Q = random_forest_poset(rng, 6)
        cases.append(random_free_forest_diagram(rng, Q))
    for F in cases:
        G = transpose_diagram(F)
        top = max(1, F.poset.dimension + 1)
        for i in range(top + 1):
            lim_i = derived_functor(G, "lim", i)
            colim_i = derived_functor(F, "colim", i)
            colim_prev = derived_functor(F, "colim", i - 1) if i else trivial_group()
            assert lim_i.free_rank == colim_i.free_rank
            assert lim_i.invariant_factors == colim_prev.invariant_factors


def chain_poset(n):
    ids = [f"x{k}" for k in range(n)]
    return validate_graded([(i, k) for k, i in enumerate(ids)], list(zip(ids, ids[1:])))


def dd_pairs(X):
    """(outer, inner) differentials whose composite is d o d."""
    if X.orientation == "homological":
        return [(X.d_from(n - 1), X.d_from(n)) for n in range(2, X.top + 1)]
    return [(X.d_from(n + 1), X.d_from(n)) for n in range(X.top - 1)]


@pytest.mark.parametrize("build, flip", [(chain_complex, 2), (cochain_complex, 1)])
def test_dd_check_catches_one_flipped_entry(monkeypatch, build, flip):
    assemble = derived._assemble

    def flipped(sums, n_src, n_tgt, entries):
        h = assemble(sums, n_src, n_tgt, entries)
        if n_src != flip:
            return h
        rows = h.matrix.tolist()
        i, j = next((i, j) for j in range(h.matrix.shape[1])
                    for i in range(h.matrix.shape[0]) if rows[i][j])
        rows[i][j] = -rows[i][j]
        return AbHom(h.source, h.target, la.intmat(rows), check=False)

    F = constant_diagram(chain_poset(4), free_group(1))
    build(F)
    monkeypatch.setattr(derived, "_assemble", flipped)
    with pytest.raises(OracleViolation):
        build(F)


def test_sparse_dd_check_agrees_with_dense_composite():
    rng = random.Random(2026)
    seen = {True: 0, False: 0}
    for seed in range(30):
        family = ("forest", "layered")[seed % 2]
        mode = "free_maps_on_forest" if family == "forest" else "sums_of_standard"
        cfg = GenConfig(seed=seed, max_objects=7, family=family)
        F = gen_diagram(cfg, gen_poset(cfg), mode)
        for X in (chain_complex(F), cochain_complex(F)):
            for outer, inner in dd_pairs(X):
                assert derived._composite_is_zero(outer, inner)
                assert compose(outer, inner).is_zero()
                # perturb one entry of either factor, or add a multiple
                # of a target relation to a column of outer (which keeps
                # d o d zero in the group), and compare verdicts
                rels = outer.target.relations
                for _ in range(6):
                    h = rng.choice([outer, inner])
                    if 0 in h.matrix.shape:
                        continue
                    rows = h.matrix.tolist()
                    j = rng.randrange(h.matrix.shape[1])
                    if h is outer and rels.shape[1] and rng.random() < 0.5:
                        c = rng.choice([-1, 1, 3])
                        rel = rels[:, rng.randrange(rels.shape[1])]
                        for i, row in enumerate(rows):
                            row[j] += c * rel[i]
                    else:
                        i = rng.randrange(h.matrix.shape[0])
                        rows[i][j] += rng.choice([-2, -1, 1, 2, 4, 6])
                    bad = AbHom(h.source, h.target, la.intmat(rows), check=False)
                    pair = (bad, inner) if h is outer else (outer, bad)
                    want = compose(*pair).is_zero()
                    assert derived._composite_is_zero(*pair) == want
                    seen[want] += 1
    assert seen[True] and seen[False]


def test_dd_check_works_modulo_relations():
    """Over Z/2 the two paths around the square differ by 2, so d o d is
    a nonzero integer matrix that vanishes in the target group."""
    F = z2_square()
    X = chain_complex(F)
    outer, inner = X.d_from(1), X.d_from(2)
    composite = compose(outer, inner)
    assert any(composite.matrix[i, j] for i in range(composite.matrix.shape[0])
               for j in range(composite.matrix.shape[1]))
    assert composite.is_zero()
    assert derived._composite_is_zero(outer, inner)
    assert derived_functor(F, "colim", 0).is_isomorphic_to(colimit_direct(F))


# ------------------------------------------------- Morse-reduced complexes

KINDS = (("chain", chain_complex), ("cochain", cochain_complex))


@pytest.mark.parametrize("build, bound_mb", [
    (lambda: chain_complex(constant_diagram(grid(4, 4), group_from_invariants(1, [2]))), 4),
    (lambda: direct_sum([free_group(1)] * 2000), 1),
], ids=["grid4x4_nerve", "sum_of_2000_Z"])
def test_direct_sums_stay_linear_in_memory(build, bound_mb):
    """A direct sum is a block layout with no per-summand homs, so a nerve
    degree of k chains costs O(k), not O(k^2).  Measured peaks: 1.7 MB
    and 0.1 MB; an eager projection per summand would take 34 MB and 276 MB."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def octahedron():
    """a0, a1 < b0, b1 < c0, c1, every level below every next one: the
    nerve is a 2-sphere, so no element pairs off everything."""
    levels = [("a0", "a1"), ("b0", "b1"), ("c0", "c1")]
    return validate_graded(
        [(i, d) for d, lv in enumerate(levels) for i in lv],
        [(x, y) for lo, hi in zip(levels, levels[1:]) for x in lo for y in hi])


def assert_reduction_agrees(F):
    for kind, build in KINDS:
        X = build(F)
        for matching in derived.MATCHINGS:
            R = reduce_complex(F, kind, matching)
            assert R.orientation == X.orientation and R.top == X.top
            for n in range(X.top + 2):
                assert homology_at(R, n).is_isomorphic_to(homology_at(X, n)), (kind, matching, n)


def seeded_randgen_diagrams():
    """Every family x mode that randgen accepts, on the generated poset and
    its opposite, with the transpose whenever the values are free."""
    for seed in range(20):
        for family in ("forest", "layered"):
            cfg = GenConfig(seed=300 + seed, family=family, max_objects=12,
                            max_degree_span=4)
            for Q in (gen_poset(cfg), opposite(gen_poset(cfg))):
                for mode in DIAGRAM_MODES:
                    try:
                        F = gen_diagram(cfg, Q, mode)
                    except FamilyMismatchError:
                        continue
                    yield (family, mode), F
                    if all(F.groups[i].relations.shape[1] == 0 for i in Q.ids):
                        yield (family, mode, "transpose"), transpose_diagram(F)


def test_reduced_matches_unreduced_on_seeded_diagrams():
    seen = set()
    for key, F in seeded_randgen_diagrams():
        assert_reduction_agrees(F)
        seen.add(key)
    assert {k[:2] for k in seen} == {(f, m) for f in ("forest", "layered")
                                     for m in DIAGRAM_MODES}
    assert any(len(k) == 3 for k in seen)


def test_reduced_matches_unreduced_on_bundled_documents():
    for _, F in bundled_diagrams():
        assert_reduction_agrees(F)


@pytest.mark.parametrize("build, args", [(boolean_lattice, (3,)), (boolean_lattice, (4,)),
                                         (grid, (3, 3))], ids=["bool3", "bool4", "grid3x3"])
def test_reduced_matches_unreduced_on_constant_diagrams(build, args):
    P = build(*args)
    for G in (free_group(1), cyclic_group(2), group_from_invariants(1, [2])):
        assert_reduction_agrees(constant_diagram(P, G))


def test_reduced_matches_unreduced_modulo_relations():
    assert_reduction_agrees(z2_square())
    assert_reduction_agrees(constant_diagram(octahedron(), group_from_invariants(1, [2])))


def test_reduced_matches_unreduced_off_cones():
    """Shapes with neither a greatest nor a least element keep critical
    chains in several degrees, so the zig-zag sums carry the answer."""
    crown = validate_graded([("a", 0), ("b", 0), ("c", 1), ("d", 1)],
                            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    bool3 = boolean_lattice(3)
    proper = validate_graded(
        [(i, bool3.degree[i]) for i in bool3.ids if i not in ("s", "s012")],
        [(a, b) for a, b in bool3.covers if "s" not in (a, b) and "s012" not in (a, b)])
    for k, Q in enumerate((crown, octahedron(), proper)):
        for seed in range(4):
            cfg = GenConfig(seed=700 + 10 * k + seed)
            for mode in ("sums_of_standard", "pseudo_projective_by_construction"):
                assert_reduction_agrees(gen_diagram(cfg, Q, mode))
                assert_reduction_agrees(gen_diagram(cfg, opposite(Q), mode))


@pytest.mark.parametrize("name, ends", [("bool2", 9), ("grid2x3", 15), ("bool3", 27),
                                        ("grid3x3", 25), ("bool4", 81), ("grid4x4", 49)])
def test_critical_chain_counts(name, ends):
    """The carrier matching leaves one chain on a cone.  The two-ended one
    leaves one chain per interval [a, b] that is a boolean lattice, a = b
    included: its open interval is empty or a sphere.  Every other
    interval of these shapes has a contractible open interval, and the
    matching pairs off all of its chains."""
    F = constant_diagram(shape(name), group_from_invariants(1, [2]))
    chains = sum(len(b) for b in chain_complex(F).blocks.values())
    for kind in ("chain", "cochain"):
        for matching, want in (("carrier", 1), ("ends", ends)):
            R = reduce_complex(F, kind, matching)
            assert sum(len(R.blocks[n]) for n in range(R.top + 1)) == want, (kind, matching)
            assert len(R.matching) + want == chains
    with pytest.raises(ValueError):
        reduce_complex(F, "chain", "middle")


def test_matched_pairs_keep_their_fixed_ends():
    for name in ("bool3", "grid3x3"):
        F = constant_diagram(shape(name), free_group(1))
        for kind, kept in (("chain", (0,)), ("cochain", (-1,))):
            for matching, ends in (("carrier", kept), ("ends", (0, -1))):
                pairs = reduce_complex(F, kind, matching).matching
                assert pairs
                for lo, hi in pairs.items():
                    assert pairs[hi] == lo and abs(len(lo) - len(hi)) == 1
                    assert all(lo[i] == hi[i] for i in ends)


@pytest.mark.parametrize("kind, flip", [("chain", 2), ("cochain", 0)])
def test_reduced_dd_check_catches_one_flipped_entry(monkeypatch, kind, flip):
    F = constant_diagram(octahedron(), free_group(1))
    R = reduce_complex(F, kind)
    assert all(len(R.blocks[n]) == 2 for n in range(3))
    assemble = derived._assemble

    def flipped(sums, n_src, n_tgt, entries):
        h = assemble(sums, n_src, n_tgt, entries)
        if n_src != flip:
            return h
        rows = h.matrix.tolist()
        i, j = next((i, j) for j in range(h.matrix.shape[1])
                    for i in range(h.matrix.shape[0]) if rows[i][j])
        rows[i][j] = -rows[i][j]
        return AbHom(h.source, h.target, la.intmat(rows), check=False)

    monkeypatch.setattr(derived, "_assemble", flipped)
    with pytest.raises(OracleViolation):
        reduce_complex(F, kind)


def test_cyclic_matching_is_refused():
    """Inside the carrier v the matching runs around the 4-cycle
    a-c-b-d of P_{>v}; the critical chain (u, v, a) leads into it."""
    P = validate_graded(
        [("u", 0), ("v", 1), ("a", 2), ("b", 2), ("c", 3), ("d", 3)],
        [("u", "v"), ("v", "a"), ("v", "b"),
         ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    F = constant_diagram(P, free_group(1))
    cells = [c.vertices for n in range(4) for c in enumerate_chains(P, n)]
    cycle = [(("v", "a"), ("v", "a", "c")), (("v", "c"), ("v", "b", "c")),
             (("v", "b"), ("v", "b", "d")), (("v", "d"), ("v", "a", "d"))]
    partner = {}
    for lo, hi in cycle:
        partner[lo], partner[hi] = hi, lo
    critical = [c for c in cells if c not in partner]
    with pytest.raises(OracleViolation, match="not acyclic"):
        derived._morse_complex(F, "chain", critical, 3, partner.get)
    # the matching reduce_complex builds on the same poset is acyclic
    assert_reduction_agrees(F)


# ------------------------------------------------ the lazy matching

def assert_matches_eager(F):
    """reduce_complex has the critical chains, the pairs and, entry for
    entry, the differentials of the matching run over the whole chain
    list, for both kinds and both matchings."""
    for kind in ("chain", "cochain"):
        for matching in derived.MATCHINGS:
            R, E = reduce_complex(F, kind, matching), eager_reduce_complex(F, kind, matching)
            assert R.top == E.top and R.blocks == E.blocks, (kind, matching)
            assert R.matching == E.matching, (kind, matching)
            assert R._diffs.keys() == E._diffs.keys()
            for n, d in E._diffs.items():
                assert R._diffs[n].matrix == d.matrix, (kind, matching, n)


def test_lazy_matching_matches_eager_on_seeded_diagrams():
    for _, F in seeded_randgen_diagrams():
        assert_matches_eager(F)


def test_lazy_matching_matches_eager_on_forests_and_towers():
    rng = random.Random(41)
    for _ in range(25):
        assert_matches_eager(random_free_forest_diagram(rng, random_forest_poset(rng)))
    for levels in (3, 4):
        P = crown_tower(levels)
        assert_matches_eager(constant_diagram(P, group_from_invariants(1, [2])))
        for _ in range(3):
            assert_matches_eager(random_torsion_sum_diagram(rng, P))
            assert_matches_eager(random_torsion_sum_diagram(rng, opposite(P)))


@pytest.mark.parametrize("name", list(SHAPES))
def test_lazy_matching_matches_eager_on_shapes(name):
    P = shape(name)
    assert_matches_eager(constant_diagram(P, group_from_invariants(1, [2])))
    if len(P) <= 16:
        assert_matches_eager(random_torsion_sum_diagram(random.Random(len(P)), P))


def test_cones_list_no_chain(monkeypatch):
    """Every carrier group of a grid has a cone point, so derived_functor
    on grid8x8 lists no chain, and it answers under a budget of one
    chain: the critical one."""
    walks = []

    def counted(*a, **k):
        walks.append(a)
        return poset.chains_up_to(*a, **k)
    monkeypatch.setattr(derived, "chains_up_to", counted)
    G = group_from_invariants(1, [2])
    for P in (grid(8, 8), grid(6, 6), boolean_lattice(6)):
        F = constant_diagram(P, G)
        with derived.chain_budget(1):
            for direction in ("colim", "lim"):
                table = [derived_functor(F, direction, i) for i in range(P.length + 1)]
                assert table[0].is_isomorphic_to(G)
                assert all(H.is_trivial for H in table[1:])
    assert walks == []
    # the count sees the walks of groups without a cone point
    reduce_complex(constant_diagram(crown_tower(3), G), "chain")
    assert walks


def test_chain_budget_refuses_before_listing():
    """Each builder that lists chains counts them first: the nerve, the
    groups of the matching without a cone point, and the matching when
    it is read."""
    F = constant_diagram(crown_tower(4), free_group(1))
    total = sum(chain_counts(F.poset))
    assert total == 3 ** 4 - 1
    with derived.chain_budget(total - 1):
        with pytest.raises(ChainBudgetError, match=f"nerve would list at least {total} chains"):
            chain_complex(F)
    with derived.chain_budget(total):
        assert sum(len(b) for b in chain_complex(F).blocks.values()) == total
    with derived.chain_budget(20):
        with pytest.raises(ChainBudgetError, match="Morse matching would list at least"):
            reduce_complex(F, "chain")
    G = constant_diagram(grid(3, 3), free_group(1))
    with derived.chain_budget(1):
        R = reduce_complex(G, "cochain")
        with pytest.raises(ChainBudgetError, match="listing the Morse matching"):
            R.matching
    assert len(R.matching) == sum(chain_counts(G.poset)) - 1


def test_cone_reduces_to_one_critical_cell():
    F = intro_pushout()            # a is the least element
    R = reduce_complex(F, "cochain")
    assert [c.vertices for n in range(R.top + 1) for c in R.blocks[n]] == [("a",)]
    assert R.group_at(0).same_presentation(F.groups["a"])
    G = times_two_pullback()        # a is the greatest element
    R = reduce_complex(G, "chain")
    assert [c.vertices for n in range(R.top + 1) for c in R.blocks[n]] == [("a",)]
    assert R.group_at(0).same_presentation(G.groups["a"])
    P = grid(3, 3)
    H = direct_sum_diagrams([skyscraper_diagram(P, "g2_2", cyclic_group(4)),
                             skyscraper_diagram(P, "g0_0", cyclic_group(3)),
                             constant_diagram(P, free_group(1))])
    for kind, end in (("chain", "g2_2"), ("cochain", "g0_0")):
        R = reduce_complex(H, kind)
        assert [c.vertices for n in range(R.top + 1) for c in R.blocks[n]] == [(end,)]
        assert R.group_at(0).same_presentation(H.groups[end])


@pytest.mark.parametrize("shape", ["bool5", "grid5x5"])
def test_large_cones_give_the_cone_answer(shape):
    P = boolean_lattice(5) if shape == "bool5" else grid(5, 5)
    G = group_from_invariants(1, [2])
    F = constant_diagram(P, G)
    for direction, direct in (("colim", colimit_direct), ("lim", limit_direct)):
        table = [derived_functor(F, direction, i)
                 for i in range(longest_chain_length(P) + 1)]
        assert table[0].is_isomorphic_to(G)
        assert table[0].is_isomorphic_to(direct(F))
        assert all(H.is_trivial for H in table[1:])


def test_euler_characteristic_counts_the_chains():
    for seed in range(12):
        cfg = GenConfig(seed=500 + seed, family=("forest", "layered")[seed % 2],
                        max_objects=9)
        for Q in (gen_poset(cfg), opposite(gen_poset(cfg))):
            F = gen_diagram(cfg, Q, "sums_of_standard")
            for direction, key in (("colim", "first"), ("lim", "last")):
                want = sum((-1) ** n * F.groups[getattr(c, key)].free_rank
                           for n in range(longest_chain_length(Q) + 1)
                           for c in enumerate_chains(Q, n))
                assert euler_characteristic(F, direction) == want
    with pytest.raises(ValueError):
        euler_characteristic(intro_pushout(), "sideways")


def test_euler_mismatch_is_an_oracle_violation(monkeypatch, tmp_path, capsys):
    F = zero_one_pushout()
    assert is_acyclic(F, "colim")
    path = tmp_path / "intro.json"
    path.write_text(resources.files("posetlim").joinpath("data/intro_pushout.json").read_text())
    assert cli.main(["colim", str(path)]) == 0
    real = derived.euler_characteristic
    monkeypatch.setattr(derived, "euler_characteristic", lambda F, d: real(F, d) + 1)
    with pytest.raises(OracleViolation):
        is_acyclic(zero_one_pushout(), "colim")
    assert cli.main(["colim", str(path)]) == 2
    # a truncated table is not a full one, so it is not checked
    assert cli.main(["colim", "--max-degree", "0", str(path)]) == 0
    capsys.readouterr()
