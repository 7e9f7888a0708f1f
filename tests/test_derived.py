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
    homology,
    subquotient,
    trivial_group,
)
from posetlim.derived import (
    check_euler_characteristic,
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
from posetlim.jsonio import parse_diagram
from posetlim.poset import (
    enumerate_chains,
    longest_chain_length,
    opposite,
    validate_graded,
)
from posetlim.randgen import DIAGRAM_MODES, POSET_FAMILIES, GenConfig, gen_diagram, gen_poset

from helpers import (
    POSET_STATE,
    SHAPES,
    OrientedMatching,
    boolean_lattice,
    bundled_diagrams,
    chain_complex,
    chain_counts,
    cochain_complex,
    crown_tower,
    eager_reduce_complex,
    element_matching,
    grid,
    intro_pushout,
    kept_poset_state,
    listed_matching,
    nerve_complex,
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
from record_golden import deep_chain_document


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
    assert X.blocks[0] == [("a",), ("b",), ("c",)]
    assert X.blocks[1] == [("a", "b"), ("a", "c")]
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
    assert X.blocks[1] == [("b", "a"), ("c", "a")]
    # row for (b, a) reads x_a - 2 x_b against column order (a), (b), (c)
    d0 = X.d_from(0)
    assert d0.matrix == la.intmat([[1, -2, 0], [1, 0, -2]])


def test_blocks_hold_plain_id_tuples():
    """In every complex, unreduced or reduced on either matching, a block's
    chain is its tuple of ids, of length degree + 1."""
    F = constant_diagram(grid(3, 3), group_from_invariants(1, [2]))
    for kind in ("chain", "cochain"):
        for X in (nerve_complex(F, kind), reduce_complex(F, kind),
                  reduce_complex(F, kind, "ends")):
            cells = [(n, c) for n in range(X.top + 1) for c in X.blocks[n]]
            assert cells
            for n, c in cells:
                assert type(c) is tuple and len(c) == n + 1
                assert all(type(v) is str for v in c)


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
        assert C.blocks[1] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert C.blocks[2] == [("a", "b", "c")]
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
            rank = F.groups[ch[-1]].ambient_rank
            assert rank == (1 if ch[-1] == "c" else 0)


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


def dense_dd_is_zero(outer, inner):
    """outer o inner vanishes in outer's target: every column of the
    matrix product lies in a fresh span of the target's relations."""
    return la.SpanChecker(outer.target.relations).contains_all(outer.matrix @ inner.matrix)


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
                assert dense_dd_is_zero(outer, inner)
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
                    want = dense_dd_is_zero(*pair)
                    assert compose(*pair).is_zero() == want
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
    assert dense_dd_is_zero(outer, inner)
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


def test_zero_differentials_give_the_middle_group():
    """Where neither differential has a nonzero entry, abgroup.homology
    returns the middle group itself, with the invariant factors of the
    lattice route (cycles as a preimage, modulo the boundaries and the
    relations): every such degree of the unreduced and both reduced
    complexes of the constant and the seeded randgen diagrams above."""
    constant = [constant_diagram(P, G)
                for P in (boolean_lattice(3), boolean_lattice(4), grid(3, 3))
                for G in (free_group(1), cyclic_group(2), group_from_invariants(1, [2]))]
    compared = 0
    for F in constant + [F for _, F in seeded_randgen_diagrams()]:
        for kind, build in KINDS:
            for X in [build(F)] + [reduce_complex(F, kind, m) for m in derived.MATCHINGS]:
                for n in range(X.top + 1):
                    d_in, d_out = X.d_into(n), X.d_from(n)
                    if any(d_in.matrix.cols) or any(d_out.matrix.cols):
                        continue
                    cycles = la.preimage_lattice(d_out.matrix, d_out.target.relations)
                    want = subquotient(cycles, la.hstack([d_in.matrix, d_out.source.relations]), n)
                    got = homology(d_in, d_out, n)
                    assert got is d_out.source
                    assert (got.free_rank, got.invariant_factors) == (
                        want.free_rank, want.invariant_factors), (kind, n)
                    compared += 1
    assert compared > 2000


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
            assert len(listed_matching(F, kind, matching)) + want == chains
    with pytest.raises(ValueError):
        reduce_complex(F, "chain", "middle")


def test_matched_pairs_keep_their_fixed_ends():
    """The listed pairs keep exactly the ends that R.fixed names: every
    pair keeps a fixed end, and some pair moves each other end."""
    for name in ("bool3", "grid3x3"):
        F = constant_diagram(shape(name), free_group(1))
        for kind, kept in (("chain", (0,)), ("cochain", (-1,))):
            for matching, ends in (("carrier", kept), ("ends", (0, -1))):
                pairs = listed_matching(F, kind, matching)
                assert pairs
                for lo, hi in pairs.items():
                    assert pairs[hi] == lo and abs(len(lo) - len(hi)) == 1
                kept_by_all = {i for i in (0, -1)
                               if all(lo[i] == hi[i] for lo, hi in pairs.items())}
                fixed = reduce_complex(F, kind, matching).fixed
                assert kept_by_all == set(ends) == {i for i, on in zip((0, -1), fixed) if on}


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
        derived._morse_complex(F, "chain", critical, 3, partner.get, (1, 0))
    # the matching reduce_complex builds on the same poset is acyclic
    assert_reduction_agrees(F)


def test_a_pair_that_moves_a_fixed_end_is_refused():
    """Grouped by the last vertex, the sequential matching of the
    octahedron's chains is acyclic and reduces the chain complex, but its
    pairs move the first vertex, so the flows refuse it under the chain
    carrier matching's fixed ends."""
    P = octahedron()
    F = constant_diagram(P, free_group(1))
    cells = [c for chains in poset.chains_up_to(P, P.length) for c in chains]
    partner = element_matching(P, "chain", cells, (0, 1))
    critical = [c for c in cells if c not in partner]
    R = derived._morse_complex(F, "chain", critical, P.length, partner.get, (0, 1))
    assert R.fixed == (0, 1) and any(len(R.blocks[n]) for n in range(1, R.top + 1))
    with pytest.raises(OracleViolation, match="differ in an end the matching fixes"):
        derived._morse_complex(F, "chain", critical, P.length, partner.get, (1, 0))


# ------------------------------------------------ the lazy matching

def assert_matches_eager(F):
    """reduce_complex has the critical chains, the pairs and, entry for
    entry, the differentials of the matching run over the whole chain
    list, for both kinds and both matchings.  Its blocks leave out the
    eager critical chains whose carrier's value has ambient rank 0: they
    hold no coordinate, so every differential matrix is the same."""
    for kind in ("chain", "cochain"):
        carrier = 0 if kind == "chain" else -1
        for matching in derived.MATCHINGS:
            R = reduce_complex(F, kind, matching)
            E, pairs = eager_reduce_complex(F, kind, matching)
            nonzero = {n: [c for c in b if F.groups[c[carrier]].ambient_rank]
                       for n, b in E.blocks.items()}
            assert R.top == E.top and R.blocks == nonzero, (kind, matching)
            assert R.fixed == E.fixed, (kind, matching)
            assert listed_matching(F, kind, matching) == pairs, (kind, matching)
            for n in range(E.top + 1):
                assert R.d_from(n).matrix == E.d_from(n).matrix, (kind, matching, n)


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


def test_lazy_matching_matches_eager_on_randgen_posets():
    """Constant Z on the randgen posets of seeds 0-39 in both families,
    up to 10 objects, and on grid3x4 (the shapes, crown towers and their
    opposites are the other tests' inputs).  The cochain matching is the
    chain rule run on opposite(P), and the eager matching, which has a
    rule of its own for each orientation, must list the same critical
    chains and pairs."""
    posets = [grid(3, 4)]
    for seed in range(40):
        posets += [gen_poset(GenConfig(seed=seed, family=family, max_objects=10))
                   for family in POSET_FAMILIES]
    for P in posets:
        assert_matches_eager(constant_diagram(P, free_group(1)))


@pytest.mark.parametrize("name", list(SHAPES))
def test_lazy_matching_matches_eager_on_shapes(name):
    P = shape(name)
    assert_matches_eager(constant_diagram(P, group_from_invariants(1, [2])))
    if len(P.objects) <= 16:
        assert_matches_eager(random_torsion_sum_diagram(random.Random(len(P.objects)), P))


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


@pytest.mark.parametrize("name", ["grid4x4", "bool4"])
def test_a_cone_holds_no_differential_and_one_homology(monkeypatch, name):
    """Constant Z on a cone reduces to one critical chain in degree 0, so
    every other degree is empty: the complex stores no differential,
    abgroup.homology runs only at degree 0, and every other degree is
    the shared zero group itself."""
    calls = []

    def counted(d_in, d_out, where):
        calls.append(where)
        return homology(d_in, d_out, where)
    monkeypatch.setattr(derived, "homology", counted)
    F = constant_diagram(shape(name), free_group(1))
    for direction in ("colim", "lim"):
        table = [derived_functor(F, direction, i) for i in range(F.poset.length + 2)]
        assert table[0].is_isomorphic_to(free_group(1))
        assert all(H is trivial_group() for H in table[1:])
        assert derived._cached_complex(F, derived._kind(direction), "carrier")._diffs == {}
    assert calls == ["degree 0", "degree 0"]


def test_zero_valued_carriers_are_not_cells(monkeypatch):
    """On bool3, for every representable and skyscraper diagram, both
    kinds and both matchings, no chain whose carrier's value is zero
    reaches _faces or is a block of the reduced complex, while the flows
    still expand the other pairs."""
    faces = derived._faces
    seen = []

    def recorded(F, kind, cell):
        seen.append((F, kind, cell))
        return faces(F, kind, cell)
    monkeypatch.setattr(derived, "_faces", recorded)
    P = shape("bool3")
    for F in ([representable_diagram(P, c) for c in P.ids]
              + [skyscraper_diagram(P, c, cyclic_group(2)) for c in P.ids]):
        for kind in ("chain", "cochain"):
            carrier = 0 if kind == "chain" else -1
            for matching in derived.MATCHINGS:
                R = reduce_complex(F, kind, matching)
                assert all(F.groups[c[carrier]].ambient_rank
                           for n in range(R.top + 1) for c in R.blocks[n]), (kind, matching)
    assert seen
    for F, kind, cell in seen:
        assert F.groups[cell[0 if kind == "chain" else -1]].ambient_rank, (kind, cell)


def test_ends_matching_keeps_only_the_groups_it_lists():
    """On a chain of 300 objects every ends group (v, w) with w two or
    more above v has a cone point, so the matching keeps a record only
    for the groups it lists, (v, v) and (v, v+1), each one critical cell
    and no pair, for both kinds; a cone group's partner is read from the
    cell."""
    ids = [f"x{k:03d}" for k in range(300)]
    P = validate_graded([(i, k) for k, i in enumerate(ids)], list(zip(ids, ids[1:])))
    steps = list(zip(ids, ids[1:]))
    for kind, cone in (("chain", "x004"), ("cochain", "x001")):
        M = OrientedMatching(P, kind, (1, 1), set())
        critical = M.critical()
        assert sorted(critical) == sorted([(v,) for v in ids] + steps)
        listed = M.listed()
        assert sorted(listed) == sorted([((v,), (v,)) for v in ids]
                                        + [((v,), (w,)) for v, w in steps])
        assert not any(listed.values())
        c = ("x000", "x002", "x005")
        s = tuple(sorted(c + (cone,)))
        assert M.partner(c) == s and M.partner(s) == c


def _strictly_above(P, a):
    """The ids strictly above a, by a walk along the covers."""
    seen, todo = set(), list(P.covers_out[a])
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(P.covers_out[x])
    return seen


def test_an_interval_is_read_from_its_ends():
    """_inside(head, foot) is {x : head < x < foot}, a missing end bounding
    nothing, for every group of every matching on the shapes, on randgen
    posets and their opposites, and on a two-component poset whose
    degrees skip 2."""
    posets = [shape(name) for name in SHAPES]
    for family in POSET_FAMILIES:
        for seed in range(4):
            P = gen_poset(GenConfig(seed=7300 + seed, family=family, max_objects=9))
            posets += [P, opposite(P)]
    posets.append(validate_graded(
        [("a", 0), ("b", 1), ("c", 3), ("d", 4), ("e", 4), ("f", 5)],
        [("a", "b"), ("c", "d"), ("c", "e"), ("d", "f"), ("e", "f")]))
    groups = 0
    for P in posets:
        above = {v: _strictly_above(P, v) for v in P.ids}
        for kind, ends in (("chain", (1, 0)), ("chain", (1, 1)),
                           ("cochain", (0, 1)), ("cochain", (1, 1))):
            M = OrientedMatching(P, kind, ends, set())
            for head, foot in M.keys():
                want = {x for x in P.ids
                        if (not head or x in above[head[0]])
                        and (not foot or foot[0] in above[x])}
                assert M.inside(head, foot) == sorted(want), (kind, ends, head, foot)
                groups += 1
    assert groups > 1000


def test_a_zero_carrier_cell_has_no_partner():
    """A group whose carrier's value is zero is not decided, so asking for
    the partner of one of its cells raises, even where the group has a
    cone point that would give one."""
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    for kind, ends, cell in (("chain", (1, 0), ("a",)), ("cochain", (0, 1), ("c",)),
                             ("chain", (1, 1), ("a", "c")), ("cochain", (1, 1), ("a", "c"))):
        carrier = cell[0] if kind == "chain" else cell[-1]
        M = OrientedMatching(P, kind, ends, {carrier})
        M.critical()
        with pytest.raises(KeyError):
            M.partner(cell)
        assert OrientedMatching(P, kind, ends, set()).partner(cell) is not None


def test_chain_budget_refuses_before_listing():
    """Each builder that lists chains counts them first: the nerve and
    the groups of the matching without a cone point.  Nothing lists the
    whole matching, so a reduced complex on one critical chain builds
    under a budget of one chain."""
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
    assert sum(len(b) for b in R.blocks.values()) == 1
    assert len(listed_matching(G, "cochain")) == sum(chain_counts(G.poset)) - 1


def test_cone_reduces_to_one_critical_cell():
    F = intro_pushout()            # a is the least element
    R = reduce_complex(F, "cochain")
    assert [c for n in range(R.top + 1) for c in R.blocks[n]] == [("a",)]
    assert R.group_at(0).same_presentation(F.groups["a"])
    G = times_two_pullback()        # a is the greatest element
    R = reduce_complex(G, "chain")
    assert [c for n in range(R.top + 1) for c in R.blocks[n]] == [("a",)]
    assert R.group_at(0).same_presentation(G.groups["a"])
    P = grid(3, 3)
    H = direct_sum_diagrams([skyscraper_diagram(P, "g2_2", cyclic_group(4)),
                             skyscraper_diagram(P, "g0_0", cyclic_group(3)),
                             constant_diagram(P, free_group(1))])
    for kind, end in (("chain", "g2_2"), ("cochain", "g0_0")):
        R = reduce_complex(H, kind)
        assert [c for n in range(R.top + 1) for c in R.blocks[n]] == [(end,)]
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


def test_lim_reads_only_up_sets():
    """The cochain matching and the Euler characteristic run on the
    opposite poset, kept on the poset with its masks (the down-sets), so
    lim on a grid and on a deep chain leaves nothing on the poset but
    what any query may keep: no set of ids and no sorted copy of one."""
    grid_F = constant_diagram(shape("grid4x4"), group_from_invariants(1, [2]))
    _, chain_F = parse_diagram(deep_chain_document())
    for F in (grid_F, chain_F):
        P = F.poset
        table = [derived_functor(F, "lim", i) for i in range(longest_chain_length(P) + 1)]
        check_euler_characteristic(F, "lim", table)
        assert kept_poset_state(P) <= POSET_STATE


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
