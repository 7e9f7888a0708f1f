import random

import pytest

from posetlim import derived
from posetlim import intlinalg as la
from posetlim.abgroup import AbHom, compose, cyclic_group, free_group, trivial_group
from posetlim.derived import (
    chain_complex,
    cochain_complex,
    colimit_direct,
    derived_functor,
    homology_at,
    is_acyclic,
    limit_direct,
)
from posetlim.diagram import (
    constant_diagram,
    representable_diagram,
    skyscraper_diagram,
    transpose_diagram,
    validate_functor,
)
from posetlim.errors import OracleViolation
from posetlim.poset import validate_graded
from posetlim.randgen import GenConfig, gen_diagram, gen_poset

from helpers import (
    intro_pushout,
    pullback_poset,
    pushout_poset,
    random_forest_poset,
    random_free_forest_diagram,
    random_torsion_sum_diagram,
    times_two_pullback,
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
    assert la.mat_equal(d1.matrix, la.intmat([[-1, -1], [2, 0], [0, 2]]))
    assert X.group_at(0).free_rank == 3
    assert X.group_at(2).is_trivial


def test_chain_complex_degenerate_shapes():
    single = validate_graded([("x", 0)], [])
    G = cyclic_group(6)
    F = constant_diagram(single, G)
    X = chain_complex(F)
    assert X.group_at(0).is_isomorphic_to(G)
    assert X.top == 0 and X.vanishes_above_top

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
    assert la.mat_equal(d0.matrix, la.intmat([[1, -2, 0], [1, 0, -2]]))


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
            raw = chain_complex(F, top=n + 1, normalized=False)
            assert homology_at(raw, n).is_isomorphic_to(norm_h)
            norm_c = homology_at(cochain_complex(F), n)
            raw_c = cochain_complex(F, top=n + 1, normalized=False)
            assert homology_at(raw_c, n).is_isomorphic_to(norm_c)


def test_unnormalized_truncation_is_guarded():
    F = intro_pushout()
    raw = chain_complex(F, top=1, normalized=False)
    with pytest.raises(ValueError):
        homology_at(raw, 1)
    with pytest.raises(ValueError):
        homology_at(raw, 2)


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
        M = h.matrix.copy()
        i, j = next((i, j) for j in range(M.shape[1]) for i in range(M.shape[0]) if M[i, j])
        M[i, j] = -M[i, j]
        return AbHom(h.source, h.target, M, check=False)

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
                    M = h.matrix.copy()
                    j = rng.randrange(M.shape[1])
                    if h is outer and rels.shape[1] and rng.random() < 0.5:
                        M[:, j] = M[:, j] + rng.choice([-1, 1, 3]) * rels[:, rng.randrange(rels.shape[1])]
                    else:
                        i = rng.randrange(M.shape[0])
                        M[i, j] = M[i, j] + rng.choice([-2, -1, 1, 2, 4, 6])
                    bad = AbHom(h.source, h.target, M, check=False)
                    pair = (bad, inner) if h is outer else (outer, bad)
                    want = compose(*pair).is_zero()
                    assert derived._composite_is_zero(*pair) == want
                    seen[want] += 1
    assert seen[True] and seen[False]


def test_dd_check_works_modulo_relations():
    """Over Z/2 the two paths around the square differ by 2, so d o d is
    a nonzero integer matrix that vanishes in the target group."""
    P = validate_graded([("a", 0), ("b", 1), ("c", 1), ("d", 2)],
                        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    T = cyclic_group(2)
    F = validate_functor(
        P, {i: T for i in P.ids},
        {("a", "b"): AbHom(T, T, [[1]]), ("a", "c"): AbHom(T, T, [[1]]),
         ("b", "d"): AbHom(T, T, [[1]]), ("c", "d"): AbHom(T, T, [[3]])})
    X = chain_complex(F)
    outer, inner = X.d_from(1), X.d_from(2)
    composite = compose(outer, inner)
    assert any(composite.matrix[i, j] for i in range(composite.matrix.shape[0])
               for j in range(composite.matrix.shape[1]))
    assert composite.is_zero()
    assert derived._composite_is_zero(outer, inner)
    assert derived_functor(F, "colim", 0).is_isomorphic_to(colimit_direct(F))
