"""Acceptance gate: eleven end-to-end checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Every comparison
is exact equality of free ranks and invariant factors; every random
instance is seeded, so a failure here reproduces byte-for-byte.
"""

import random

import pytest

from posetlim import intlinalg as la
from posetlim.abgroup import (
    AbHom,
    FgAbGroup,
    cyclic_group,
    free_group,
    hom_is_mono,
    trivial_group,
    zero_hom,
)
from posetlim.classify import (
    classify_diagram,
    is_projective,
    is_pseudo_injective,
    is_pseudo_projective,
    pushout_projectivity_criterion,
)
from posetlim.derived import (
    colimit_direct,
    derived_functor,
    homology_at,
    is_acyclic,
    limit_direct,
)
from posetlim.diagram import (
    constant_diagram,
    representable_diagram,
    transpose_diagram,
    validate_functor,
)
from posetlim.poset import longest_chain_length, opposite, validate_graded
from posetlim.randgen import GenConfig, gen_diagram, gen_poset, is_forest
from posetlim.spectral import (
    TABLE_VARIANTS,
    build_filtered,
    convergence_check,
    e_infinity,
    oracle_page_one,
    oracle_page_recurrence,
)

from helpers import (
    chain_complex,
    cochain_complex,
    dense_diagonal_of_snf,
    det,
    intro_pushout,
    pushout_poset,
    random_mixed_diagram,
    smith_normal_form,
    unnormalized_complex,
)


def _line(k, text):
    print(f"criterion {k}: PASS - {text}")


def test_criterion_01_intro_pushout():
    F = intro_pushout()

    # independent oracle: the dense reference Smith form of the
    # hand-written degree-1 boundary (columns the 1-chains (a,b), (a,c);
    # rows a, b, c), which the certified Smith form must match
    B = la.intmat([[-1, -1], [2, 0], [0, 2]])
    diag = dense_diagonal_of_snf(B)
    U, D, V = smith_normal_form(B)
    assert U @ B @ V == D and [int(D[i, i]) for i in range(2)] == diag
    expected_free = 3 - len(diag)
    expected_torsion = tuple(d for d in diag if d > 1)
    assert (expected_free, expected_torsion) == (1, (2,))

    c0 = derived_functor(F, "colim", 0)
    assert (c0.free_rank, c0.invariant_factors) == (expected_free, expected_torsion)
    assert derived_functor(F, "colim", 1).is_trivial

    rep = classify_diagram(F)
    assert rep.pseudo_projective.ok
    assert not rep.projective.ok
    assert rep.cokernels["b"].invariant_factors == (2,)
    assert rep.colim_acyclic
    _line(1, "colim_0 = Z + Z/2 (matches SNF oracle), colim_1 = 0, "
             "pseudo-projective and not projective")


def test_criterion_02_zero_one_pushout():
    P = pushout_poset()
    Z = free_group(1)
    O = trivial_group()
    F = validate_functor(P, {"a": Z, "b": Z, "c": O},
                         {("a", "b"): AbHom(Z, Z, [[1]]),
                          ("a", "c"): zero_hom(Z, O)})
    v = is_pseudo_projective(F)
    assert not v.ok
    assert v.witness.i0 == "c" and v.witness.d == 1
    assert v.witness.components == (("a", (1,)),)
    assert derived_functor(F, "colim", 1).is_trivial
    _line(2, "0/1 pushout fails pseudo-projectivity with witness 1 in Z, "
             "yet colim_1 = 0")


def test_criterion_03_multiplication_and_reduction():
    P = validate_graded([("a", 0), ("b", 1)], [("a", "b")])
    Z = free_group(1)
    for n in (2, 3, 5, 12):
        times = validate_functor(P, {"a": Z, "b": Z},
                                 {("a", "b"): AbHom(Z, Z, [[n]])})
        rep = classify_diagram(times)
        assert not rep.projective.ok
        assert rep.cokernels["b"].invariant_factors == (n,)
        assert rep.pseudo_projective.ok

        red = validate_functor(P, {"a": Z, "b": cyclic_group(n)},
                               {("a", "b"): AbHom(Z, cyclic_group(n), [[1]])})
        v = is_pseudo_projective(red)
        assert not v.ok
        assert v.witness.components == (("a", (n,)),)
    _line(3, "times-n has cokernel Z/n and is not projective; "
             "reduction mod n fails pseudo-projectivity with witness n")


def _pushout_criterion(F):
    """F(a), F(b)/Im F(f), F(c)/Im F(g) free and both legs mono."""
    f = F.cover_maps[("a", "b")]
    g = F.cover_maps[("a", "c")]
    if not F.groups["a"].is_free:
        return False
    for leg in (f, g):
        Q = FgAbGroup(leg.target.ambient_rank,
                      la.hstack([leg.target.relations, leg.matrix]))
        if not Q.is_free:
            return False
    return hom_is_mono(f) and hom_is_mono(g)


def test_criterion_04_pushout_projectivity_criterion():
    rng = random.Random(40404)
    positives = negatives = 0
    for _ in range(200):
        F = random_mixed_diagram(rng, pushout_poset())
        verdict = is_projective(F).ok
        assert verdict == _pushout_criterion(F)
        assert pushout_projectivity_criterion(F) == verdict
        if verdict:
            positives += 1
        else:
            negatives += 1
    assert positives >= 10 and negatives >= 10
    _line(4, f"200 random pushouts: classifier == independent criterion "
             f"({positives} projective, {negatives} not)")


@pytest.fixture(scope="module")
def built_to_be_pseudo_projective():
    out = []
    for seed in range(500):
        cfg = GenConfig(seed=seed, family="forest" if seed % 2 == 0 else "layered",
                        max_objects=10, max_degree_span=3)
        P = gen_poset(cfg)
        out.append((P, gen_diagram(cfg, P, "pseudo_projective_by_construction")))
    return out


def test_criterion_05_colim_acyclicity_of_constructed(built_to_be_pseudo_projective):
    for P, F in built_to_be_pseudo_projective:
        assert len(P.ids) <= 10
        res = is_acyclic(F, "colim")
        assert res.acyclic, f"nonzero colim_{res.degree} on {sorted(P.ids)}"
    _line(5, "500 constructed pseudo-projective diagrams are all colim-acyclic")


def test_criterion_06_dual_suite(built_to_be_pseudo_projective):
    # pseudo-projectivity does not transpose (times-2 transposes to
    # times-2, which fails lifting), so the check is the implication
    checked = 0
    for P, F in built_to_be_pseudo_projective:
        G = transpose_diagram(F)
        if is_pseudo_injective(G).ok:
            checked += 1
            assert is_acyclic(G, "lim").acyclic
    assert checked >= 300

    for p in (2, 3, 5):
        P = validate_graded([("a", 0), ("b", 1), ("c", 2)],
                            [("a", "b"), ("b", "c")])
        F = constant_diagram(P, cyclic_group(p))
        rep = classify_diagram(F)
        assert rep.pseudo_injective.ok
        assert rep.lim_acyclic
        assert not rep.injective.ok
        # the failing condition is the group-level one: the kernel at
        # the top is the whole Z/p, which is not injective in Ab (a
        # finitely generated group is injective only when trivial)
        assert not rep.kernels["c"].is_trivial
    _line(6, f"{checked}/500 transposes are pseudo-injective, every one "
             "lim-acyclic; constant Z/p chains are pseudo-injective + "
             "lim-acyclic but fail the kernel-injectivity condition")


def test_criterion_07_degree_zero_oracles():
    for seed in range(500):
        cfg = GenConfig(seed=1000 + seed,
                        family="forest" if seed % 2 == 0 else "layered")
        P = gen_poset(cfg)
        if seed % 3 == 0 and is_forest(P):
            F = gen_diagram(cfg, P, "free_maps_on_forest")
        else:
            F = gen_diagram(cfg, P, "sums_of_standard")
        assert derived_functor(F, "colim", 0).is_isomorphic_to(colimit_direct(F))
        assert derived_functor(F, "lim", 0).is_isomorphic_to(limit_direct(F))
    _line(7, "500 random diagrams: H_0 matches the direct colimit and "
             "H^0 the direct limit")


def test_criterion_08_spectral_convergence_all_variants():
    seen = set()
    for k in range(100):
        cfg = GenConfig(seed=2000 + k, family="forest" if k % 2 == 0 else "layered",
                        max_objects=5)
        P = gen_poset(cfg)
        if k % 4 >= 2:
            P = opposite(P)
        F = gen_diagram(cfg, P, "sums_of_standard")
        for variant in TABLE_VARIANTS:
            if variant.direction != P.direction:
                continue
            seen.add(variant.name)
            report = convergence_check(P, F, variant)
            assert report.ok
            X = build_filtered(P, F, variant)
            oracle_page_one(X)
            oracle_page_recurrence(X)
            e_infinity(X)
    assert seen == {v.name for v in TABLE_VARIANTS}
    _line(8, "100 random diagrams x 8 variants: rank additivity, finite "
             "order equality, page recurrence, stabilization by span+2")


def test_criterion_09_representables_are_projective_and_acyclic():
    for k in range(100):
        cfg = GenConfig(seed=3000 + k, family="forest" if k % 2 == 0 else "layered")
        P = gen_poset(cfg)
        if k % 4 >= 2:
            P = opposite(P)
        base = cfg.stream("pick-base").choice(P.ids)
        F = representable_diagram(P, base)
        assert is_projective(F).ok
        assert is_acyclic(F, "colim").acyclic
    _line(9, "representables on 100 random posets are projective and "
             "colim-acyclic")


def test_criterion_10_normalization_is_invisible_in_homology():
    for k in range(50):
        cfg = GenConfig(seed=4000 + k, max_objects=6,
                        family="forest" if k % 2 == 0 else "layered")
        P = gen_poset(cfg)
        F = gen_diagram(cfg, P, "sums_of_standard")
        longest = longest_chain_length(P)
        for kind, build in (("chain", chain_complex), ("cochain", cochain_complex)):
            Cn = build(F)
            # weak chains exist in every degree, so the unnormalized
            # complex must be built past the last degree compared
            Cu = unnormalized_complex(F, kind, longest + 2)
            for n in range(longest + 2):
                assert homology_at(Cn, n).is_isomorphic_to(homology_at(Cu, n))
    _line(10, "normalized and unnormalized complexes agree in homology "
              "on 50 instances, both orientations")


def test_criterion_11_smith_certificates():
    rng = random.Random(11111)
    for _ in range(1000):
        m = rng.randrange(1, 13)
        n = rng.randrange(1, 13)
        M = la.intmat([[rng.randrange(-50, 51) for _ in range(n)]
                       for _ in range(m)])
        U, D, V = smith_normal_form(M)
        assert U @ M @ V == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [int(D[i, i]) for i in range(min(m, n))]
        assert all(int(D[i, j]) == 0 for i in range(m) for j in range(n) if i != j)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
    _line(11, "1000 random matrices up to 12x12: UMV = D certified, U and V "
              "unimodular, diagonal divisibility chain")
