"""Group layer: classification against brute force, hom laws, subquotients."""

import random
from math import gcd, prod

import pytest

from posetlim import intlinalg as la
from posetlim.abgroup import (
    AbHom,
    FgAbGroup,
    Subgroup,
    classify_group,
    compose,
    contains,
    cyclic_group,
    direct_sum,
    enumerate_elements,
    free_group,
    group_from_invariants,
    hom_is_epi,
    hom_is_mono,
    identity_hom,
    image,
    kernel,
    quotient,
    trivial_group,
    zero_hom,
)
from posetlim.errors import AmbientMismatchError, MismatchError


def test_classification_of_worked_example():
    # Z^3 / span{(-1,2,0), (-1,0,2)}
    G = FgAbGroup(3, [[-1, -1], [2, 0], [0, 2]])
    assert G.free_rank == 1
    assert G.invariant_factors == (2,)
    info = classify_group(G)
    assert not info.is_free and not info.is_trivial and not info.is_injective_in_ab
    assert G.describe() == "Z + Z/2"


def test_classify_edge_cases():
    assert classify_group(trivial_group()).is_trivial
    assert classify_group(trivial_group()).is_injective_in_ab
    assert classify_group(free_group(3)) == classify_group(FgAbGroup(3))
    assert classify_group(cyclic_group(1)).is_trivial
    # unit invariant factors are dropped
    G = FgAbGroup(2, [[1, 0], [0, 6]])
    assert G.invariant_factors == (6,) and G.free_rank == 0


def order_histogram(G):
    """Map m -> number of elements whose order divides m, by enumeration."""
    elems = enumerate_elements(G)
    assert elems is not None
    n = len(elems)
    hist = {}
    for m in range(1, n + 1):
        if n % m:
            continue
        count = 0
        for x in elems:
            if G.element_is_zero([m * v for v in x]):
                count += 1
        hist[m] = count
    return n, hist


def test_classification_matches_brute_force_enumeration():
    rng = random.Random(2026)
    trials = 0
    while trials < 40:
        g = rng.randrange(1, 4)
        k = rng.randrange(0, 4)
        rel = la.intmat([[rng.randint(-6, 6) for _ in range(k)] for _ in range(g)])
        if rel.shape == (0, 0):
            rel = la.zeros(g, 0)
        G = FgAbGroup(g, rel)
        if G.free_rank or (G.order() or 10**9) > 200:
            continue
        trials += 1
        n, hist = order_histogram(G)
        assert n == G.order()
        factors = G.invariant_factors
        for m, count in hist.items():
            expected = prod(gcd(m, d) for d in factors) if factors else 1
            assert count == expected


def random_well_defined_hom(rng, src, src_orders, tgt, bound=3):
    """Random hom: generator j (order src_orders[j], 0 = infinite) maps to
    an element killed by that order."""
    rows = [[0] * src.ambient_rank for _ in range(tgt.ambient_rank)]
    for j, d in enumerate(src_orders):
        if d == 0:
            for i in range(tgt.ambient_rank):
                rows[i][j] = rng.randint(-bound, bound)
        else:
            scaled = d * la.eye(tgt.ambient_rank)
            ann = la.preimage_lattice(scaled, tgt.relations)
            if ann.shape[1]:
                combo = ann @ la.intmat(
                    [[rng.randint(-2, 2)] for _ in range(ann.shape[1])])
                for i in range(tgt.ambient_rank):
                    rows[i][j] = combo[i, 0]
    return AbHom(src, tgt, la.intmat(rows, (tgt.ambient_rank, src.ambient_rank)))


def random_group(rng, max_rank=3, factors=(2, 3, 4)):
    """(group, generator orders in its diagonal presentation)."""
    free = rng.randrange(0, max_rank)
    tors = [rng.choice(factors) for _ in range(rng.randrange(0, 3))]
    return group_from_invariants(free, tors), [0] * free + tors


def test_hom_well_definedness_enforced():
    Z4 = cyclic_group(4)
    Z2 = cyclic_group(2)
    AbHom(Z4, Z2, [[1]])  # 4*1 = 0 mod 2: fine
    with pytest.raises(ValueError):
        AbHom(Z2, Z4, [[1]])  # 2*1 = 2 is not 0 mod 4
    AbHom(Z2, Z4, [[2]])  # doubling is well defined


def test_hom_equality_mod_relations_and_composition():
    Z = free_group(1)
    Z2 = cyclic_group(2)
    f = AbHom(Z, Z2, [[1]])
    g = AbHom(Z, Z2, [[3]])
    assert f.equal(g)
    assert not f.equal(zero_hom(Z, Z2))
    h = AbHom(Z2, Z2, [[1]])
    assert compose(h, f).equal(compose(h, g))
    with pytest.raises(MismatchError):
        compose(f, h)


def test_kernel_certificates():
    rng = random.Random(17)
    for _ in range(60):
        src, src_orders = random_group(rng)
        tgt, _ = random_group(rng)
        h = random_well_defined_hom(rng, src, src_orders, tgt)
        K, K_grp, emb = kernel(h)
        assert compose(h, emb).is_zero()
        # membership in K must agree with being killed by h
        for _ in range(8):
            x = [rng.randint(-2, 2) for _ in range(src.ambient_rank)]
            killed = tgt.element_is_zero(h(x))
            assert K.contains_element(x) == killed


def test_image_and_quotient_orders_multiply():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        src, src_orders = random_group(rng, max_rank=1)
        tgt, _ = random_group(rng, max_rank=1)
        if src.free_rank or tgt.free_rank:
            continue
        h = random_well_defined_hom(rng, src, src_orders, tgt)
        S = image(h)
        S_grp, _ = S.as_group
        Q, proj = quotient(tgt, S)
        assert S_grp.order() * Q.order() == tgt.order()
        checked += 1
    # projection kernel is the subgroup itself
    Z = free_group(1)
    two = Subgroup(Z, [[2]])
    Q, proj = quotient(Z, two)
    assert Q.invariant_factors == (2,) and Q.free_rank == 0
    K, _, _ = kernel(proj)
    assert K.same_subgroup(two)


def test_quotient_ambient_mismatch():
    Z = free_group(1)
    other = free_group(2)
    S = Subgroup(other, [[1], [0]])
    with pytest.raises(AmbientMismatchError):
        quotient(Z, S)


def test_contains_element_and_subgroup_with_witness():
    Z2fold = free_group(2)
    S = Subgroup(Z2fold, [[2, 0], [0, 3]])
    assert contains(S, [2, 3])
    assert not contains(S, [1, 0])
    T = Subgroup(Z2fold, [[2], [3]])
    ok, witness = contains(S, T)
    assert ok and witness is None
    big = Subgroup(Z2fold, [[1], [0]])
    ok, witness = contains(S, big)
    assert not ok and witness == (1, 0)
    # modulo ambient relations: in Z/2 x Z, (1,0) generates everything mod torsion
    G = FgAbGroup(2, [[2], [0]])
    S2 = Subgroup(G, [[1], [1]])
    assert contains(S2, [3, 1])
    assert not contains(S2, [0, 2]) or S2.contains_element([0, 2])


def test_direct_sum_layout():
    parts = [cyclic_group(4), free_group(2), cyclic_group(3)]
    ds = direct_sum(parts)
    assert ds.group.ambient_rank == 4
    assert ds.offsets == [0, 1, 3]
    assert ds.summands == parts
    assert ds.group.relations.tolist() == [[4, 0], [0, 0], [0, 0], [0, 3]]
    assert ds.group.invariant_factors == (12,) or set(
        ds.group.invariant_factors) == {12} or ds.group.invariant_factors == (3, 4) \
        or ds.group.invariant_factors == (12,)
    # structurally Z^2 + Z/12 (= Z/4 x Z/3)
    assert ds.group.free_rank == 2
    assert prod(ds.group.invariant_factors) == 12


def test_mono_epi_helpers():
    Z = free_group(1)
    assert hom_is_mono(AbHom(Z, Z, [[2]]))
    assert not hom_is_epi(AbHom(Z, Z, [[2]]))
    assert hom_is_epi(AbHom(Z, cyclic_group(2), [[1]]))
    assert not hom_is_mono(AbHom(Z, cyclic_group(2), [[1]]))
    assert hom_is_mono(identity_hom(trivial_group()))


def test_subgroup_as_group_structure():
    # subgroup generated by (2,0) and (0,2) inside (Z/4)^2 is (Z/2)^2
    G = group_from_invariants(0, [4, 4])
    S = Subgroup(G, [[2, 0], [0, 2]])
    grp, emb = S.as_group
    assert grp.order() == 4
    assert grp.invariant_factors == (2, 2)
    assert compose(quotient(G, S)[1], emb).is_zero()
