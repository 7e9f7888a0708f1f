"""Group layer: classification against brute force, hom laws, subquotients."""

import random
from math import gcd, prod

import pytest

from posetlim import abgroup
from posetlim import intlinalg as la
from posetlim.abgroup import (
    AbHom,
    FgAbGroup,
    Subgroup,
    compose,
    cyclic_group,
    direct_sum,
    free_group,
    group_from_invariants,
    hom_is_mono,
    homology,
    identity_hom,
    kernel,
    quotient,
    subquotient,
    trivial_group,
    zero_hom,
)
from posetlim.errors import AmbientMismatchError, MismatchError, OracleViolation

from helpers import enumerate_elements, same_subgroup


def test_classification_of_worked_example():
    # Z^3 / span{(-1,2,0), (-1,0,2)}
    G = FgAbGroup(3, [[-1, -1], [2, 0], [0, 2]])
    assert G.free_rank == 1
    assert G.invariant_factors == (2,)
    assert not G.is_free and not G.is_trivial
    assert G.describe() == "Z + Z/2"


def test_classify_edge_cases():
    assert trivial_group().is_trivial
    assert free_group(3).is_isomorphic_to(FgAbGroup(3)) and free_group(3).is_free
    assert cyclic_group(1).is_trivial
    # unit invariant factors are dropped
    G = FgAbGroup(2, [[1, 0], [0, 6]])
    assert G.invariant_factors == (6,) and G.free_rank == 0


def test_zero_is_one_shared_group():
    """The zero group and the empty direct sum are each one shared
    instance; a group of ambient rank 0 with relations is another one."""
    assert trivial_group() is trivial_group()
    assert direct_sum([]) is direct_sum([])
    assert direct_sum([]).group is trivial_group()
    assert direct_sum([]).summands == [] and direct_sum([]).offsets == []
    assert FgAbGroup(0) is not trivial_group()


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
        K = kernel(h)
        K_grp, emb = K.as_group
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
        S = Subgroup(tgt, h.matrix)
        S_grp, _ = S.as_group
        Q, proj = quotient(tgt, S)
        assert S_grp.order() * Q.order() == tgt.order()
        checked += 1
    # projection kernel is the subgroup itself
    Z = free_group(1)
    two = Subgroup(Z, [[2]])
    Q, proj = quotient(Z, two)
    assert Q.invariant_factors == (2,) and Q.free_rank == 0
    K = kernel(proj)
    assert same_subgroup(K, two)


def test_quotient_ambient_mismatch():
    Z = free_group(1)
    other = free_group(2)
    S = Subgroup(other, [[1], [0]])
    with pytest.raises(AmbientMismatchError):
        quotient(Z, S)


def test_homology_by_hand():
    # Z --x2--> Z/4 --mod 2--> Z/2: the cycles {0, 2} are the boundaries
    Z, Z4, Z2 = free_group(1), cyclic_group(4), cyclic_group(2)
    d_in = AbHom(Z, Z4, [[2]])
    d_out = AbHom(Z4, Z2, [[1]])
    assert homology(d_in, d_out, "Z/4").is_trivial
    # with nothing arriving the cycles {0, 2} survive as Z/2
    H = homology(zero_hom(trivial_group(), Z4), d_out, "Z/4")
    assert H.free_rank == 0 and H.invariant_factors == (2,)
    # and with nothing leaving either, it is all of Z/4
    assert homology(zero_hom(trivial_group(), Z4), zero_hom(Z4, trivial_group()),
                    "Z/4").invariant_factors == (4,)


def test_subquotient_presents_on_the_lattice_columns():
    Q = subquotient(la.intmat([[2, 0], [0, 1]]), la.intmat([[8], [0]]), "here")
    assert Q.ambient_rank == 2 and Q.free_rank == 1 and Q.invariant_factors == (4,)
    with pytest.raises(OracleViolation, match="level 3, degree 1"):
        subquotient(la.intmat([[2]]), la.intmat([[1]]), "level 3, degree 1")


def test_contains_element_and_subgroup_with_witness():
    Z2fold = free_group(2)
    S = Subgroup(Z2fold, [[2, 0], [0, 3]])
    assert S.contains_element([2, 3])
    assert not S.contains_element([1, 0])
    T = Subgroup(Z2fold, [[2], [3]])
    ok, witness = S.contains_subgroup(T)
    assert ok and witness is None
    big = Subgroup(Z2fold, [[1], [0]])
    ok, witness = S.contains_subgroup(big)
    assert not ok and witness == (1, 0)
    # modulo ambient relations: in Z/2 x Z, (1,0) generates everything mod torsion
    G = FgAbGroup(2, [[2], [0]])
    S2 = Subgroup(G, [[1], [1]])
    assert S2.contains_element([3, 1])
    assert S2.contains_element([0, 2])


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
    assert not hom_is_mono(AbHom(Z, cyclic_group(2), [[1]]))
    assert hom_is_mono(identity_hom(trivial_group()))


def test_triviality_and_monos_are_span_membership(monkeypatch):
    """hom_is_mono and Subgroup.is_trivial present no group: with
    subquotient and the Smith diagonal made to raise they still answer,
    and agree with the presented subgroup on seeded random homs and
    subgroups into free, torsion and zero targets."""
    rng = random.Random(41)
    cases = []
    for tgt in [random_group(rng)[0] for _ in range(30)] + [free_group(2), cyclic_group(6),
                                                          trivial_group()]:
        src, src_orders = random_group(rng)
        h = random_well_defined_hom(rng, src, src_orders, tgt)
        gens = la.intmat([[rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(2)]
                          for _ in range(tgt.ambient_rank)], (tgt.ambient_rank, 2))
        cases.append((h, Subgroup(tgt, gens)))

    def refuse(*args):
        raise AssertionError("presented a group to answer a yes/no question")

    with monkeypatch.context() as m:
        m.setattr(abgroup, "subquotient", refuse)
        m.setattr(la, "diagonal_of_snf", refuse)
        got = [(hom_is_mono(h), S.is_trivial) for h, S in cases]
    want = [(kernel(h).as_group[0].is_trivial, S.as_group[0].is_trivial) for h, S in cases]
    assert got == want
    assert {mono for mono, _ in want} == {trivial for _, trivial in want} == {True, False}


def test_is_zero_builds_no_checker_for_a_zero_matrix(monkeypatch):
    """A zero column needs no membership check, so an all-zero matrix
    never builds the target's relation SpanChecker; a nonzero column
    builds it once."""
    built = []

    class Counted(la.SpanChecker):
        def __init__(self, M):
            built.append(M.shape)
            super().__init__(M)

    monkeypatch.setattr(la, "SpanChecker", Counted)
    T = group_from_invariants(1, [2, 3])
    src = free_group(2)
    assert AbHom(src, T, la.zeros(3, 2)).is_zero()
    assert built == []
    assert AbHom(src, T, [[0, 0], [0, 2], [0, 0]]).is_zero()
    assert not AbHom(src, T, [[0, 0], [0, 1], [0, 0]]).is_zero()
    assert built == [(3, 2)]


def test_each_matrix_builds_one_span_checker(monkeypatch):
    """A matrix keeps the SpanChecker it builds: a subgroup's membership
    test and its presentation share one on its lattice, and solves and a
    subquotient against one matrix share one on it."""
    built = []

    class Counted(la.SpanChecker):
        def __init__(self, M):
            built.append(M)
            super().__init__(M)

    monkeypatch.setattr(la, "SpanChecker", Counted)
    S = Subgroup(group_from_invariants(1, [4]), [[2], [2]])
    assert S.contains_element([4, 0])
    assert S.as_group[0].describe() == "Z"
    assert sum(M is S._lattice for M in built) == 1

    built.clear()
    M = la.intmat([[2, 0], [0, 3], [1, 1]])
    X = la.intmat([[4], [3], [3]])
    assert la.solve(M, X) == la.solve(M, X) == la.intmat([[2], [1]])
    assert subquotient(M, X, "a test").describe() == "Z"
    assert sum(N is M for N in built) == 1


def test_subgroup_as_group_structure():
    # subgroup generated by (2,0) and (0,2) inside (Z/4)^2 is (Z/2)^2
    G = group_from_invariants(0, [4, 4])
    S = Subgroup(G, [[2, 0], [0, 2]])
    grp, emb = S.as_group
    assert grp.order() == 4
    assert grp.invariant_factors == (2, 2)
    assert compose(quotient(G, S)[1], emb).is_zero()
