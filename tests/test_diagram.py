import random

import pytest

from posetlim import diagram as diagram_module
from posetlim import intlinalg as la
from posetlim.abgroup import (
    AbHom,
    FgAbGroup,
    Subgroup,
    compose,
    cyclic_group,
    free_group,
    identity_hom,
    trivial_group,
    zero_hom,
)
from posetlim.diagram import (
    coker_at,
    constant_diagram,
    direct_sum_diagrams,
    im_at,
    ker_at,
    representable_diagram,
    skyscraper_diagram,
    validate_functor,
)
from posetlim.errors import (
    DiamondError,
    MismatchError,
    MissingDataError,
    NoArrowError,
    UnknownIdError,
)
from posetlim.poset import validate_graded
from posetlim.randgen import GenConfig, gen_poset

from helpers import (
    NatTransformation,
    NotNaturalError,
    all_pairs_composites,
    check_adjunction_instance,
    coim_at,
    coker_functor,
    coker_prime_functor,
    crown_tower,
    hexagon,
    im_at_all_arrows,
    intro_pushout,
    kept_poset_state,
    ker_at_all_arrows,
    pushout_poset,
    random_torsion_sum_diagram,
    same_subgroup,
    shape,
    strictly_below,
    transformation_to_hom,
)


def chain_times(ns):
    """Chain diagram Z -> Z -> ... with the given multiplications."""
    ids = [chr(ord("a") + k) for k in range(len(ns) + 1)]
    P = validate_graded([(i, k) for k, i in enumerate(ids)],
                        [(ids[k], ids[k + 1]) for k in range(len(ns))])
    Z = free_group(1)
    maps = {(ids[k], ids[k + 1]): AbHom(Z, Z, [[n]]) for k, n in enumerate(ns)}
    return validate_functor(P, {i: Z for i in ids}, maps)


def square_poset():
    return validate_graded(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def test_validate_accepts_and_caches():
    F = intro_pushout()
    assert F.hom("a", "b").matrix[0, 0] == 2
    assert F.hom("a", "a").equal(identity_hom(free_group(1)))
    with pytest.raises(NoArrowError):
        F.hom("b", "c")


def test_validate_trivial_groups():
    P = square_poset()
    T = trivial_group()
    F = validate_functor(P, {i: T for i in P.ids},
                         {c: zero_hom(T, T) for c in P.covers})
    assert F.groups["d"].is_trivial


def test_diamond_error_with_witnesses():
    P = square_poset()
    Z = free_group(1)
    maps = {
        ("a", "b"): AbHom(Z, Z, [[1]]),
        ("a", "c"): AbHom(Z, Z, [[1]]),
        ("b", "d"): AbHom(Z, Z, [[2]]),
        ("c", "d"): AbHom(Z, Z, [[3]]),
    }
    with pytest.raises(DiamondError) as exc:
        validate_functor(P, {i: Z for i in P.ids}, maps)
    err = exc.value
    assert {err.path_a, err.path_b} == {("a", "b", "d"), ("a", "c", "d")}
    vals = {int(err.matrix_a[0, 0]), int(err.matrix_b[0, 0])}
    assert vals == {2, 3}


def oracle_posets():
    """The posets validate_functor is checked against the all-pairs
    comparison on: four cones, crown_tower(3), the hexagon and the
    layered randgen posets of seeds 0-40 with up to 14 objects."""
    posets = [shape(name) for name in ("bool3", "grid3x3", "bool4", "grid4x4")]
    posets += [crown_tower(3), hexagon()]
    posets += [gen_poset(GenConfig(seed=seed, max_objects=14, family="layered"))
               for seed in range(41)]
    return posets


def agrees_with_all_pairs(P, groups, maps):
    """validate_functor and all_pairs_composites agree on this data: both
    raise a DiamondError with the same message, paths and matrices, or
    both accept it with the same composite and path for every comparable
    pair.  Returns whether they raised."""
    try:
        composites, paths = all_pairs_composites(P, groups, maps)
    except DiamondError as want:
        with pytest.raises(DiamondError) as got:
            validate_functor(P, groups, maps)
        a, b = got.value, want
        assert str(a) == str(b)
        assert (a.path_a, a.path_b) == (b.path_a, b.path_b)
        assert a.matrix_a == b.matrix_a and a.matrix_b == b.matrix_b
        return True
    F = validate_functor(P, groups, maps)
    for (p, q), h in composites.items():
        assert F.hom(p, q).matrix == h.matrix, (p, q)
        assert F.path(p, q) == paths[(p, q)], (p, q)
    return False


def test_one_broken_cover_gives_the_all_pairs_witnesses():
    """Doubling one cover map of constant Z breaks the diamonds through
    it; validate_functor reports the pair, the paths and the matrices
    that the all-pairs comparison reports, whichever cover is broken, and
    accepts what it accepts.  Every cover of the hexagon breaks it, each
    at the pair (p, q) three degrees apart."""
    Z = free_group(1)
    failed = 0
    for P in oracle_posets():
        groups = {i: Z for i in P.ids}
        for broken in P.covers:
            maps = {c: AbHom(Z, Z, [[2 if c == broken else 1]]) for c in P.covers}
            failed += agrees_with_all_pairs(P, groups, maps)
    assert failed > 100
    P = hexagon()
    for broken in P.covers:
        maps = {c: AbHom(Z, Z, [[2 if c == broken else 1]]) for c in P.covers}
        with pytest.raises(DiamondError) as got:
            validate_functor(P, {i: Z for i in P.ids}, maps)
        assert {got.value.path_a, got.value.path_b} == {("p", "x", "a", "q"), ("p", "y", "b", "q")}


def test_composites_match_all_pairs():
    """Functorial sums of standard diagrams give the all-pairs composites
    and paths; seeded cover maps of 1, -1 or 5 on constant Z and Z/4,
    dozens of which fail (over Z/4, 5 is 1), give its verdict and its
    witnesses."""
    rng = random.Random(83)
    failed = 0
    for P in oracle_posets():
        for _ in range(2):
            F = random_torsion_sum_diagram(rng, P)
            assert not agrees_with_all_pairs(P, F.groups, F.cover_maps)
        for G in (free_group(1), free_group(1), cyclic_group(4), cyclic_group(4)):
            maps = {c: AbHom(G, G, [[rng.choice((1, 1, 1, -1, 5))]]) for c in P.covers}
            failed += agrees_with_all_pairs(P, {i: G for i in P.ids}, maps)
    assert failed >= 24


def test_validation_composes_only_what_it_compares(monkeypatch):
    """Constant Z on grid4x4 composes two homs per check at validation:
    each square's bottom object, its two upper covers and their one
    minimal common upper bound, 18 composites rather than one per
    comparable pair; every other composite is composed when asked for,
    equal to the all-pairs one."""
    calls = []

    def counted(second, first):
        calls.append(1)
        return compose(second, first)
    monkeypatch.setattr(diagram_module, "compose", counted)
    P = shape("grid4x4")
    F = constant_diagram(P, free_group(1))
    assert len(calls) == 18
    composites, paths = all_pairs_composites(P, F.groups, F.cover_maps)
    for (p, q), h in composites.items():
        assert F.hom(p, q).matrix == h.matrix
        assert F.path(p, q) == paths[(p, q)]
    a, b = (i for i in P.ids if P.degree[i] == 1)
    with pytest.raises(NoArrowError):
        F.hom(a, b)


@pytest.mark.parametrize("name, compared", [("grid4x4", 9), ("bool5", 80)])
def test_one_comparison_per_component_of_first_covers(monkeypatch, name, compared):
    """One comparison per two upper covers of an object and per minimal
    common upper bound of the two: grid4x4 compares its 9 squares, not
    the 36 pairs of first covers below some object; bool5 80, one per
    two-element extension of each subset (the join is the only minimal
    common upper bound), not 194."""
    calls = []
    real = AbHom.equal

    def counted(self, other):
        calls.append(1)
        return real(self, other)
    monkeypatch.setattr(AbHom, "equal", counted)
    constant_diagram(shape(name), free_group(1))
    assert len(calls) == compared


def test_validation_never_builds_below_set():
    """Validation reads the covers and the up-sets only, and the poset
    keeps nothing else: no down-set and no sorted copy of an up-set."""
    P = shape("grid4x4")
    constant_diagram(P, free_group(1))
    assert kept_poset_state(P) <= {"covers_out", "covers_into", "above_set"}


def test_validate_missing_and_mismatched_data():
    P = pushout_poset()
    Z = free_group(1)
    two = AbHom(Z, Z, [[2]])
    with pytest.raises(MissingDataError):
        validate_functor(P, {"a": Z, "b": Z},
                         {("a", "b"): two, ("a", "c"): two})
    with pytest.raises(MissingDataError):
        validate_functor(P, {"a": Z, "b": Z, "c": Z}, {("a", "b"): two})
    with pytest.raises(MissingDataError):
        validate_functor(P, {"a": Z, "b": Z, "c": Z},
                         {("a", "b"): two, ("a", "c"): two, ("b", "c"): two})
    wrong = AbHom(free_group(2), Z, [[1, 0]])
    with pytest.raises(MismatchError):
        validate_functor(P, {"a": Z, "b": Z, "c": Z},
                         {("a", "b"): two, ("a", "c"): wrong})


def test_eval_hom_composes():
    F = chain_times([2, 3])
    assert F.hom("a", "c").matrix[0, 0] == 6
    assert F.path("a", "c") == ("a", "b", "c")


def test_im_at():
    F = intro_pushout()
    got = im_at(F, "b")
    assert same_subgroup(got, Subgroup(F.groups["b"], [[2]]))
    assert im_at(F, "a").is_trivial
    G = chain_times([2, 3])
    assert same_subgroup(im_at(G, "c"), Subgroup(G.groups["c"], [[3]]))
    # covers suffice: the all-arrows sum adds 6Z, already inside 3Z
    assert same_subgroup(im_at_all_arrows(G, "c"), im_at(G, "c"))


def test_coker_at():
    F = intro_pushout()
    Q, proj = coker_at(F, "b")
    assert Q.is_isomorphic_to(cyclic_group(2))
    assert proj(tuple([1])) == (1,)
    Qa, _ = coker_at(F, "a")
    assert Qa.is_isomorphic_to(free_group(1))
    G = chain_times([5])
    Qn, _ = coker_at(G, "b")
    assert Qn.is_isomorphic_to(cyclic_group(5))


def test_ker_at_and_coim_at():
    # pullback shape: two sources mapping into one sink
    P = validate_graded([("b", 0), ("c", 0), ("a", 1)],
                        [("b", "a"), ("c", "a")])
    Z = free_group(1)
    two = AbHom(Z, Z, [[2]])
    F = validate_functor(P, {i: Z for i in P.ids},
                         {("b", "a"): two, ("c", "a"): two})
    assert ker_at(F, "a").contains_subgroup(Subgroup(Z, la.eye(1)))[0]  # no outgoing arrows
    assert ker_at(F, "b").is_trivial
    assert coim_at(F, "b").is_isomorphic_to(free_group(1))

    Zp = cyclic_group(7)
    C = constant_diagram(validate_graded([("x", 0), ("y", 1)], [("x", "y")]), Zp)
    assert ker_at(C, "x").is_trivial
    assert coim_at(C, "x").is_isomorphic_to(Zp)


def test_coker_functor():
    F = intro_pushout()
    C, sigma = coker_functor(F)
    assert C.groups["a"].is_isomorphic_to(free_group(1))
    assert C.groups["b"].is_isomorphic_to(cyclic_group(2))
    assert C.groups["c"].is_isomorphic_to(cyclic_group(2))
    assert all(C.cover_maps[c].is_zero() for c in C.poset.covers)
    assert sigma.component("a").equal(identity_hom(free_group(1)))

    R = representable_diagram(pushout_poset(), "a")
    CR, _ = coker_functor(R)
    assert CR.groups["a"].is_isomorphic_to(free_group(1))
    assert CR.groups["b"].is_trivial and CR.groups["c"].is_trivial


def test_coker_prime_functor():
    F = intro_pushout()
    Cp, pi = coker_prime_functor(F)
    # at b the arrows in come from a and from the identity
    assert Cp.groups["b"].free_rank == 1
    assert Cp.groups["b"].invariant_factors == (2,)
    assert Cp.groups["a"].is_isomorphic_to(free_group(1))
    # pi projects onto the identity summand; composing with that
    # summand's inclusion gives the identity of Coker at b
    C, _ = coker_functor(F)
    keys = sorted(strictly_below(F.poset)["b"] + ["b"])
    pos = keys.index("b")
    rank_before = sum(C.groups[k].ambient_rank for k in keys[:pos])
    rank = C.groups["b"].ambient_rank
    sect = la.from_blocks(Cp.groups["b"].ambient_rank, rank, [(rank_before, 0, 1, la.eye(rank))])
    section = AbHom(C.groups["b"], Cp.groups["b"], sect)
    assert compose(pi.component("b"), section).equal(identity_hom(C.groups["b"]))
    # the transition re-indexes the a-keyed summand to the a-keyed slot
    h = Cp.hom("a", "b")
    assert h.matrix.shape == (2, 1)
    assert (int(h.matrix[0, 0]), int(h.matrix[1, 0])) == (1, 0)


def test_standard_diagrams():
    P = pushout_poset()
    R = representable_diagram(P, "a")
    assert all(R.groups[i].is_isomorphic_to(free_group(1)) for i in P.ids)
    assert R.hom("a", "b").matrix[0, 0] == 1
    Rb = representable_diagram(P, "b")
    assert Rb.groups["a"].is_trivial and Rb.groups["c"].is_trivial
    assert Rb.groups["b"].is_isomorphic_to(free_group(1))

    S = skyscraper_diagram(P, "b", cyclic_group(3))
    assert S.groups["b"].is_isomorphic_to(cyclic_group(3))
    assert S.groups["a"].is_trivial and S.groups["c"].is_trivial

    chainP = validate_graded([("a", 0), ("b", 1), ("c", 2)],
                             [("a", "b"), ("b", "c")])
    K = constant_diagram(chainP, cyclic_group(5))
    assert all(K.groups[i].is_isomorphic_to(cyclic_group(5)) for i in chainP.ids)
    assert K.hom("a", "c").equal(identity_hom(cyclic_group(5)))

    with pytest.raises(UnknownIdError):
        representable_diagram(P, "zz")


def test_adjunction_instance():
    F = intro_pushout()
    Q, _ = coker_at(F, "b")
    A = cyclic_group(2)
    h = AbHom(Q, A, [[1]])
    eta = check_adjunction_instance(F, "b", A, h)
    assert not eta.component("b").is_zero()
    assert eta.component("a").is_zero() and eta.component("c").is_zero()
    back = transformation_to_hom(F, "b", eta)
    assert back.equal(h)

    zero = AbHom(Q, A, [[0]])
    eta0 = check_adjunction_instance(F, "b", A, zero)
    assert eta0.is_zero()

    # a component that does not kill 2Z cannot be natural into the
    # skyscraper: the square over (a, b) fails
    sky = skyscraper_diagram(F.poset, "b", free_group(1))
    cand = {
        "a": zero_hom(F.groups["a"], sky.groups["a"]),
        "b": AbHom(F.groups["b"], free_group(1), [[1]]),
        "c": zero_hom(F.groups["c"], sky.groups["c"]),
    }
    with pytest.raises(NotNaturalError):
        NatTransformation(F, sky, cand)


def test_nat_transformation_validation():
    F = intro_pushout()
    C, sigma = coker_functor(F)
    assert sigma.component("b").source.same_presentation(F.groups["b"])
    with pytest.raises(MissingDataError):
        NatTransformation(F, C, {"a": sigma.component("a")})
    G = constant_diagram(F.poset, free_group(1))
    with pytest.raises(MismatchError):
        NatTransformation(
            F, constant_diagram(pushout_poset(), free_group(2)),
            {i: sigma.component(i) for i in F.poset.ids})
    del G


def test_direct_sum_diagrams():
    P = pushout_poset()
    Rb = representable_diagram(P, "b")
    Rc = representable_diagram(P, "c")
    total = direct_sum_diagrams([Rb, Rc])
    assert total.groups["a"].is_trivial
    assert total.groups["b"].is_isomorphic_to(free_group(1))
    with pytest.raises(MismatchError):
        direct_sum_diagrams([Rb, representable_diagram(square_poset(), "a")])


def test_image_and_kernel_localization_properties():
    # images localize to covers into an object, kernels to covers out of
    # it (killed by the first step means killed by the whole composite)
    rng = random.Random(11)
    P = validate_graded(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 2)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e")])
    for _ in range(12):
        F = random_torsion_sum_diagram(rng, P)
        for i in P.ids:
            assert same_subgroup(im_at(F, i), im_at_all_arrows(F, i))
            assert same_subgroup(ker_at(F, i), ker_at_all_arrows(F, i))


def test_sigma_and_pi_are_natural_on_random_diagrams():
    rng = random.Random(5)
    P = square_poset()
    for _ in range(8):
        F = random_torsion_sum_diagram(rng, P)
        C, sigma = coker_functor(F)        # construction re-verifies
        Cp, pi = coker_prime_functor(F)    # naturality in both calls
        for i in P.ids:
            assert sigma.component(i).target.same_presentation(C.groups[i])
            assert pi.component(i).source.same_presentation(Cp.groups[i])
