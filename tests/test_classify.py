import math
import random

import pytest

from posetlim import classify
from posetlim import intlinalg as la
from posetlim.abgroup import (
    AbHom,
    cyclic_group,
    free_group,
    hom_is_mono,
    trivial_group,
)
from posetlim.classify import (
    classify_diagram,
    is_injective,
    is_projective,
    is_pseudo_injective,
    is_pseudo_injective_at,
    is_pseudo_projective,
    is_pseudo_projective_at,
    telescope_projectivity_criterion,
)
from posetlim.derived import is_acyclic
from posetlim.diagram import (
    constant_diagram,
    direct_sum_diagrams,
    ker_at,
    representable_diagram,
    skyscraper_diagram,
    transpose_diagram,
    validate_functor,
)
from posetlim.errors import UnknownIdError
from posetlim.jsonio import parse_diagram, serialize_diagram
from posetlim.poset import opposite, validate_graded
from posetlim.randgen import DIAGRAM_MODES, GenConfig, gen_diagram, gen_poset

from helpers import (
    SHAPES,
    NatTransformation,
    below_set,
    crown_tower,
    enumerate_elements,
    free_cover,
    hexagon,
    identity_transformation,
    intro_pushout,
    oracle_theorem_b,
    projective_by_lifting,
    pushout_poset,
    random_forest_poset,
    random_free_forest_diagram,
    random_mixed_diagram,
    random_torsion_sum_diagram,
    shape,
    solve_lifting,
    times_two_pullback,
    up_set,
)


def chain_poset(n=2):
    ids = [chr(ord("a") + k) for k in range(n)]
    return validate_graded([(i, k) for k, i in enumerate(ids)],
                           [(ids[k], ids[k + 1]) for k in range(n - 1)])


def map_diagram(P, groups, maps):
    homs = {(p, q): AbHom(groups[p], groups[q], la.intmat(m))
            for (p, q), m in maps.items()}
    return validate_functor(P, groups, homs)


def red_diagram(n=6):
    P = chain_poset(2)
    return map_diagram(P, {"a": free_group(1), "b": cyclic_group(n)},
                       {("a", "b"): [[1]]})


def times_n_chain(n=7):
    P = chain_poset(2)
    return map_diagram(P, {"a": free_group(1), "b": free_group(1)},
                       {("a", "b"): [[n]]})


def zero_one_pushout():
    P = pushout_poset()
    groups = {"a": free_group(1), "b": trivial_group(), "c": free_group(1)}
    maps = {("a", "b"): AbHom(groups["a"], groups["b"], la.zeros(0, 1)),
            ("a", "c"): AbHom(groups["a"], groups["c"], la.intmat([[1]]))}
    return validate_functor(P, groups, maps)


def diamond_poset():
    return validate_graded([("a", 0), ("b", 1), ("c", 1), ("d", 2)],
                           [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def fan_poset(reverse=False):
    legs = ["p", "q", "r"]
    if reverse:
        objs = [("t", 0)] + [(x, 1) for x in legs]
        covers = [("t", x) for x in legs]
    else:
        objs = [(x, 0) for x in legs] + [("t", 1)]
        covers = [(x, "t") for x in legs]
    return validate_graded(objs, covers)


def test_intro_pushout_pseudo_projective_but_not_projective():
    F = intro_pushout()
    assert is_pseudo_projective_at(F, "b", 1).ok
    assert is_pseudo_projective(F).ok
    verdict = is_projective(F)
    assert not verdict.ok
    assert "'b'" in verdict.reason and "not free" in verdict.reason
    report = classify_diagram(F)
    assert report.colim_acyclic
    assert all(report.consistency.values())
    assert report.cokernels["b"].invariant_factors == (2,)


def test_red_map_witness_and_mono_specialization():
    F = red_diagram(6)
    v = is_pseudo_projective_at(F, "b", 1)
    assert not v.ok
    assert v.witness.i0 == "b" and v.witness.d == 1
    assert v.witness.components == (("a", (6,)),)
    assert v.witness.outside == ("a",)
    overall = is_pseudo_projective(F)
    assert not overall.ok and overall.witness.i0 == "b"
    # single incoming arrow with trivial image at the source: the
    # verdict specializes to that arrow being a monomorphism
    assert v.ok == hom_is_mono(F.hom("a", "b"))
    p = is_projective(F)
    assert not p.ok and "pseudo-projective" in p.reason


def test_times_n_chain_mono_specialization_and_theorem_b():
    F = times_n_chain(7)
    v = is_pseudo_projective_at(F, "b", 1)
    assert v.ok == hom_is_mono(F.hom("a", "b")) == True
    assert not is_projective(F).ok
    verdict = oracle_theorem_b(F)
    assert verdict.pseudo_projective and verdict.colim_acyclic
    assert verdict.consistent


def test_zero_one_pushout_witness():
    F = zero_one_pushout()
    v = is_pseudo_projective_at(F, "b", 1)
    assert not v.ok
    assert v.witness.components == (("a", (1,)),)
    assert v.witness.outside == ("a",)
    # acyclic without being pseudo-projective: the implication is one-way
    verdict = oracle_theorem_b(F)
    assert not verdict.pseudo_projective and verdict.colim_acyclic


def test_pullback_pseudo_injectivity_failure():
    G = times_two_pullback()
    v = is_pseudo_injective_at(G, "b", 1)
    assert not v.ok
    assert v.witness.components == (("a", (1,)),)
    assert not is_pseudo_injective(G).ok
    verdict = oracle_theorem_b(G)
    assert not verdict.pseudo_injective and not verdict.lim_acyclic


def test_constant_mod_p_chain():
    P = chain_poset(3)
    F = constant_diagram(P, cyclic_group(5))
    assert is_pseudo_injective(F).ok
    assert is_pseudo_projective(F).ok
    inj = is_injective(F)
    assert not inj.ok and "'c'" in inj.reason
    report = classify_diagram(F)
    assert report.colim_acyclic and report.lim_acyclic
    assert report.pseudo_injective.ok
    assert report.kernels["c"].invariant_factors == (5,)
    assert report.kernels["a"].is_trivial


def test_skyscraper_and_zero_diagram():
    P = chain_poset(3)
    S = skyscraper_diagram(P, "a", free_group(1))
    inj = is_injective(S)
    assert not inj.ok and "'a'" in inj.reason
    Z = constant_diagram(P, trivial_group())
    assert is_injective(Z).ok
    assert is_projective(Z).ok
    assert projective_by_lifting(Z)


def test_representable_is_projective():
    P = diamond_poset()
    R = representable_diagram(P, "a")
    assert is_projective(R).ok
    assert projective_by_lifting(R)
    assert not is_injective(R).ok
    report = classify_diagram(R)
    assert all(report.consistency.values())


def test_argument_validation():
    F = intro_pushout()
    with pytest.raises(ValueError):
        is_pseudo_projective_at(F, "b", 0)
    with pytest.raises(ValueError):
        is_pseudo_injective_at(F, "b", -1)
    with pytest.raises(UnknownIdError):
        is_pseudo_projective_at(F, "zz", 1)


def test_lifting_through_direct_sum_projection():
    P = diamond_poset()
    F = direct_sum_diagrams([representable_diagram(P, "a"),
                             representable_diagram(P, "b")])
    G = constant_diagram(P, cyclic_group(3))
    A = direct_sum_diagrams([F, G])
    # F is the first summand of A, at offset 0 of every value
    first = {i: la.from_blocks(F.groups[i].ambient_rank, A.groups[i].ambient_rank,
                               [(0, 0, 1, la.eye(F.groups[i].ambient_rank))]) for i in P.ids}
    proj = NatTransformation(A, F, {i: AbHom(A.groups[i], F.groups[i], first[i])
                                    for i in P.ids})
    inc = NatTransformation(F, A, {i: AbHom(F.groups[i], A.groups[i], first[i].T)
                                   for i in P.ids})
    rho = solve_lifting(proj, identity_transformation(F))
    assert rho is not None
    assert rho.source is F and rho.target is A
    # an inclusion is not an epimorphism, so lifting against it is refused
    with pytest.raises(ValueError):
        solve_lifting(inc, identity_transformation(F))


def test_projective_iff_free_cover_retracts():
    cases = [
        intro_pushout(),           # pseudo-projective, torsion cokernel
        red_diagram(4),            # fails pseudo-projectivity
        times_n_chain(3),          # free values, torsion cokernel
        zero_one_pushout(),
        representable_diagram(diamond_poset(), "b"),
    ]
    rng = random.Random(20260816)
    P5 = validate_graded(
        [("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 2)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e")])
    for _ in range(3):
        cases.append(random_torsion_sum_diagram(rng, P5, parts_range=(2, 3)))
    for _ in range(3):
        Q = random_forest_poset(rng, max_objects=5)
        cases.append(random_free_forest_diagram(rng, Q, max_rank=2))
    for F in cases:
        assert projective_by_lifting(F) == is_projective(F).ok


def test_chain_criterion_agrees_with_both_projectivity_routes():
    """On seeded chains of 2 to 4 objects, the closed-form chain
    criterion, is_projective and the free-cover retraction agree."""
    rng = random.Random(7070)
    counts = {True: 0, False: 0}
    for _ in range(300):
        P = chain_poset(rng.randrange(2, 5))
        F = random_mixed_diagram(rng, P)
        verdict = is_projective(F).ok
        assert telescope_projectivity_criterion(P, F) == verdict
        assert projective_by_lifting(F) == verdict
        counts[verdict] += 1
    assert counts[True] >= 60 and counts[False] >= 60, counts


def test_free_cover_counit_is_epi_and_natural():
    F = intro_pushout()
    A, counit = free_cover(F)
    assert counit.source is A and counit.target is F
    # ranks: one representable per ambient generator
    assert A.groups["a"].free_rank == 1
    assert A.groups["b"].free_rank == 2


def test_theorem_b_battery():
    rng = random.Random(7)
    P = diamond_poset()
    for _ in range(6):
        F = random_torsion_sum_diagram(rng, P, parts_range=(2, 4))
        verdict = oracle_theorem_b(F)
        assert verdict.colim_acyclic == bool(is_acyclic(F, "colim"))
        assert verdict.lim_acyclic == bool(is_acyclic(F, "lim"))
    for _ in range(4):
        Q = random_forest_poset(rng, max_objects=6)
        F = random_free_forest_diagram(rng, Q, max_rank=2)
        oracle_theorem_b(F)


def random_fan_diagram(rng, reverse=False):
    P = fan_poset(reverse)
    orders = {i: rng.choice([2, 4, 8]) for i in P.ids}
    groups = {i: cyclic_group(orders[i]) for i in P.ids}
    maps = {}
    for p, q in P.covers:
        g = math.gcd(orders[p], orders[q])
        maps[(p, q)] = [[orders[q] // g * rng.randrange(0, g)]]
    return map_diagram(P, groups, maps)


def subsets(items):
    out = []
    for mask in range(1, 1 << len(items)):
        out.append([x for k, x in enumerate(items) if mask >> k & 1])
    return out


def brute_pseudo_projective(F, i0, sources):
    from posetlim.abgroup import direct_sum
    from posetlim.diagram import im_at
    ds = direct_sum([F.groups[i] for i in sources])
    elements = enumerate_elements(ds.group)
    assert elements is not None, "test instances must stay enumerable"
    phi = la.hstack([F.hom(i, i0).matrix for i in sources])
    G0 = F.groups[i0]
    ims = {i: im_at(F, i) for i in sources}
    for x in elements:
        y = phi @ la.intmat([[v] for v in x])
        if not G0.element_is_zero(y[:, 0]):
            continue
        for k, i in enumerate(sources):
            off = ds.offsets[k]
            comp = x[off:off + F.groups[i].ambient_rank]
            if not ims[i].contains_element(comp):
                return False
    return True


def brute_pseudo_injective(F, i0, targets):
    from posetlim.abgroup import Subgroup, direct_sum
    from posetlim.diagram import ker_at
    ds = direct_sum([F.groups[t] for t in targets])
    elements = enumerate_elements(ds.group)
    assert elements is not None
    psi = la.from_blocks(ds.group.ambient_rank, F.groups[i0].ambient_rank,
                         [(off, 0, 1, F.hom(i0, t).matrix)
                          for off, t in zip(ds.offsets, targets)])
    image = Subgroup(ds.group, psi)
    kers = {t: ker_at(F, t) for t in targets}
    for x in elements:
        in_joint_kernel = all(
            kers[t].contains_element(
                x[ds.offsets[k]:ds.offsets[k] + F.groups[t].ambient_rank])
            for k, t in enumerate(targets))
        if in_joint_kernel and not image.contains_element(x):
            return False
    return True


def test_subset_sufficiency_brute_force():
    """The full-family verdict implies every sub-family verdict, checked
    by enumerating elements of small finite instances."""
    rng = random.Random(99)
    legs = ["p", "q", "r"]
    for _ in range(8):
        F = random_fan_diagram(rng)
        full_lattice = is_pseudo_projective_at(F, "t", 1).ok
        assert full_lattice == brute_pseudo_projective(F, "t", legs)
        if full_lattice:
            for sub in subsets(legs):
                assert brute_pseudo_projective(F, "t", sorted(sub))
    for _ in range(8):
        F = random_fan_diagram(rng, reverse=True)
        full_lattice = is_pseudo_injective_at(F, "t", 1).ok
        assert full_lattice == brute_pseudo_injective(F, "t", legs)
        if full_lattice:
            for sub in subsets(legs):
                assert brute_pseudo_injective(F, "t", sorted(sub))


def test_report_covers_every_pair():
    F = intro_pushout()
    report = classify_diagram(F)
    assert report.pseudo_projective == is_pseudo_projective(F)
    assert report.pseudo_injective == is_pseudo_injective(F)
    assert set(report.cokernels) == set(report.kernels) == {"a", "b", "c"}


def test_degree_d_arrows_are_read_from_one_layer():
    """The sources and targets of the degree-d arrows at i0, each read from
    the one degree layer d away, are those of a scan of all of i0's down-
    and up-set, in the same order."""
    posets = [shape(name) for name in SHAPES] + [crown_tower(3), hexagon(), pushout_poset()]
    posets += [gen_poset(GenConfig(seed=seed, family=family))
               for seed in range(41) for family in ("forest", "layered")]
    for P in posets:
        assert sorted(i for ids in P.layers.values() for i in ids) == P.ids
        assert all(ids == sorted(ids) for ids in P.layers.values())
        below = below_set(P)
        for i0 in P.ids:
            for d in range(1, P.dimension + 1):
                assert P.below_among(i0, P.layers.get(P.degree[i0] - d, ())) == sorted(
                    i for i in below[i0] if P.degree[i0] - P.degree[i] == d)
                assert P.above_among(i0, P.layers.get(P.degree[i0] + d, ())) == sorted(
                    i for i in up_set(P, i0) if P.degree[i] - P.degree[i0] == d)


def test_classify_diagram_verdicts_match_the_public_checks():
    """classify_diagram derives projective/injective from the groups and
    pseudo verdicts it already holds; they must equal what is_projective
    and is_injective compute on their own, reason strings included."""
    kinds = set()
    for mode in DIAGRAM_MODES:
        forest_only = mode == "free_maps_on_forest"
        for k in range(12):
            family = "forest" if forest_only or k % 2 == 0 else "layered"
            cfg = GenConfig(seed=500 + k, family=family, max_objects=5)
            P = gen_poset(cfg)
            if k % 4 >= 2 and not forest_only:
                P = opposite(P)
            F = gen_diagram(cfg, P, mode)
            diagrams = [F, constant_diagram(P, trivial_group())]
            if mode == "pseudo_projective_by_construction":
                diagrams.append(transpose_diagram(F))
            for G in diagrams:
                rep = classify_diagram(G)
                assert rep.projective == is_projective(G)
                assert rep.injective == is_injective(G)
                for side, v in (("projective", rep.projective), ("injective", rep.injective)):
                    kinds.add((side, "ok" if v.ok else v.reason.split()[0]))
    # a nonzero diagram has a nonzero kernel at some maximal object, so
    # the injective side fails its group check before the pseudo check
    assert kinds == {("projective", "ok"), ("projective", "cokernel"),
                     ("projective", "not"), ("injective", "ok"), ("injective", "kernel")}


def test_classify_stops_each_pseudo_side_at_its_first_failure(monkeypatch):
    """classify_diagram computes the (object, d) verdicts of each side in
    order, d outermost, up to the first failing one and no further."""
    cases = []
    for k in range(12):
        cfg = GenConfig(seed=700 + k, family="forest" if k % 2 == 0 else "layered",
                        max_objects=8)
        P = gen_poset(cfg)
        F = gen_diagram(cfg, P, "sums_of_standard")
        pairs = [(i0, d) for d in range(1, P.dimension + 1) for i0 in P.ids]
        want = []
        for at in (is_pseudo_projective_at, is_pseudo_injective_at):
            fails = [j for j, (i0, d) in enumerate(pairs) if not at(F, i0, d)]
            want.append(fails[0] + 1 if fails else len(pairs))
        cases.append((F, want, len(pairs)))
    counts = {}

    def counting(name, real):
        def counted(*a):
            counts[name] += 1
            return real(*a)
        return counted
    for name in ("is_pseudo_projective_at", "is_pseudo_injective_at"):
        monkeypatch.setattr(classify, name, counting(name, getattr(classify, name)))
    stopped = 0
    for F, want, n_pairs in cases:
        counts.update(is_pseudo_projective_at=0, is_pseudo_injective_at=0)
        classify_diagram(F)
        assert [counts["is_pseudo_projective_at"], counts["is_pseudo_injective_at"]] == want
        stopped += sum(n_pairs - w for w in want)
    assert stopped > 0


def test_classify_builds_each_joint_kernel_once(monkeypatch):
    """ker_at is kept per object and starts from the kernel of the first
    cover out of it, so a whole classification intersects one kernel
    lattice per cover beyond each object's first, however many (object, d)
    verdicts read each joint kernel."""
    cfg = GenConfig(seed=17, family="forest", max_objects=14, max_degree_span=4)
    P0 = gen_poset(cfg)
    P, F = parse_diagram(serialize_diagram(gen_diagram(cfg, P0, "sums_of_standard")))
    pairs = sum(len(up_set(P, i)) for i in P.ids)
    assert P.dimension == 4 and pairs == 22 and len(P.covers) == 10
    calls = []
    real = la.intersect_lattices

    def counted(A, B):
        calls.append(1)
        return real(A, B)
    monkeypatch.setattr(la, "intersect_lattices", counted)
    rep = classify_diagram(F)
    assert len(calls) == sum(len(P.covers_out[i]) - 1 for i in P.ids if P.covers_out[i]) == 2
    assert all(rep.kernels[i] is ker_at(F, i).as_group[0] for i in P.ids)
