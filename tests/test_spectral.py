import random

import pytest

from posetlim import derived
from posetlim import intlinalg as la
from posetlim.abgroup import AbHom, cyclic_group, direct_sum, free_group
from posetlim.derived import ChainComplex, chain_complex, cochain_complex, derived_functor
from posetlim.diagram import constant_diagram, skyscraper_diagram, validate_functor
from posetlim.errors import (
    ConvergenceViolation,
    MismatchError,
    OracleViolation,
    VariantMismatchError,
)
from posetlim.poset import opposite, validate_graded
from posetlim.randgen import GenConfig, gen_diagram, gen_poset
from posetlim.spectral import (
    TABLE_VARIANTS,
    FilteredComplex,
    Variant,
    _restrict_to_level,
    build_filtered,
    convergence_check,
    e_infinity,
    inner_column_ss,
    oracle_page_one,
    oracle_page_recurrence,
    page,
    variant_by_name,
)

from helpers import (
    intro_pushout,
    pushout_poset,
    random_forest_poset,
    random_free_forest_diagram,
    random_torsion_sum_diagram,
    times_two_pullback,
)


CHAIN_LAST_INC = Variant("chain", "last", "increasing")


def decreasing_pushout():
    """The intro pushout with degrees displayed downward."""
    P = validate_graded([("a", 1), ("b", 0), ("c", 0)],
                        [("a", "b"), ("a", "c")], direction="decreasing")
    Z = free_group(1)
    two = AbHom(Z, Z, [[2]])
    return validate_functor(P, {"a": Z, "b": Z, "c": Z},
                            {("a", "b"): two, ("a", "c"): two})


def decreasing_torsion_chain():
    P = validate_graded([("a", 2), ("b", 1), ("c", 0)],
                        [("a", "b"), ("b", "c")], direction="decreasing")
    groups = {"a": cyclic_group(4), "b": cyclic_group(2), "c": cyclic_group(2)}
    return validate_functor(
        P, groups,
        {("a", "b"): AbHom(groups["a"], groups["b"], [[1]]),
         ("b", "c"): AbHom(groups["b"], groups["c"], [[1]])})


def entries_by_factors(pg):
    return {k: (g.free_rank, g.invariant_factors) for k, g in pg.entries.items()}


def test_variant_table_shape():
    assert len(TABLE_VARIANTS) == 8
    assert len({v.name for v in TABLE_VARIANTS}) == 8
    for v in TABLE_VARIANTS:
        # the complementary filtration swaps the key vertex and the
        # inequality, hence also the homological/cohomological type
        assert v.second.key != v.key
        assert v.second.condition != v.condition
        assert v.second.type != v.type
        assert v.second.second == v
        assert (v.type == "cohomological") == (v.condition == ">=")
        assert variant_by_name(v.name) == v
    with pytest.raises(ValueError):
        Variant("chain", "middle", "increasing")
    with pytest.raises(ValueError):
        variant_by_name("simplicial:sigma_n:increasing")


def test_filtration_indices_by_last_vertex():
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    got = {(n, c.vertices): p for (n, c), p in X.filtration_index.items()}
    assert got == {
        (0, ("a",)): 0, (0, ("b",)): 1, (0, ("c",)): 1,
        (1, ("a", "b")): 1, (1, ("a", "c")): 1,
    }


def test_filtration_indices_by_first_vertex():
    F = intro_pushout()
    X = build_filtered(F.poset, F, Variant("chain", "first", "increasing"))
    got = {(n, c.vertices): p for (n, c), p in X.filtration_index.items()}
    assert got == {
        (0, ("a",)): 0, (0, ("b",)): 1, (0, ("c",)): 1,
        (1, ("a", "b")): 0, (1, ("a", "c")): 0,
    }


def test_single_object_filtration():
    P = validate_graded([("x", 5)], [])
    F = constant_diagram(P, cyclic_group(4))
    X = build_filtered(P, F, CHAIN_LAST_INC)
    assert list(X.filtration_index.values()) == [5]


def test_variant_direction_mismatch():
    F = intro_pushout()
    with pytest.raises(VariantMismatchError):
        build_filtered(F.poset, F, Variant("chain", "last", "decreasing"))


def test_poset_diagram_mismatch():
    F = intro_pushout()
    other = validate_graded([("b", 0), ("c", 0), ("a", 1)],
                            [("b", "a"), ("c", "a")])
    with pytest.raises(MismatchError):
        build_filtered(other, F, CHAIN_LAST_INC)


def test_page_zero_is_associated_graded():
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    pg = page(X, 0)
    assert entries_by_factors(pg) == {
        (0, 0): (1, ()),    # the single chain (a)
        (1, -1): (2, ()),   # (b), (c)
        (1, 0): (2, ()),    # (a,b), (a,c)
    }
    # blockwise: each page-0 entry is the direct sum of its level's blocks
    for (s, n), E in pg.sn_entries.items():
        groups = [X.base.sums[n].summands[j]
                  for j, lv in enumerate(X._levels[n]) if lv == s]
        assert E.is_isomorphic_to(direct_sum(groups).group)


def test_page_one_pushout():
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    pg = page(X, 1)
    assert pg.type == "homological"
    assert pg.bidegree == (-1, 0)
    assert entries_by_factors(pg) == {
        (0, 0): (1, ()),
        (1, -1): (0, (2, 2)),
    }


def test_page_rejects_negative_r():
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    with pytest.raises(ValueError):
        page(X, -1)


def test_pages_refuse_d_squared_nonzero_inside_one_level():
    # on a < b < c with constant Z, d(bc) = c - b gets an extra c; every
    # level (the last vertex's) is kept, but d(d(abc)) = c inside level 2
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    base = chain_complex(constant_diagram(P, free_group(1)))
    assert page(FilteredComplex(base, CHAIN_LAST_INC, P), 0).entries
    d = base._diffs[1]
    row = base.block_offset(0, [c.vertices for c in base.blocks[0]].index(("c",)))
    col = base.block_offset(1, [c.vertices for c in base.blocks[1]].index(("b", "c")))
    diffs = dict(base._diffs)
    diffs[1] = AbHom(d.source, d.target,
                     d.matrix + la.from_blocks(*d.matrix.shape, [(row, col, 1, la.eye(1))]),
                     check=False)
    bad = ChainComplex(base.orientation, base.blocks, base.sums, diffs,
                       base.top, base.vanishes_above_top)
    X = FilteredComplex(bad, CHAIN_LAST_INC, P)
    with pytest.raises(OracleViolation, match="d o d is nonzero"):
        page(X, 0)
    # the same check guards the associated-graded piece at that level
    with pytest.raises(OracleViolation, match="d o d is nonzero"):
        _restrict_to_level(X, 2)


def test_e_infinity_pushout():
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    stable = e_infinity(X)
    assert stable.r == 3  # degree span 1, plus 2
    assert entries_by_factors(stable) == {
        (0, 0): (1, ()),
        (1, -1): (0, (2, 2)),
    }


def test_e_infinity_single_object_stable_at_one():
    P = validate_graded([("x", 5)], [])
    F = constant_diagram(P, cyclic_group(4))
    X = build_filtered(P, F, CHAIN_LAST_INC)
    stable = e_infinity(X)
    assert stable.r == 2
    assert entries_by_factors(stable) == {(5, -5): (0, (4,))}
    # already stable at page 1
    assert entries_by_factors(page(X, 1)) == entries_by_factors(stable)


def test_collapse_beyond_dimension():
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)],
                        [("a", "b"), ("b", "c")])
    Z = free_group(1)
    F = validate_functor(
        P, {i: Z for i in P.ids},
        {("a", "b"): AbHom(Z, Z, [[2]]), ("b", "c"): AbHom(Z, Z, [[3]])})
    X = build_filtered(P, F, CHAIN_LAST_INC)
    assert e_infinity(X).r == 4
    late = page(X, P.dimension + 2)
    later = page(X, P.dimension + 3)
    assert entries_by_factors(late) == entries_by_factors(later)


def test_convergence_pushout_ranks():
    F = intro_pushout()
    report = convergence_check(F.poset, F, CHAIN_LAST_INC)
    assert report.ok
    c0 = report.by_degree[0]
    # colim_0 = Z + Z/2: rank matches; the target is infinite so the
    # order comparison does not apply
    assert (c0.rank_ss, c0.rank_target, c0.orders_compared) == (1, 1, False)
    c1 = report.by_degree[1]
    assert (c1.rank_ss, c1.rank_target, c1.order_ss, c1.order_target) == (0, 0, 1, 1)


def test_convergence_orders_multiply_for_lim():
    P = validate_graded([("a", 0), ("b", 1)], [("a", "b")])
    F = constant_diagram(P, cyclic_group(5))
    for v in TABLE_VARIANTS:
        if v.direction != "increasing" or v.complex != "cochain":
            continue
        report = convergence_check(P, F, v)
        c0 = report.by_degree[0]
        assert c0.orders_compared and c0.order_ss == c0.order_target == 5
        c1 = report.by_degree[1]
        assert c1.orders_compared and c1.order_ss == 1


def test_convergence_orders_in_positive_degree():
    # lim_1 of the times-two pullback is Z/2, so the stable page must
    # carry exactly that order in total degree 1
    F = times_two_pullback()
    assert derived_functor(F, "lim", 1).invariant_factors == (2,)
    for v in TABLE_VARIANTS:
        if v.direction != "increasing" or v.complex != "cochain":
            continue
        report = convergence_check(F.poset, F, v)
        c1 = report.by_degree[1]
        assert c1.orders_compared and c1.order_ss == c1.order_target == 2


def test_inner_column_pushout_p1():
    F = intro_pushout()
    pages = inner_column_ss(F.poset, F, 1, CHAIN_LAST_INC)
    # page 1 splits the level-1 blocks by starting degree: (a,b),(a,c)
    # begin at 0, (b),(c) begin at 1
    assert entries_by_factors(pages[1]) == {
        (0, -1): (2, ()),
        (1, -1): (2, ()),
    }
    assert entries_by_factors(pages[-1]) == {(1, -1): (0, (2, 2))}


def test_inner_column_pushout_p0():
    F = intro_pushout()
    pages = inner_column_ss(F.poset, F, 0, CHAIN_LAST_INC)
    # at the minimum degree both key vertices coincide, so everything
    # sits in one column
    assert entries_by_factors(pages[-1]) == {(0, 0): (1, ())}


def test_inner_column_skyscraper():
    P = pushout_poset()
    F = skyscraper_diagram(P, "b", free_group(1))
    stable1 = inner_column_ss(P, F, 1, CHAIN_LAST_INC)[-1]
    assert entries_by_factors(stable1) == {(1, -1): (1, ())}
    stable0 = inner_column_ss(P, F, 0, CHAIN_LAST_INC)[-1]
    assert entries_by_factors(stable0) == {}


def test_inner_column_range_check():
    F = intro_pushout()
    with pytest.raises(ValueError):
        inner_column_ss(F.poset, F, 7, CHAIN_LAST_INC)


def _realized_bidegrees_match(pg):
    where = {id(g): k for k, g in pg.entries.items()}
    for (p, q), h in pg.differentials.items():
        if h.is_zero():
            continue
        tgt = where.get(id(h.target))
        assert tgt is not None
        assert (tgt[0] - p, tgt[1] - q) == pg.bidegree


def _full_battery(F, seen):
    P = F.poset
    for v in TABLE_VARIANTS:
        if v.direction != P.direction:
            continue
        seen.add(v.name)
        report = convergence_check(P, F, v)
        assert report.ok
        X = build_filtered(P, F, v)
        oracle_page_one(X)
        oracle_page_recurrence(X)
        for r in range(3):
            _realized_bidegrees_match(page(X, r))


def test_all_variants_battery():
    rng = random.Random(20260816)
    instances = [
        intro_pushout(),
        times_two_pullback(),
        decreasing_pushout(),
        decreasing_torsion_chain(),
        random_torsion_sum_diagram(rng, pushout_poset()),
    ]
    for _ in range(2):
        P = random_forest_poset(rng, max_objects=5)
        instances.append(random_free_forest_diagram(rng, P))
        instances.append(random_torsion_sum_diagram(rng, P))
    seen = set()
    for F in instances:
        _full_battery(F, seen)
    # both directions exercised, so all eight presets ran
    assert seen == {v.name for v in TABLE_VARIANTS}


# ---------------------------------------------------------------- caches

def _seeded_diagrams(count=4):
    """Forest and layered sums_of_standard diagrams; every other pair sits
    on the opposite poset, so the first four cover all eight variants."""
    for k in range(count):
        cfg = GenConfig(seed=4100 + k, family="forest" if k % 2 == 0 else "layered",
                        max_objects=5)
        P = gen_poset(cfg)
        if k % 4 >= 2:
            P = opposite(P)
        yield P, gen_diagram(cfg, P, "sums_of_standard")


def _assert_same_page(got, want):
    assert (got.r, got.type, got.bidegree) == (want.r, want.type, want.bidegree)
    assert set(got.entries) == set(want.entries)
    assert set(got.sn_entries) == set(want.sn_entries)
    for k, g in want.sn_entries.items():
        h = got.sn_entries[k]
        assert (h.free_rank, h.invariant_factors) == (g.free_rank, g.invariant_factors)
    assert set(got.sn_diffs) == set(want.sn_diffs)
    for k, d in want.sn_diffs.items():
        assert got.sn_diffs[k].matrix == d.matrix


def test_cached_pages_match_fresh_filtered_complexes():
    seen = set()
    for P, F in _seeded_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.name)
            X = build_filtered(P, F, v)
            e_infinity(X)
            base = chain_complex(F) if v.complex == "chain" else cochain_complex(F)
            fresh = FilteredComplex(base, v, P)
            for r in range(X.span + 4):
                _assert_same_page(page(X, r), page(fresh, r))
    assert seen == {v.name for v in TABLE_VARIANTS}


def test_pages_and_filtered_complexes_are_shared():
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    assert build_filtered(F.poset, F, CHAIN_LAST_INC) is X
    assert build_filtered(F.poset, F, CHAIN_LAST_INC.second) is not X
    assert page(X, 1) is page(X, 1)
    assert page(X, 1) is not page(X, 2)
    assert e_infinity(X) is page(X, X.span + 2)
    with pytest.raises(AttributeError):
        page(X, 1).r = 5


def test_convergence_after_build_filtered_reuses_the_nerve(monkeypatch):
    builds = []
    for name in ("chain_complex", "cochain_complex"):
        def counted(*a, _real=getattr(derived, name), **k):
            builds.append(1)
            return _real(*a, **k)
        monkeypatch.setattr(derived, name, counted)
    for P, F in _seeded_diagrams():
        v = next(v for v in TABLE_VARIANTS if v.direction == P.direction)
        X = build_filtered(P, F, v)
        stable = e_infinity(X)
        before = len(builds)
        assert convergence_check(P, F, v).ok
        oracle_page_recurrence(X)
        assert len(builds) == before
        assert build_filtered(P, F, v) is X
        assert e_infinity(X) is stable
    assert len(builds) == 4


def test_shifted_grading_gets_its_own_filtered_complex():
    F = intro_pushout()
    shifted = validate_graded([("a", 1), ("b", 2), ("c", 2)], [("a", "b"), ("a", "c")])
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    Y = build_filtered(shifted, F, CHAIN_LAST_INC)
    assert Y is not X
    assert (Y.min_degree, Y.max_degree) == (X.min_degree + 1, X.max_degree + 1)
    assert build_filtered(shifted, F, CHAIN_LAST_INC) is Y
    for r in range(X.span + 3):
        keys, shifted_keys = set(page(X, r).entries), set(page(Y, r).entries)
        assert keys and shifted_keys != keys
        assert shifted_keys == {(p + 1, q - 1) for p, q in keys}


def test_build_filtered_checks_on_a_cache_hit():
    F = intro_pushout()
    build_filtered(F.poset, F, CHAIN_LAST_INC)
    fewer_covers = validate_graded([("a", 0), ("b", 1), ("c", 1)], [("a", "b")])
    with pytest.raises(MismatchError):
        build_filtered(fewer_covers, F, CHAIN_LAST_INC)
    with pytest.raises(VariantMismatchError):
        build_filtered(F.poset, F, Variant("chain", "last", "decreasing"))


def _block_of(X, n, coord):
    """The block of C_n holding coordinate coord, by a linear scan."""
    for j, w in enumerate(X._block_widths(n)):
        if X.base.block_offset(n, j) <= coord < X.base.block_offset(n, j) + w:
            return j
    raise AssertionError(f"coordinate {coord} of C_{n} is in no block")


def _raises_level(X, diffs):
    """Some nonzero entry of diffs maps a block to a higher level."""
    for n, d in diffs.items():
        m = n + X.step
        for i, row in enumerate(d.matrix.tolist()):
            for c, x in enumerate(row):
                if x and X._levels[m][_block_of(X, m, i)] > X._levels[n][_block_of(X, n, c)]:
                    return True
    return False


def _filtered_cases(count=8):
    for P, F in _seeded_diagrams(count):
        for v in TABLE_VARIANTS:
            if v.direction == P.direction:
                yield build_filtered(P, F, v)


def test_level_check_agrees_with_a_blockwise_scan():
    # an entry added at a random place in a differential raises the level
    # or not; the check must refuse exactly the complexes that do
    rng = random.Random(4321)
    seen = {True: 0, False: 0}
    for X in _filtered_cases():
        base = X.base
        assert not _raises_level(X, base._diffs)
        for n, d in base._diffs.items():
            h, w = d.matrix.shape
            if not h or not w:
                continue
            for _ in range(4):
                bump = la.from_blocks(h, w, [(rng.randrange(h), rng.randrange(w),
                                              rng.choice([1, -1, 2]), la.eye(1))])
                diffs = dict(base._diffs)
                diffs[n] = AbHom(d.source, d.target, d.matrix + bump, check=False)
                bad = ChainComplex(base.orientation, base.blocks, base.sums, diffs,
                                   base.top, base.vanishes_above_top)
                want = _raises_level(X, diffs)
                try:
                    FilteredComplex(bad, X.variant, X.poset)
                    got = False
                except OracleViolation:
                    got = True
                assert got == want
                seen[want] += 1
    assert seen[True] and seen[False]


def test_graded_pieces_are_the_diagonal_blocks():
    for X in _filtered_cases(4):
        for s in range(X.span + 1):
            graded = _restrict_to_level(X, s)
            for n, d in X.base._diffs.items():
                m = n + X.step
                rows = d.matrix.tolist()
                keep_rows = [i for i in range(d.matrix.shape[0])
                             if X._levels[m][_block_of(X, m, i)] == s]
                keep_cols = [c for c in range(d.matrix.shape[1])
                             if X._levels[n][_block_of(X, n, c)] == s]
                want = [[rows[i][c] for c in keep_cols] for i in keep_rows]
                got = graded._diffs[n].matrix
                assert got.shape == (len(keep_rows), len(keep_cols))
                assert got.tolist() == want
