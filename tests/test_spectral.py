import gc
import random
import re
import sys
import time
import weakref

import pytest

from posetlim import derived, poset, spectral
from posetlim import intlinalg as la
from posetlim.abgroup import AbHom, cyclic_group, direct_sum, free_group, group_from_invariants
from posetlim.classify import classify_diagram
from posetlim.derived import ChainComplex, check_euler_characteristic, derived_functor
from posetlim.diagram import constant_diagram, skyscraper_diagram, validate_functor
from posetlim.errors import (
    ChainBudgetError,
    ConvergenceViolation,
    FamilyMismatchError,
    MismatchError,
    OracleViolation,
    VariantMismatchError,
)
from posetlim.jsonio import parse_diagram
from posetlim.poset import opposite, validate_graded
from posetlim.randgen import DIAGRAM_MODES, POSET_FAMILIES, GenConfig, gen_diagram, gen_poset
from posetlim.spectral import (
    TABLE_VARIANTS,
    FilteredComplex,
    SSPage,
    Variant,
    _compare_totals,
    _public_key,
    _subquotient_page,
    _total,
    build_filtered,
    convergence_check,
    e_infinity,
    oracle_page_one,
    oracle_page_recurrence,
    page,
    variant_by_name,
)

from helpers import (
    DIAGRAM_STATE,
    KEPT_TAGS,
    POSET_STATE,
    block_levels,
    bundled_diagrams,
    canonical_entries,
    chain_complex,
    cochain_complex,
    grid,
    inner_column_ss,
    intro_pushout,
    kept_poset_state,
    pushout_poset,
    random_forest_poset,
    random_free_forest_diagram,
    random_torsion_sum_diagram,
    reference_cycles,
    reference_page_entries,
    refiltered,
    restrict_to_level,
    same_lattice,
    shape,
    times_two_pullback,
    z2_square,
)
from record_golden import deep_chain_document


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


def _block_levels(X):
    """{(degree, chain): canonical level} over X's base blocks."""
    return {(n, c): lv for n, lvs in block_levels(X).items()
            for c, lv in zip(X.base.blocks[n], lvs)}


def test_filtration_indices_by_last_vertex():
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    # "<=" on degrees 0..1: the level is the last vertex's degree
    assert _block_levels(X) == {
        (0, ("a",)): 0, (0, ("b",)): 1, (0, ("c",)): 1,
        (1, ("a", "b")): 1, (1, ("a", "c")): 1,
    }


def test_filtration_indices_by_first_vertex():
    F = intro_pushout()
    v = Variant("chain", "first", "increasing")
    X = FilteredComplex(chain_complex(F), v, F.poset)
    # ">=" on degrees 0..1: the level is 1 less the first vertex's degree
    assert _block_levels(X) == {
        (0, ("a",)): 1, (0, ("b",)): 0, (0, ("c",)): 0,
        (1, ("a", "b")): 1, (1, ("a", "c")): 1,
    }
    # the carrier matching pairs (a) with (a, b); the critical chains keep
    # their levels
    reduced = build_filtered(F.poset, F, v)
    assert _block_levels(reduced) == {
        (0, ("b",)): 0, (0, ("c",)): 0, (1, ("a", "c")): 1,
    }


def test_single_object_filtration():
    P = validate_graded([("x", 5)], [])
    F = constant_diagram(P, cyclic_group(4))
    X = build_filtered(P, F, CHAIN_LAST_INC)
    assert _block_levels(X) == {(0, ("x",)): 0}
    assert X.min_degree == X.max_degree == 5


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
    levels = block_levels(X)
    for (s, n), E in canonical_entries(X, pg).items():
        groups = [X.base.sums[n].summands[j]
                  for j, lv in enumerate(levels[n]) if lv == s]
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


def test_pages_refuse_d_squared_nonzero_inside_one_level(monkeypatch):
    # on a < b < c with constant Z, level 2 (the last vertex's) holds
    # (c), (b,c), (a,c) and (a,b,c), whose faces (b,c) and (a,c) both keep
    # c; flipping the sign of (a,c) keeps every face in its level, but
    # d(d(abc)) = 2c inside level 2
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    assert page(build_filtered(P, constant_diagram(P, free_group(1)), CHAIN_LAST_INC), 0).entries

    def flipped(F, kind, cell, _real=derived._faces):
        return [(face, -sign if (cell, face) == (("a", "b", "c"), ("a", "c")) else sign, blk)
                for face, sign, blk in _real(F, kind, cell)]

    monkeypatch.setattr(spectral, "_faces", flipped)
    X = build_filtered(P, constant_diagram(P, free_group(1)), CHAIN_LAST_INC)
    with pytest.raises(OracleViolation, match="d o d is nonzero"):
        page(X, 0)
    # the sliced piece, the tests' oracle for the level pieces, keeps the
    # same check: d(bc) = c - b with an extra c gives d(d(abc)) = c there
    base = chain_complex(constant_diagram(P, free_group(1)))
    d = base._diffs[1]
    row = base.sums[0].offsets[base.blocks[0].index(("c",))]
    col = base.sums[1].offsets[base.blocks[1].index(("b", "c"))]
    diffs = dict(base._diffs)
    diffs[1] = AbHom(d.source, d.target,
                     d.matrix + la.from_blocks(*d.matrix.shape, [(row, col, 1, la.eye(1))]),
                     check=False)
    bad = ChainComplex(base.diagram, base.orientation, base.blocks, base.sums, diffs, base.top)
    with pytest.raises(OracleViolation, match="d o d is nonzero"):
        restrict_to_level(FilteredComplex(bad, CHAIN_LAST_INC, P), 2)


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


def _assert_same_groups(got, want):
    assert (got.r, got.type, got.bidegree) == (want.r, want.type, want.bidegree)
    assert set(got.entries) == set(want.entries)
    for k, g in want.entries.items():
        h = got.entries[k]
        assert (h.free_rank, h.invariant_factors) == (g.free_rank, g.invariant_factors)


def _assert_same_page(got, want):
    _assert_same_groups(got, want)
    assert set(got.differentials) == set(want.differentials)
    for k, d in want.differentials.items():
        assert got.differentials[k].matrix == d.matrix


def test_cached_pages_match_fresh_filtered_complexes():
    """Cached pages equal, matrix for matrix, those of a fresh filtered
    complex on the same reduced base, and their groups those of the
    unreduced nerve complex."""
    seen = set()
    for P, F in _seeded_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.name)
            X = build_filtered(P, F, v)
            e_infinity(X)
            fresh = FilteredComplex(X.base, v, P)
            base = chain_complex(F) if v.complex == "chain" else cochain_complex(F)
            unreduced = FilteredComplex(base, v, P)
            for r in range(X.span + 4):
                _assert_same_page(page(X, r), page(fresh, r))
                _assert_same_groups(page(X, r), page(unreduced, r))
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
    """Pages r >= 1, E-infinity and the convergence check run on the
    Morse-reduced nerve alone and list no chain of the whole poset; page
    0 lists them once per filtered complex, and the oracles and inner
    sequences after it list nothing more."""
    listings = []

    def counted(P, top, inside=None, _real=poset.chains_up_to):
        if inside is None:
            listings.append(1)
        return _real(P, top, inside)
    for module in (poset, derived, spectral):
        monkeypatch.setattr(module, "chains_up_to", counted)
    for P, F in _seeded_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            X = build_filtered(P, F, v)
            before = len(listings)
            for r in range(1, X.span + 4):
                page(X, r)
            stable = e_infinity(X)
            assert convergence_check(P, F, v).ok
            assert len(listings) == before
            page(X, 0)
            assert len(listings) == before + 1
            oracle_page_one(X)
            oracle_page_recurrence(X)
            inner_column_ss(P, F, X.min_degree, v)
            assert len(listings) == before + 1
            assert build_filtered(P, F, v) is X
            assert e_infinity(X) is stable
    # one listing per diagram and variant whose direction matches
    assert len(listings) == 16


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
    for j, G in enumerate(X.base.sums[n].summands):
        if X.base.sums[n].offsets[j] <= coord < X.base.sums[n].offsets[j] + G.ambient_rank:
            return j
    raise AssertionError(f"coordinate {coord} of C_{n} is in no block")


def _raises_level(X, diffs):
    """Some nonzero entry of diffs maps a block to a higher level."""
    levels = block_levels(X)
    for n, d in diffs.items():
        m = n + X.step
        for i, row in enumerate(d.matrix.tolist()):
            for c, x in enumerate(row):
                if x and levels[m][_block_of(X, m, i)] > levels[n][_block_of(X, n, c)]:
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
                bad = ChainComplex(base.diagram, base.orientation, base.blocks, base.sums, diffs,
                                   base.top)
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
    """The slicing oracle keeps exactly the entries of the base's
    differentials whose row and column blocks both lie at the level."""
    for X in _filtered_cases(4):
        levels = block_levels(X)
        for s in range(X.span + 1):
            graded = restrict_to_level(X, s)
            for n, d in X.base._diffs.items():
                m = n + X.step
                rows = d.matrix.tolist()
                keep_rows = [i for i in range(d.matrix.shape[0])
                             if levels[m][_block_of(X, m, i)] == s]
                keep_cols = [c for c in range(d.matrix.shape[1])
                             if levels[n][_block_of(X, n, c)] == s]
                want = [[rows[i][c] for c in keep_cols] for i in keep_rows]
                got = graded._diffs[n].matrix
                assert got.shape == (len(keep_rows), len(keep_cols))
                assert got.tolist() == want


def test_level_pieces_are_the_sliced_diagonal_blocks():
    """Each level piece that page 0 builds from the faces keeping the key
    vertex holds the blocks, groups and differentials sliced from the
    unreduced nerve complex at that level."""
    seen = set()
    for P, F in list(_seeded_diagrams(8)) + bundled_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.name)
            X, U = build_filtered(P, F, v), _unreduced(F, v, P)
            assert set(X._pieces) == set(range(X.span + 1))
            for s, got in X._pieces.items():
                want = restrict_to_level(U, s)
                assert (got.top, got.orientation) == (want.top, want.orientation)
                assert got.blocks == want.blocks, (v.name, s)
                for n in range(want.top + 1):
                    assert got.sums[n].summands == want.sums[n].summands
                    assert got.d_from(n).matrix == want.d_from(n).matrix, (v.name, s, n)
    assert seen == {v.name for v in TABLE_VARIANTS}


# ------------------------------------------ cycle lattices and shared pages

def _oracle_diagrams():
    """(poset, diagram) pairs for the reference oracles: randgen families x
    modes x seeds on each poset and its opposite, the bundled documents
    and the Z/2 square."""
    diagrams = []
    for family in POSET_FAMILIES:
        for mode in DIAGRAM_MODES:
            for seed in range(2):
                cfg = GenConfig(seed=5200 + seed, family=family, max_objects=4)
                P = gen_poset(cfg)
                for Q in (P, opposite(P)):
                    try:
                        diagrams.append((Q, gen_diagram(cfg, Q, mode)))
                    except FamilyMismatchError:
                        continue
    diagrams += bundled_diagrams()
    square = z2_square()
    diagrams.append((square.poset, square))
    return diagrams


def _oracle_complexes():
    """The filtered complexes both reference oracles run on: the oracle
    diagrams in every variant whose direction matches, each followed by
    the inner complexes that inner_column_ss refilters at every level."""
    for P, F in _oracle_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            X = build_filtered(P, F, v)
            yield X
            U = _unreduced(F, v, P)
            for s in range(X.span + 1):
                yield FilteredComplex(restrict_to_level(U, s), v.second, P)


def test_cycle_lattices_match_reference():
    """Every Z(n, s, star) from the one filtration-ordered echelon spans
    the preimage-and-intersection lattice, clamped keys included; ordering
    the rows lowest level first breaks this."""
    seen = set()
    keys = 0
    for X in _oracle_complexes():
        seen.add(X.variant.name)
        for n in range(X.base.top + 1):
            for s in range(-1, X.span + 2):
                for star in range(-3, X.span + 2):
                    got, want = X._Z(n, s, star), reference_cycles(X, n, s, star)
                    assert same_lattice(got, want), (X.variant.name, n, s, star)
                    keys += 1
    assert seen == {v.name for v in TABLE_VARIANTS}
    assert keys > 5000


def _occupied_pairs(X):
    """{(degree n, level s): s holds a coordinate of C_n}, from the blocks."""
    return {(n, lv) for n, lvs in block_levels(X).items()
            for lv, c in zip(lvs, X.base.sums[n].summands) if c.ambient_rank}


def _counted_preimages(monkeypatch):
    """(asked, ran): the (degree, reach) keys that FilteredComplex._preimage
    is asked for, and one entry per la.preimage_lattice call, with the
    name of the function that called it."""
    asked, ran = [], []
    real_pre, real_cached = la.preimage_lattice, FilteredComplex._preimage

    def counted(A, L):
        ran.append(sys._getframe(1).f_code.co_name)
        return real_pre(A, L)

    def asking(self, n, reach):
        asked.append((n, reach))
        return real_cached(self, n, reach)

    monkeypatch.setattr(la, "preimage_lattice", counted)
    monkeypatch.setattr(FilteredComplex, "_preimage", asking)
    return asked, ran


@pytest.mark.parametrize("case", ["intro_pushout", "chain300"])
def test_one_preimage_per_degree_and_clamped_reach(monkeypatch, case):
    """Pages 1..span + 2 run la.preimage_lattice once per (degree, reach)
    they ask for, and each reach is clamped: -1 or a level that holds a
    coordinate of the target degree.  On the pushout in every variant,
    and on constant Z on a chain of 300 objects, whose carrier matching
    leaves one cell, in both carrier variants, where that is one
    preimage against 300 levels."""
    asked, ran = _counted_preimages(monkeypatch)
    if case == "intro_pushout":
        F = intro_pushout()
        P, variants = F.poset, [v for v in TABLE_VARIANTS if v.direction == F.poset.direction]
    else:
        P, F = parse_diagram(deep_chain_document(300))
        variants = [variant_by_name("chain:sigma_0:increasing"),
                    variant_by_name("cochain:sigma_n:increasing")]
    for v in variants:
        X = FilteredComplex(build_filtered(P, F, v).base, v, P)
        asked.clear()
        ran.clear()
        for r in range(1, X.span + 3):
            page(X, r)
        occupied = _occupied_pairs(X)
        assert len(ran) == len(set(asked)) > 0, v.name
        for n, reach in asked:
            assert reach == -1 or (n + X.step, reach) in occupied, (v.name, n, reach)
        if case == "chain300":
            assert len(ran) == 1 and X.span == 299


def test_e_infinity_of_a_chain_of_200_objects_within_two_seconds():
    """Constant Z on a chain of 200 objects: E-infinity and the
    convergence check, in both carrier variants, cost what the one
    critical cell does, not the 200 levels."""
    P, F = parse_diagram(deep_chain_document(200))
    for name, key in (("chain:sigma_0:increasing", (199, -199)),
                      ("cochain:sigma_n:increasing", (0, 0))):
        v = variant_by_name(name)
        start = time.perf_counter()
        stable = e_infinity(build_filtered(P, F, v))
        assert convergence_check(P, F, v).ok
        assert time.perf_counter() - start < 2, name
        assert {k: g.describe() for k, g in stable.entries.items()} == {key: "Z"}


def test_e_infinity_of_a_chain_of_200_objects_in_the_ends_variants_within_a_second(
        monkeypatch):
    """Constant Z on a chain of 200 objects in the two variants whose
    two-ended matching keeps a cell at nearly every level: E-infinity is
    one Z, the convergence check passes, la.preimage_lattice runs at most
    once per (degree, reach) asked, and each variant takes under 1 s."""
    asked, ran = _counted_preimages(monkeypatch)
    P, F = parse_diagram(deep_chain_document(200))
    for name, key in (("chain:sigma_n:increasing", (0, 0)),
                      ("cochain:sigma_0:increasing", (199, -199))):
        v = variant_by_name(name)
        asked.clear()
        ran.clear()
        start = time.perf_counter()
        stable = e_infinity(build_filtered(P, F, v))
        assert convergence_check(P, F, v).ok
        assert time.perf_counter() - start < 1, name
        assert {k: g.describe() for k, g in stable.entries.items()} == {key: "Z"}
        # the convergence check's derived functors take preimages of their own
        assert 0 < ran.count("_preimage") <= len(set(asked)), name


def test_shared_pages_match_reference_pages():
    """Pages 1..span + 1, computed only at the occupied keys on lattices
    shared up to the next occupied level, and the pages past span + 1,
    which are page span + 1 relabelled, hold at every (s, n) the groups
    of pages built the long way from reference cycle lattices."""
    for X in _oracle_complexes():
        for r in (*range(1, X.span + 2), X.span + 2, X.span + 3, 50):
            pg = page(X, r)
            want = (r, 1 - r) if X.variant.type == "cohomological" else (-r, r - 1)
            assert (pg.r, pg.bidegree) == (r, want)
            ref = reference_page_entries(X, r)
            got = canonical_entries(X, pg)
            assert set(got) == set(ref)
            for k, g in ref.items():
                assert got[k].is_isomorphic_to(g), (X.variant.name, r, k)
            assert set(pg.entries) == {_public_key(X, s, n)
                                       for (s, n), g in ref.items() if not g.is_trivial}


def test_pages_past_span_plus_one_share_its_entries():
    """What e_infinity and oracle_page_recurrence rely on in comparing no
    page past span + 1: those pages hold page span + 1's very entries,
    and no differential of page span + 1 is nonzero."""
    seen = set()
    for P, F in bundled_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.name)
            X = build_filtered(P, F, v)
            last = page(X, X.span + 1)
            for r in (X.span + 2, X.span + 3):
                assert page(X, r).entries is last.entries
                assert page(X, r).differentials is last.differentials
            assert all(d.is_zero() for d in last.differentials.values()), v.name
    assert seen == {v.name for v in TABLE_VARIANTS}


def test_pages_take_preimages_only_through_the_reach_cache(monkeypatch):
    """Pages and E-infinity intersect no lattices, and take each lattice
    preimage through FilteredComplex._preimage, at most once per
    (degree, reach) asked."""
    def refuse(*args, **kwargs):
        raise AssertionError("a page asked for a lattice intersection")

    monkeypatch.setattr(la, "intersect_lattices", refuse)
    asked, ran = _counted_preimages(monkeypatch)
    seen = set()
    for P, F in bundled_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.name)
            X = FilteredComplex(build_filtered(P, F, v).base, v, P)
            asked.clear()
            ran.clear()
            for r in range(X.span + 4):
                page(X, r)
            e_infinity(X)
            assert set(ran) <= {"_preimage"}, v.name
            assert len(ran) <= len(set(asked)), v.name
    assert seen == {v.name for v in TABLE_VARIANTS}


# ------------------------------------------------------------ zero entries

def _zero_entry_complexes():
    """Filtered complexes of the bundled documents and of seeded forest
    and layered diagrams, on each poset and its opposite, in every
    variant whose direction matches."""
    diagrams = bundled_diagrams() + list(_seeded_diagrams(8))
    for P, F in diagrams:
        for v in TABLE_VARIANTS:
            if v.direction == P.direction:
                yield build_filtered(P, F, v)


def test_trivial_entries_are_one_zero_group_with_empty_maps():
    """From r = 1 on, the builder gives an entry at exactly the occupied
    (level, degree) keys, every trivial one as the same group of ambient
    rank 0, and a differential out of exactly the nonzero entries; one
    into a trivial entry has an empty matrix."""
    seen, zeros, nonzero, skipped = set(), set(), 0, 0
    for X in _zero_entry_complexes():
        seen.add(X.variant.name)
        occupied = {(s, n) for n, s in _occupied_pairs(X)}
        for r in range(1, X.span + 4):
            groups, maps = _subquotient_page(X, r)
            assert set(groups) == occupied, (X.variant.name, r)
            skipped += (X.span + 1) * (X.base.top + 1) - len(groups)
            for E in groups.values():
                if E.is_trivial:
                    assert E.ambient_rank == 0
                    zeros.add(id(E))
                else:
                    nonzero += 1
            assert set(maps) == {k for k, E in groups.items() if not E.is_trivial}
            for k, d in maps.items():
                assert d.source is groups[k]
                if d.target.is_trivial:
                    assert d.matrix.size == 0 and not any(d.matrix.cols)
    assert seen == {v.name for v in TABLE_VARIANTS}
    assert len(zeros) == 1 and nonzero > 0 and skipped > 0


def test_a_page_holds_its_nonzero_entries_and_their_differentials():
    """A page is five fields; at every r it stores no trivial entry, and
    one differential, out of that entry, under each entry's key."""
    assert SSPage._fields == ("r", "type", "bidegree", "entries", "differentials")
    seen, stored = set(), 0
    for X in _zero_entry_complexes():
        seen.add(X.variant.name)
        for r in range(X.span + 4):
            pg = page(X, r)
            assert not any(E.is_trivial for E in pg.entries.values()), (X.variant.name, r)
            assert set(pg.differentials) == set(pg.entries)
            assert all(pg.differentials[k].source is E for k, E in pg.entries.items())
            stored += len(pg.entries)
    assert seen == {v.name for v in TABLE_VARIANTS}
    assert stored > 0


def _chain_on_three():
    """The chain complex of constant Z on a < b < c, filtered by the last
    vertex's degree, and {vertices: coordinate} in each degree."""
    P = validate_graded([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    base = chain_complex(constant_diagram(P, free_group(1)))
    at = {n: {c: base.sums[n].offsets[j] for j, c in enumerate(base.blocks[n])}
          for n in range(base.top + 1)}
    return FilteredComplex(base, CHAIN_LAST_INC, P), at


def _with_lattice(X, key, Z):
    """A fresh filtered complex on X's base whose cycle lattice at key,
    a clamped (degree, level, star), is Z; _Z reads that key before it
    computes anything, and every other lattice is computed as usual."""
    Y = FilteredComplex(X.base, X.variant, X.poset)
    Y._z_cache[key] = Z
    return Y


def test_an_empty_cycle_lattice_refuses_arriving_boundaries():
    """At level 2, degree 1 of page 2, d(abc) arrives; a cycle lattice
    emptied there cannot hold it."""
    X, at = _chain_on_three()
    assert canonical_entries(X, page(X, 2))[(2, 1)].is_trivial
    assert X._z_cache[(1, 1, 0)].shape[1] == 0  # the deeper cycles are empty
    Y = _with_lattice(X, (1, 2, 0), la.zeros(len(at[1]), 0))
    with pytest.raises(OracleViolation, match="boundary lattice escapes the cycle lattice "
                                              "at level 2, degree 1, page 2"):
        page(Y, 2)


def test_containment_is_checked_into_a_zero_entry():
    """Page 1 maps level 2, degree 1 into the zero entry at level 1,
    degree 0.  A cycle lattice widened by bc, whose boundary c - b
    reaches level 2, leaves the target cycles."""
    X, at = _chain_on_three()
    assert canonical_entries(X, page(X, 1))[(1, 0)].ambient_rank == 0
    Z = X._Z(1, 2, 1)
    bc = la.IntMatrix((Z.shape[0], 1), [{at[1][("b", "c")]: 1}])
    Y = _with_lattice(X, (1, 2, 1), la.hstack([Z, bc]))
    with pytest.raises(OracleViolation, match="page-1 differential leaves the target "
                                              "cycles at level 2, degree 1"):
        page(Y, 1)


def test_containment_is_checked_into_an_unoccupied_level():
    """Page 2 maps level 2, degree 2 into level 0, degree 1, which holds
    no coordinate (a 1-chain ends at b or c), so page 2 has no entry
    there.  A cycle lattice widened by abc, whose boundary reaches level
    2, leaves the target cycles, which are the relations alone."""
    X, at = _chain_on_three()
    assert not X._Z(2, 2, 0).shape[1]  # d(abc) does not lie at level 0
    abc = la.IntMatrix((len(at[2]), 1), [{at[2][("a", "b", "c")]: 1}])
    Y = _with_lattice(X, (2, 2, 0), abc)
    with pytest.raises(OracleViolation, match="page-2 differential leaves the target "
                                              "cycles at level 2, degree 2"):
        page(Y, 2)


def test_a_zero_source_is_checked_to_be_well_defined():
    """On page 2, level 2, degree 1 is the zero entry spanned by d(abc),
    and level 0, degree 0 is Z on a.  With d(ab) = b, d(d(abc)) = a is a
    relation of the source sent to a nonzero element of the target.

    Editing cycle lattices cannot reach this check: once the boundary
    and containment checks pass, the image of a source relation is the
    target's arriving boundary plus d(d(...)), so only a base with
    d o d nonzero can."""
    X, at = _chain_on_three()
    pg = canonical_entries(X, page(X, 2))
    assert pg[(2, 1)].ambient_rank == 0 and pg[(0, 0)].free_rank == 1
    d = X.base._diffs[1]
    fix = la.from_blocks(*d.matrix.shape, [(at[0][("a",)], at[1][("a", "b")], 1, la.eye(1))])
    diffs = dict(X.base._diffs)
    diffs[1] = AbHom(d.source, d.target, d.matrix + fix, check=False)
    bad = ChainComplex(X.base.diagram, X.base.orientation, X.base.blocks, X.base.sums, diffs,
                       X.base.top)
    with pytest.raises(ValueError, match="not well defined"):
        page(FilteredComplex(bad, CHAIN_LAST_INC, X.poset), 2)


def test_each_cycle_lattice_gets_one_span_checker(monkeypatch):
    """All pages of a filtered complex, E-infinity and both oracles build
    at most one SpanChecker per cycle lattice they read."""
    built = []
    real = la.SpanChecker

    def counting(M):
        built.append(M)
        return real(M)

    monkeypatch.setattr(la, "SpanChecker", counting)
    for P, F in bundled_diagrams() + list(_seeded_diagrams(4)):
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            X = FilteredComplex(build_filtered(P, F, v).base, v, P)
            built.clear()
            oracle_page_one(X)
            oracle_page_recurrence(X)
            e_infinity(X)
            lattices = {id(Z) for Z in X._z_cache.values()}
            on_lattices = [id(M) for M in built if id(M) in lattices]
            assert len(on_lattices) == len(set(on_lattices)) <= len(lattices)


# ------------------------------------------------------------ page checks

def _planted(r, key):
    """The intro pushout and its chain:sigma_n filtered complex, fresh,
    with the cached page r holding Z/3 at key."""
    F = intro_pushout()
    X = build_filtered(F.poset, F, CHAIN_LAST_INC)
    pg = page(X, r)
    X._pages[r] = pg._replace(entries={**pg.entries, key: cyclic_group(3)})
    return F, X


@pytest.mark.parametrize("key, message", [
    ((1, 0), "page 1 at level 1, degree 1 is Z/3, graded homology is 0"),
    ((0, 0), "page 1 at level 0, degree 0 is Z/3, graded homology is Z"),
])
def test_the_page_one_oracle_refuses_a_planted_entry(key, message):
    _, X = _planted(1, key)
    with pytest.raises(OracleViolation, match=re.escape(message)):
        oracle_page_one(X)


@pytest.mark.parametrize("key, message", [
    ((1, 0), "homology of page 1 at (1, 0) is 0, page 2 holds Z/3"),
    ((1, -1), "homology of page 1 at (1, -1) is Z/2 + Z/2, page 2 holds Z/3"),
])
def test_the_page_recurrence_refuses_a_planted_entry(key, message):
    _, X = _planted(2, key)
    with pytest.raises(OracleViolation, match=re.escape(message)):
        oracle_page_recurrence(X)


@pytest.mark.parametrize("key, message", [
    ((1, 0), "total degree 1: stable page orders multiply to 3, colim_1 has order 1"),
    ((0, 0), "total degree 0: stable page ranks sum to 0, colim_0 has rank 1"),
])
def test_the_convergence_check_refuses_a_planted_entry(key, message):
    # the pushout's degrees span 1, so E-infinity is page 3
    F, _ = _planted(3, key)
    with pytest.raises(ConvergenceViolation, match=re.escape(message)):
        convergence_check(F.poset, F, CHAIN_LAST_INC)


# ------------------------------------------------ the filtered Morse complex

def _unreduced(F, v, P):
    return FilteredComplex(chain_complex(F) if v.complex == "chain" else cochain_complex(F),
                           v, P)


def test_reduced_pages_match_unreduced_pages():
    """Pages 1..span+3, E-infinity and the convergence report on the
    filtered Morse complex hold the groups of those on the whole nerve,
    key by key; page 0 holds the subquotient-formula page 0 of the whole
    nerve."""
    seen = set()
    for P, F in _oracle_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.matching)
            X, U = build_filtered(P, F, v), _unreduced(F, v, P)
            for r in range(1, X.span + 4):
                got, want = page(X, r).entries, page(U, r).entries
                assert set(got) == set(want)
                for k, g in want.items():
                    assert got[k].is_isomorphic_to(g), (v.name, r, k)
            got, want = e_infinity(X).entries, e_infinity(U).entries
            assert set(got) == set(want)
            assert all(got[k].is_isomorphic_to(g) for k, g in want.items())
            direction = "colim" if v.complex == "chain" else "lim"
            report = convergence_check(P, F, v)
            for n, c in report.by_degree.items():
                assert c == _compare_totals(e_infinity(U), _total(U, n),
                                            derived_functor(F, direction, n), "", "")
            zero = canonical_entries(X, page(X, 0))
            ref = reference_page_entries(U, 0)
            assert set(zero) == set(ref)
            assert all(zero[k].is_isomorphic_to(g) for k, g in ref.items())
    assert seen == {"carrier", "ends"}


def test_a_matching_across_levels_is_refused():
    """chain:sigma_n and cochain:sigma_0 filter by the vertex the carrier
    matching moves: the pair check refuses the carrier complex, and
    without the check its pages are wrong, though every differential
    respects the levels."""
    cases = []
    for name in ("bool2", "grid2x3", "bool3"):
        P = shape(name)
        F = constant_diagram(P, group_from_invariants(1, [2]))
        for v in (Variant("chain", "last", "increasing"),
                  Variant("cochain", "first", "increasing")):
            assert v.matching == "ends"
            carrier = derived._cached_complex(F, v.complex, "carrier")
            with pytest.raises(OracleViolation, match="carries the filtration level"):
                FilteredComplex(carrier, v, P)
            cases.append((P, F, v, carrier))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FilteredComplex, "_check_matching", lambda self: None)
        for P, F, v, carrier in cases:
            X, U = FilteredComplex(carrier, v, P), _unreduced(F, v, P)
            assert not _raises_level(X, X.base._diffs)
            pairs = [(canonical_entries(X, page(X, r)), canonical_entries(U, page(U, r)))
                     for r in range(1, X.span + 4)]
            assert not all(got[k].is_isomorphic_to(g) for got, want in pairs
                           for k, g in want.items())


def test_inner_sequences_refilter_the_unreduced_piece():
    """Every inner page equals the one built on the unreduced level-p
    piece; a piece of the reduced base would change some of them, since
    the matching does not keep the second filtration's key vertex."""
    seen = set()
    for k in range(30):
        cfg = GenConfig(seed=6100 + k, family="forest" if k % 2 == 0 else "layered",
                        max_objects=6)
        P = gen_poset(cfg)
        if k % 4 >= 2:
            P = opposite(P)
        F = gen_diagram(cfg, P, "sums_of_standard")
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.name)
            U = _unreduced(F, v, P)
            for p in range(U.min_degree, U.max_degree + 1):
                s = (U.max_degree - p) if v.condition == ">=" else (p - U.min_degree)
                inner = refiltered(restrict_to_level(U, s), v, P)
                pages = inner_column_ss(P, F, p, v)
                assert len(pages) == inner.span + 3
                for r, pg in enumerate(pages):
                    _assert_same_groups(pg, page(inner, r))
    assert seen == {v.name for v in TABLE_VARIANTS}


def test_e_infinity_of_a_grid_cone():
    F = constant_diagram(shape("grid4x4"), group_from_invariants(1, [2]))
    for v in (CHAIN_LAST_INC, Variant("cochain", "last", "increasing")):
        stable = e_infinity(build_filtered(F.poset, F, v))
        assert entries_by_factors(stable) == {(0, 0): (1, (2,))}


def test_carrier_variants_of_grid6x6_list_no_chain(monkeypatch):
    """grid6x6 has 107,711 chains, over the default budget, but each
    carrier group has a cone point and the pair check reads the ends the
    matching fixes, so E-infinity and the convergence check of the two
    variants filtered by the carrier list no chain.  The two filtered by
    the other vertex take the ends matching, which the budget refuses."""
    walks = []

    def counted(*a, **k):
        walks.append(a)
        return poset.chains_up_to(*a, **k)
    monkeypatch.setattr(derived, "chains_up_to", counted)
    G = group_from_invariants(1, [2])
    P = grid(6, 6)
    F = constant_diagram(P, G)
    for name in ("chain:sigma_0:increasing", "cochain:sigma_n:increasing"):
        v = variant_by_name(name)
        assert v.matching == "carrier"
        X = build_filtered(P, F, v)
        assert [len(X.base.blocks[n]) for n in range(X.base.top + 1)] == [1] + [0] * X.base.top
        assert list(entries_by_factors(e_infinity(X)).values()) == [(1, (2,))]
        assert convergence_check(P, F, v).ok
    for name in ("chain:sigma_n:increasing", "cochain:sigma_0:increasing"):
        with pytest.raises(ChainBudgetError, match="Morse matching would list"):
            build_filtered(P, F, variant_by_name(name))
    assert walks == []


def test_a_dropped_diagram_is_freed_without_the_cycle_collector():
    """No cache makes a reference cycle through the diagram, so dropping
    it frees it and every complex and page cached on it at once."""
    gc.disable()
    try:
        P = shape("bool2")
        F = random_torsion_sum_diagram(random.Random(7), P)
        freed = weakref.ref(F)
        for v in TABLE_VARIANTS:
            if v.direction == P.direction:
                X = build_filtered(P, F, v)
                oracle_page_one(X)
                oracle_page_recurrence(X)
                convergence_check(P, F, v)
                inner_column_ss(P, F, X.min_degree, v)
        del F, X
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["grid4x4", "bool4"])
def test_every_query_keeps_only_covers_and_up_sets(name):
    """validate, the colim and lim tables with their Euler checks and
    classify, then E_inf, the convergence check and the page recurrence
    in the four increasing variants, leave on the poset only its covers
    both ways, its up-sets, its layers and its length: no down-set and no
    sorted copy of an up-set."""
    P = shape(name)
    F = constant_diagram(P, group_from_invariants(1, [2]))
    for direction in ("colim", "lim"):
        check_euler_characteristic(
            F, direction, [derived_functor(F, direction, i) for i in range(P.length + 1)])
    classify_diagram(F)
    for v in TABLE_VARIANTS:
        if v.direction == "increasing":
            X = build_filtered(P, F, v)
            e_infinity(X)
            assert convergence_check(P, F, v).ok
            oracle_page_recurrence(X)
    assert kept_poset_state(P) <= POSET_STATE


def test_every_query_keeps_one_store_on_the_diagram():
    """colim and lim in every degree, classify, then E_inf and the
    convergence check in every variant of the document's direction, on
    each bundled document, leave on the diagram only its fields, its
    composites, its one store and its detached copy; every key of the
    store carries one of the four tags, and each tag is used."""
    tags = set()
    for P, F in bundled_diagrams():
        for direction in ("colim", "lim"):
            for i in range(P.length + 1):
                derived_functor(F, direction, i)
        classify_diagram(F)
        for v in TABLE_VARIANTS:
            if v.direction == P.direction:
                e_infinity(build_filtered(P, F, v))
                assert convergence_check(P, F, v).ok
        assert set(vars(F)) <= DIAGRAM_STATE
        assert {key[0] for key in F._kept} <= KEPT_TAGS
        tags |= {key[0] for key in F._kept}
    assert tags == KEPT_TAGS
