import gc
import random
import weakref

import pytest

from posetlim import derived
from posetlim import intlinalg as la
from posetlim.abgroup import AbHom, cyclic_group, direct_sum, free_group, group_from_invariants
from posetlim.derived import ChainComplex, chain_complex, cochain_complex, derived_functor
from posetlim.diagram import constant_diagram, skyscraper_diagram, validate_functor
from posetlim.errors import (
    ConvergenceViolation,
    FamilyMismatchError,
    MismatchError,
    OracleViolation,
    VariantMismatchError,
)
from posetlim.poset import opposite, validate_graded
from posetlim.randgen import DIAGRAM_MODES, POSET_FAMILIES, GenConfig, gen_diagram, gen_poset
from posetlim.spectral import (
    TABLE_VARIANTS,
    FilteredComplex,
    Variant,
    _compare_totals,
    _public_key,
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
    bundled_diagrams,
    intro_pushout,
    pushout_poset,
    random_forest_poset,
    random_free_forest_diagram,
    random_torsion_sum_diagram,
    reference_cycles,
    reference_page_entries,
    same_lattice,
    shape,
    times_two_pullback,
    z2_square,
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
    v = Variant("chain", "first", "increasing")
    X = FilteredComplex(chain_complex(F), v, F.poset)
    got = {(n, c.vertices): p for (n, c), p in X.filtration_index.items()}
    assert got == {
        (0, ("a",)): 0, (0, ("b",)): 1, (0, ("c",)): 1,
        (1, ("a", "b")): 0, (1, ("a", "c")): 0,
    }
    # the carrier matching pairs (a) with (a, b); the critical chains keep
    # their indices
    reduced = build_filtered(F.poset, F, v)
    assert {(n, c.vertices): p for (n, c), p in reduced.filtration_index.items()} == {
        (0, ("b",)): 1, (0, ("c",)): 1, (1, ("a", "c")): 0,
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
    bad = ChainComplex(base.orientation, base.blocks, base.sums, diffs, base.top)
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


def _assert_same_groups(got, want):
    assert (got.r, got.type, got.bidegree) == (want.r, want.type, want.bidegree)
    assert set(got.entries) == set(want.entries)
    assert set(got.sn_entries) == set(want.sn_entries)
    for k, g in want.sn_entries.items():
        h = got.sn_entries[k]
        assert (h.free_rank, h.invariant_factors) == (g.free_rank, g.invariant_factors)


def _assert_same_page(got, want):
    _assert_same_groups(got, want)
    assert set(got.sn_diffs) == set(want.sn_diffs)
    for k, d in want.sn_diffs.items():
        assert got.sn_diffs[k].matrix == d.matrix


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
    Morse-reduced nerve alone; page 0 builds the unreduced complex once,
    and the oracles and inner sequences after it build nothing more."""
    builds = []

    def counted(*a, _real=derived._nerve_complex, **k):
        builds.append(1)
        return _real(*a, **k)
    monkeypatch.setattr(derived, "_nerve_complex", counted)
    for P, F in _seeded_diagrams():
        built = set()
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            X = build_filtered(P, F, v)
            new = v.complex not in built
            built.add(v.complex)
            before = len(builds)
            for r in range(1, X.span + 4):
                page(X, r)
            stable = e_infinity(X)
            assert convergence_check(P, F, v).ok
            assert len(builds) == before
            page(X, 0)
            assert len(builds) == before + new
            oracle_page_one(X)
            oracle_page_recurrence(X)
            inner_column_ss(P, F, X.min_degree, v)
            assert len(builds) == before + new
            assert build_filtered(P, F, v) is X
            assert e_infinity(X) is stable
    # one chain and one cochain complex per diagram
    assert len(builds) == 8


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
        if X.base.block_offset(n, j) <= coord < X.base.block_offset(n, j) + G.ambient_rank:
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
                bad = ChainComplex(base.orientation, base.blocks, base.sums, diffs, base.top)
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
            for s in range(X.span + 1):
                yield FilteredComplex(_restrict_to_level(X.unreduced, s), v.second, P)


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


def test_shared_pages_match_reference_pages():
    """Pages past span + 1 are page span + 1 relabelled; built the long
    way from reference cycle lattices they hold the same groups."""
    for X in _oracle_complexes():
        for r in (X.span + 2, X.span + 3, 50):
            pg = page(X, r)
            want = (r, 1 - r) if X.variant.type == "cohomological" else (-r, r - 1)
            assert (pg.r, pg.bidegree) == (r, want)
            ref = reference_page_entries(X, r)
            assert set(pg.sn_entries) == set(ref)
            for k, g in ref.items():
                assert pg.sn_entries[k].is_isomorphic_to(g), (X.variant.name, r, k)
            assert set(pg.entries) == {_public_key(X, s, n)
                                       for (s, n), g in ref.items() if not g.is_trivial}


def test_pages_use_neither_lattice_preimage_nor_intersection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a page asked for a lattice preimage or intersection")

    monkeypatch.setattr(la, "preimage_lattice", refuse)
    monkeypatch.setattr(la, "intersect_lattices", refuse)
    seen = set()
    for P, F in bundled_diagrams():
        for v in TABLE_VARIANTS:
            if v.direction != P.direction:
                continue
            seen.add(v.name)
            X = build_filtered(P, F, v)
            for r in range(X.span + 4):
                page(X, r)
            e_infinity(X)
    assert seen == {v.name for v in TABLE_VARIANTS}


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
                got, want = page(X, r).sn_entries, page(U, r).sn_entries
                assert set(got) == set(want)
                for k, g in want.items():
                    assert got[k].is_isomorphic_to(g), (v.name, r, k)
            got, want = e_infinity(X).sn_entries, e_infinity(U).sn_entries
            assert set(got) == set(want)
            assert all(got[k].is_isomorphic_to(g) for k, g in want.items())
            direction = "colim" if v.complex == "chain" else "lim"
            report = convergence_check(P, F, v)
            for n, c in report.by_degree.items():
                assert c == _compare_totals(e_infinity(U), n, derived_functor(F, direction, n),
                                            "", "")
            zero = page(X, 0).sn_entries
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
            assert not all(page(X, r).sn_entries[k].is_isomorphic_to(g)
                           for r in range(1, X.span + 4)
                           for k, g in page(U, r).sn_entries.items())


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
                inner = FilteredComplex(_restrict_to_level(U, s), v.second, P)
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
