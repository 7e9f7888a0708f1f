"""Property tests for hom well-definedness and functor validation."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from posetlim import intlinalg as la  # noqa: E402
from posetlim.abgroup import AbHom, FgAbGroup, free_group  # noqa: E402
from posetlim.diagram import validate_functor  # noqa: E402
from posetlim.errors import DiamondError  # noqa: E402
from posetlim.poset import validate_graded  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

entries = st.one_of(st.just(0), st.integers(-4, 4))


def _matrix(draw, m, n):
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return la.intmat(rows, (m, n))


@st.composite
def well_defined_homs(draw):
    """(A, B, M, P): B presented by fewer relations than generators, so it
    has a free part; M any matrix into B; A's relations any integer
    combinations of a basis of {x : M x in span(B's relations)}; and P the
    witness M @ A.relations == B.relations @ P."""
    k = draw(st.integers(1, 4))
    target = FgAbGroup(k, _matrix(draw, k, draw(st.integers(0, k - 1))))
    g = draw(st.integers(1, 4))
    M = _matrix(draw, k, g)
    lattice = la.preimage_lattice(M, target.relations)
    rels = lattice @ _matrix(draw, lattice.shape[1], draw(st.integers(0, 3)))
    P = la.solve(target.relations, M @ rels)
    return FgAbGroup(g, rels), target, M, P


@given(well_defined_homs())
@PROPERTY
def test_hom_accepts_a_matrix_mapping_relations_into_relations(case):
    A, B, M, P = case
    assert P is not None
    assert M @ A.relations == B.relations @ P
    assert AbHom(A, B, M).matrix == M


@given(well_defined_homs(), st.data())
@PROPERTY
def test_hom_refuses_a_relation_moved_outside_the_target_span(case, data):
    A, B, M, _ = case
    moved = [j for j, col in enumerate(A.relations.cols) if col]
    assume(moved)
    j = data.draw(st.sampled_from(moved))
    r = A.relations.cols[j]
    l = data.draw(st.sampled_from(sorted(r)))
    # w annihilates every target relation, so w.x != 0 puts x, and each
    # nonzero multiple of x, outside their span
    w = la.kernel(B.relations.T).cols[0]
    assert not any(sum(w.get(i, 0) * x for i, x in col.items()) for col in B.relations.cols)
    t = data.draw(st.sampled_from(sorted(w)))
    bad = M + la.from_blocks(*M.shape, [(t, l, 1, la.eye(1))])
    # w.(bad r) = w.(M r) + w_t r_l, and w.(M r) = 0 as M r is in the span
    assert sum(w.get(i, 0) * x for i, x in (bad @ A.relations).cols[j].items()) != 0
    with pytest.raises(ValueError, match="not well defined"):
        AbHom(A, B, bad)


SHAPES = {
    "bool2": ([("a", 0), ("b", 1), ("c", 1), ("d", 2)],
              [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    "grid2x3": ([(f"g{i}{j}", i + j) for i in range(2) for j in range(3)],
                [(f"g0{j}", f"g1{j}") for j in range(3)]
                + [(f"g{i}{j}", f"g{i}{j + 1}") for i in range(2) for j in range(2)]),
    "bool3": ([(f"s{m}", bin(m).count("1")) for m in range(8)],
              [(f"s{m}", f"s{m | 1 << i}") for m in range(8) for i in range(3)
               if not m & 1 << i]),
}


@given(st.sampled_from(sorted(SHAPES)), st.integers(1, 3), st.data())
@PROPERTY
def test_validate_functor_refuses_one_perturbed_square(shape, k, data):
    """Z^k at every object and one matrix M, invertible over Q, on every
    cover: any two paths between two objects have one length, so the
    diagram commutes.  Adding a nonzero E on one cover breaks each square
    through it, since M E and E M are nonzero."""
    P = validate_graded(*SHAPES[shape])
    M = _matrix(data.draw, k, k)
    assume(len(la.diagonal_of_snf(M)) == k)
    G = free_group(k)
    maps = {c: AbHom(G, G, M) for c in P.covers}
    assert validate_functor(P, {i: G for i in P.ids}, maps).hom(*P.covers[0]).matrix == M
    c = data.draw(st.sampled_from(sorted(P.covers)))
    E = _matrix(data.draw, k, k)
    assume(any(E.cols))
    maps[c] = AbHom(G, G, M + E)
    with pytest.raises(DiamondError):
        validate_functor(P, {i: G for i in P.ids}, maps)
