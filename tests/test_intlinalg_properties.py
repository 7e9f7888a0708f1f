"""Property tests for kernels, solving, span residues and Smith forms."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from posetlim.intlinalg import (  # noqa: E402
    SpanChecker,
    diagonal_of_snf,
    intmat,
    lattice_basis,
    preimage_lattice,
    solve,
    zeros,
)

from helpers import (  # noqa: E402
    det,
    full_diagonal_of_snf,
    full_lattice_basis,
    full_preimage_lattice,
    full_span_pivots,
    kernel,
    smith_normal_form,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

entries = st.one_of(st.just(0), st.just(0), st.integers(-6, 6), st.integers(-60, 60))


@st.composite
def matrices(draw, max_dim=6):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return intmat(rows) if m else zeros(0, n)


@st.composite
def matrix_and_vectors(draw):
    """(M, x, z): x has one entry per row of M, z one per column."""
    M = draw(matrices())
    m, n = M.shape
    x = draw(st.lists(entries, min_size=m, max_size=m))
    z = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return M, x, z


@st.composite
def low_rank_matrices(draw):
    """A @ B through an inner dimension below both sides: rank deficient."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(m, n) - 1))
    A = draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                      min_size=m, max_size=m))
    B = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                      min_size=k, max_size=k))
    return intmat([[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] if k else [0] * n
                   for row in A])


def rational_rank(M):
    rows = [[Fraction(int(v)) for v in row] for row in M.tolist()]
    rank = 0
    for c in range(M.shape[1]):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def times(M, z):
    """M @ z for a list z, as a list."""
    return [sum(int(M[i, j]) * z[j] for j in range(M.shape[1])) for i in range(M.shape[0])]


@PROPERTY
@given(matrices())
def test_kernel_annihilates_and_has_corank_columns(M):
    K = kernel(M)
    n = M.shape[1]
    assert K.shape == (n, n - rational_rank(M))
    if K.size and M.shape[0]:
        assert not any((M @ K).flat)
    # the kernel lattice is saturated: its basis spans a direct summand
    assert all(d == 1 for d in diagonal_of_snf(K))


@PROPERTY
@given(matrices(), st.integers(0, 3), st.data())
def test_solve_round_trips(M, k, data):
    m, n = M.shape
    Y = intmat([data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
                for _ in range(n)]) if n else zeros(0, k)
    X = M @ Y if n and k else zeros(m, k)
    S = solve(M, X)
    assert S is not None and S.shape == (n, k)
    got = M @ S if n and k else zeros(m, k)
    assert got.tolist() == X.tolist()


@PROPERTY
@given(matrix_and_vectors())
def test_residue_is_constant_on_cosets(case):
    M, x, z = case
    chk = SpanChecker(M)
    shifted = [a + b for a, b in zip(x, times(M, z))]
    assert chk.residue(x) == chk.residue(shifted)


@PROPERTY
@given(matrix_and_vectors())
def test_contains_iff_residue_is_zero(case):
    M, x, z = case
    chk = SpanChecker(M)
    assert chk.contains(x) == (not any(chk.residue(x)))
    assert chk.contains(times(M, z))


@PROPERTY
@given(st.one_of(matrices(), low_rank_matrices()))
def test_smith_certificate(M):
    U, D, V = smith_normal_form(M)
    m, n = M.shape
    assert (U.shape, D.shape, V.shape) == ((m, m), (m, n), (n, n))
    assert U @ M @ V == D
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    assert all(D[i, j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [int(D[i, i]) for i in range(min(m, n))]
    nonzero = [d for d in diag if d]
    # nonzero factors are positive, lead the diagonal and divide each next one
    assert diag[:len(nonzero)] == nonzero and all(d > 0 for d in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert len(nonzero) == rational_rank(M)
    assert nonzero == diagonal_of_snf(M)


@st.composite
def maps_and_lattices(draw):
    """(A, L) with one row count, each at most 4 x 4; A is zero in about
    half the draws, and empty shapes come up often."""
    m, g, k = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(n, zero):
        if zero:
            return zeros(m, n)
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
        return intmat(rows, (m, n))
    return matrix(g, draw(st.booleans())), matrix(k, False)


@PROPERTY
@given(maps_and_lattices())
def test_zero_input_short_cuts_match_the_full_routes(case):
    """Shape and columns, entry for entry, as the full echelon gives them."""
    A, L = case
    assert lattice_basis(A) == full_lattice_basis(A)
    assert SpanChecker(A).pivots == full_span_pivots(A)
    assert diagonal_of_snf(A) == full_diagonal_of_snf(A)
    assert preimage_lattice(A, L) == full_preimage_lattice(A, L)
