"""IntMatrix against plain lists of rows, and the inputs of every public
intlinalg call left as they were."""

import random

import pytest

from posetlim import intlinalg as la
from posetlim.intlinalg import IntMatrix, eye, from_blocks, hstack, intmat, zeros

from helpers import dense_matmul, det, kernel, smith_normal_form


def random_rows(rng, m, n, density=0.4, bound=9):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def random_matrix(rng, max_dim=7):
    m, n = rng.randrange(0, max_dim + 1), rng.randrange(0, max_dim + 1)
    return intmat(random_rows(rng, m, n), (m, n))


def no_zero_keys(M):
    return all(all(col.values()) for col in M.cols)


def snapshot(M):
    return M.shape, [dict(col) for col in M.cols]


def test_rows_round_trip():
    rng = random.Random(601)
    for _ in range(200):
        m, n = rng.randrange(1, 8), rng.randrange(0, 8)
        rows = random_rows(rng, m, n)
        M = intmat(rows)
        assert M.shape == (m, n)
        assert M.tolist() == rows
        assert no_zero_keys(M)
        assert M.flat == [x for row in rows for x in row]
        assert M.size == m * n
        for j in range(n):
            assert M[:, j] == tuple(row[j] for row in rows)
            for i in range(m):
                assert M[i, j] == rows[i][j]
        assert intmat(M.tolist(), M.shape) == M


def test_product_matches_dense_product():
    rng = random.Random(602)
    for _ in range(200):
        m, k, n = (rng.randrange(0, 7) for _ in range(3))
        a, b = random_rows(rng, m, k), random_rows(rng, k, n)
        got = intmat(a, (m, k)) @ intmat(b, (k, n))
        assert got.shape == (m, n)
        assert got.tolist() == dense_matmul(a, b, n)
        assert no_zero_keys(got)
    with pytest.raises(ValueError):
        eye(2) @ eye(3)


def test_transpose_and_arithmetic():
    rng = random.Random(603)
    for _ in range(200):
        M = random_matrix(rng)
        N = intmat(random_rows(rng, *M.shape), M.shape)
        rows, other = M.tolist(), N.tolist()
        assert M.T.T == M
        assert M.T.shape == M.shape[::-1]
        assert M.T.tolist() == [[row[j] for row in rows] for j in range(M.shape[1])]
        assert (M + N).tolist() == [[x + y for x, y in zip(r, s)] for r, s in zip(rows, other)]
        assert (M - N).tolist() == [[x - y for x, y in zip(r, s)] for r, s in zip(rows, other)]
        assert (-M).tolist() == [[-x for x in r] for r in rows]
        assert (3 * M).tolist() == (M * 3).tolist() == [[3 * x for x in r] for r in rows]
        assert M - M == 0 * M == zeros(*M.shape)
        for R in (M + N, M - N, M - M, 0 * M, -M):
            assert no_zero_keys(R)
    assert intmat([[1, 2]]) != intmat([[1], [2]])
    assert zeros(2, 0) != zeros(0, 2)


def test_empty_shapes():
    for m, n in [(0, 0), (0, 4), (4, 0)]:
        Z = zeros(m, n)
        assert Z.shape == (m, n) and Z.size == 0 and Z.flat == []
        assert Z.tolist() == [[] for _ in range(m)]
        assert Z.T.shape == (n, m)
        assert intmat(Z.tolist(), (m, n)) == Z
        assert Z == from_blocks(m, n, [])
    assert intmat([]).shape == (0, 0)
    assert intmat([], (0, 3)).shape == (0, 3)
    assert intmat([[], []]).shape == (2, 0)
    assert (zeros(2, 0) @ zeros(0, 3)) == zeros(2, 3)
    assert (zeros(0, 2) @ intmat([[1, 2, 3], [4, 5, 6]])).shape == (0, 3)
    assert (intmat([[1, 2]]) @ zeros(2, 0)).shape == (1, 0)
    assert hstack([zeros(3, 0), eye(3), zeros(3, 0)]) == eye(3)
    assert zeros(0, 3)[:, 1] == ()


def test_indexing_outside_raises():
    M = intmat([[1, 2], [3, 4]])
    for key in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            M[key]
    with pytest.raises(ValueError):
        intmat([[1, 2], [3]])


def test_from_blocks_matches_dense_placement():
    rng = random.Random(604)
    for _ in range(300):
        m, n = rng.randrange(0, 9), rng.randrange(0, 9)
        blocks = []
        for _ in range(rng.randrange(0, 6)):
            h, w = rng.randrange(0, m + 1), rng.randrange(0, n + 1)
            r0, c0 = rng.randrange(0, m - h + 1), rng.randrange(0, n - w + 1)
            c = rng.choice([1, -1, 2, 0, -3])
            B = intmat(random_rows(rng, h, w, density=0.6, bound=3), (h, w))
            blocks.append((r0, c0, c, B))
            if rng.random() < 0.3:
                # the same block with the opposite sign cancels it
                blocks.append((r0, c0, -c, B))
        want = [[0] * n for _ in range(m)]
        for r0, c0, c, B in blocks:
            for i, row in enumerate(B.tolist()):
                for j, x in enumerate(row):
                    want[r0 + i][c0 + j] += c * x
        got = from_blocks(m, n, blocks)
        assert got.shape == (m, n)
        assert got.tolist() == want
        assert no_zero_keys(got)


def test_from_blocks_overlap_and_cancel():
    A = intmat([[1, 2], [3, 4]])
    got = from_blocks(3, 3, [(0, 0, 1, A), (1, 1, 1, A), (0, 0, 2, eye(1))])
    assert got.tolist() == [[3, 2, 0], [3, 5, 2], [0, 3, 4]]
    gone = from_blocks(2, 2, [(0, 0, 1, A), (0, 0, -1, A)])
    assert gone == zeros(2, 2) and not any(gone.cols)
    half = from_blocks(2, 3, [(0, 1, 1, A), (0, 1, -1, intmat([[1, 0], [0, 4]]))])
    assert half.tolist() == [[0, 0, 2], [0, 3, 0]] and no_zero_keys(half)
    with pytest.raises(ValueError):
        from_blocks(2, 2, [(1, 0, 1, A)])


def _public_calls(rng, M):
    """(name, call) pairs running every public intlinalg routine on M and
    matrices made from it."""
    m, n = M.shape
    Y = intmat(random_rows(rng, n, 2, density=0.7, bound=3), (n, 2))
    X = M @ Y
    X_odd = intmat(random_rows(rng, m, 2, density=0.7), (m, 2))
    L = intmat(random_rows(rng, m, 3, density=0.5, bound=4), (m, 3))
    x = [rng.randint(-5, 5) for _ in range(m)]
    square = intmat(random_rows(rng, m, m), (m, m))
    return [
        ("lattice_basis", lambda: la.lattice_basis(M)),
        ("kernel", lambda: kernel(M)),
        ("solve", lambda: la.solve(M, X)),
        ("solve unsolvable", lambda: la.solve(M, X_odd)),
        ("SpanChecker", lambda: la.SpanChecker(M)),
        ("residue", lambda: la.SpanChecker(M).residue(x)),
        ("contains", lambda: la.SpanChecker(M).contains(X.cols[0] if X.cols else {})),
        ("contains_all", lambda: la.SpanChecker(M).contains_all(X_odd)),
        ("smith_normal_form", lambda: smith_normal_form(M)),
        ("diagonal_of_snf", lambda: la.diagonal_of_snf(M)),
        ("det", lambda: det(square)),
        ("preimage_lattice", lambda: la.preimage_lattice(M, L)),
        ("intersect_lattices", lambda: la.intersect_lattices(M, L)),
        ("hstack", lambda: la.hstack([M, L])),
        ("from_blocks", lambda: from_blocks(m, n, [(0, 0, 2, M), (0, 0, -1, M)])),
        ("arithmetic", lambda: (M + M, M - M, -M, 3 * M, M.T, M @ Y)),
    ], [M, X, X_odd, L, square, Y]


def test_public_calls_leave_inputs_unchanged():
    rng = random.Random(605)
    mats = [random_matrix(rng) for _ in range(80)]
    # columns that echelon steps reduce against each other
    mats += [intmat([[2, 4, 6], [1, 3, 5]]), intmat([[1, 1, 1], [0, 2, 2], [0, 0, 3]]),
             intmat([[6, 10, 15]]), intmat([[4, 6], [6, 9]])]
    for M in mats:
        calls, inputs = _public_calls(rng, M)
        before = [snapshot(A) for A in inputs]
        for name, call in calls:
            call()
            assert [snapshot(A) for A in inputs] == before, name


def test_identity_is_shared_and_never_changed():
    # eye is memoized, so every caller holds the same matrix, and no
    # routine may change its columns
    assert eye(3) is eye(3)
    calls, _ = _public_calls(random.Random(606), eye(3))
    for name, call in calls:
        call()
        assert eye(3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]], name


def test_results_share_nothing_mutable_with_inputs():
    # results are built from copies, so a reduction that runs on a result
    # later cannot reach back into the input
    M = intmat([[2, 4, 6], [1, 3, 5]])
    keep = snapshot(M)
    for R in (la.lattice_basis(M), kernel(M), la.solve(M, M), la.hstack([M]),
              la.intersect_lattices(M, M), la.preimage_lattice(M, M)):
        la.lattice_basis(R)
        kernel(R)
    assert snapshot(M) == keep
    assert isinstance(la.solve(M, M), IntMatrix)
