"""The sparse intlinalg core against the dense reference in helpers.

Same pivots and the same arithmetic mean the same matrices, so every
comparison here is entry for entry, not only span for span.
"""

import random

from posetlim import intlinalg as la
from posetlim.intlinalg import (
    SpanChecker,
    diagonal_of_snf,
    hstack,
    intersect_lattices,
    intmat,
    lattice_basis,
    preimage_lattice,
    solve,
    zeros,
)

from helpers import (
    dense_diagonal_of_snf,
    dense_echelon_cols,
    dense_kernel,
    dense_lattice_basis,
    dense_residue,
    dense_solve,
    kernel,
)


def assert_identical(got, want):
    """got is an IntMatrix or None, want a (shape, rows) pair or None."""
    if want is None:
        assert got is None
        return
    assert got is not None and got.shape == want[0]
    assert got.tolist() == want[1]
    assert all(type(x) is int for row in got.tolist() for x in row)
    assert all(all(col.values()) for col in got.cols)


def top_rows(want, g):
    """The first g rows of a (shape, rows) pair, as an IntMatrix."""
    (_, k), rows = want
    return intmat(rows[:g], (g, k))


def random_sparse(rng, m, n, density, values=(1, -1, 1, -1, 2, -2, 3)):
    return intmat([[rng.choice(values) if rng.random() < density else 0
                    for _ in range(n)] for _ in range(m)]) if m else zeros(0, n)


def nerve_like(rng):
    """Wide, under 5% nonzero, mostly +-1 with a few larger entries."""
    m, n = rng.randrange(20, 50), rng.randrange(60, 120)
    return random_sparse(rng, m, n, rng.uniform(0.01, 0.045))


def torsion_block(rng):
    """[A | -L] with L a diagonal of torsion relations."""
    g, h = rng.randrange(1, 8), rng.randrange(1, 8)
    A = random_sparse(rng, h, g, 0.4, values=(1, -1, 2, 3, -4, 6))
    diag = [rng.choice([1, 2, 3, 4, 6, 0]) for _ in range(h)]
    L = intmat([[diag[i] if i == j else 0 for j in range(h)] for i in range(h)])
    return A, L


def xgcd_heavy(rng):
    """Entries that rarely divide each other, so the xgcd step runs."""
    m, n = rng.randrange(1, 7), rng.randrange(1, 7)
    return random_sparse(rng, m, n, 0.7, values=(2, 3, 5, -4, 6, -9, 10, 15, 7))


def edge_shapes():
    out = [zeros(0, 0), zeros(0, 5), zeros(5, 0), zeros(4, 6),
           intmat([[0, 2, 0, 3], [0, 0, 0, 5]]),          # zero columns
           intmat([[-2, -3], [4, 0], [0, -5]]),            # negative leads
           intmat([[-1, 0], [3, -1]]),
           intmat([[2, 3]]), intmat([[6, 10, 15]]),        # xgcd pairs
           intmat([[4, 6], [6, 9]])]
    return out


def batch(seed):
    rng = random.Random(seed)
    mats = edge_shapes()
    mats += [nerve_like(rng) for _ in range(25)]
    mats += [hstack([A, -L]) for A, L in (torsion_block(rng) for _ in range(60))]
    mats += [xgcd_heavy(rng) for _ in range(120)]
    return rng, mats


def sparse_dense(col, m):
    return [col.get(i, 0) for i in range(m)]


def test_echelon_cols_matches_dense_reference():
    _, mats = batch(31)
    for M in mats:
        m, n = M.shape
        for track in (False, True):
            cols = [dict(col) for col in M.cols]
            dcols = [[int(M[i, j]) for i in range(m)] for j in range(n)]
            pivots, live, tcols = la._echelon_cols(cols, track)
            dpivots, dlive, dtcols = dense_echelon_cols(dcols, m, track)
            assert pivots == dpivots and live == dlive
            # no column holds an explicit zero
            assert all(all(col.values()) for col in cols)
            assert [sparse_dense(c, m) for c in cols] == dcols
            if track:
                assert all(all(t.values()) for t in tcols)
                assert [sparse_dense(t, n) for t in tcols] == dtcols


def test_sparse_core_matches_dense_reference():
    for seed in (1, 2):
        rng, mats = batch(seed)
        for M in mats:
            m, n = M.shape
            assert_identical(lattice_basis(M), dense_lattice_basis(M))
            assert_identical(kernel(M), dense_kernel(M))
            assert diagonal_of_snf(M) == dense_diagonal_of_snf(M)
            chk = SpanChecker(M)
            for _ in range(3):
                x = [rng.randint(-6, 6) if rng.random() < 0.3 else 0 for _ in range(m)]
                assert chk.residue(x) == dense_residue(M, x)
            # solvable right-hand sides, and ones that are usually not
            Y = intmat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)]) if n else zeros(0, 2)
            X = M @ Y if n else zeros(m, 2)
            assert_identical(solve(M, X), dense_solve(M, X))
            if m:
                rows = X.tolist()
                i, j = rng.randrange(m), rng.randrange(2)
                rows[i][j] += rng.choice([1, 2, 3])
                X2 = intmat(rows)
                assert_identical(solve(M, X2), dense_solve(M, X2))
            assert_identical(solve(M, zeros(m, 0)), dense_solve(M, zeros(m, 0)))


def test_solve_none_cases_match():
    M = intmat([[2, 0], [0, 3], [0, 0]])
    for col in ([1, 0, 0], [0, 0, 1], [2, 3, 1], [4, 6, 0]):
        X = intmat([[v] for v in col])
        assert_identical(solve(M, X), dense_solve(M, X))
    assert solve(M, intmat([[1], [0], [0]])) is None
    assert solve(M, intmat([[2], [3], [1]])) is None
    assert solve(zeros(0, 3), zeros(0, 2)).shape == (3, 2)


def test_lattice_operations_match_dense_composition():
    rng = random.Random(5)
    for _ in range(60):
        A, L = torsion_block(rng)
        g = A.shape[1]
        want = dense_lattice_basis(top_rows(dense_kernel(hstack([A, -L])), g))
        assert_identical(preimage_lattice(A, L), want)
        B = random_sparse(rng, A.shape[0], rng.randrange(1, 5), 0.5)
        K = top_rows(dense_kernel(hstack([A, -B])), g)
        assert_identical(intersect_lattices(A, B), dense_lattice_basis(A @ K))
