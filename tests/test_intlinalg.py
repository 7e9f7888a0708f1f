"""Certificate and brute-force tests for the integer matrix core."""

import random

import pytest

from posetlim import intlinalg as la
from posetlim.intlinalg import (
    IntMatrix,
    diagonal_of_snf,
    eye,
    hstack,
    intersect_lattices,
    intmat,
    lattice_basis,
    preimage_lattice,
    solve,
    SpanChecker,
    zeros,
)

from helpers import dense_diagonal_of_snf, det, kernel, smith_normal_form


def random_matrix(rng, max_dim=12, bound=50):
    m = rng.randrange(0, max_dim + 1)
    n = rng.randrange(0, max_dim + 1)
    return intmat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def check_certificate(M):
    U, D, V = smith_normal_form(M)
    m, n = M.shape
    assert U.shape == (m, m) and V.shape == (n, n) and D.shape == (m, n)
    assert U @ M @ V == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    diag = [int(D[i, i]) for i in range(min(m, n))]
    # off-diagonal zero
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i, j] == 0
    # nonnegative, divisibility chain, zeros trail
    for i, d in enumerate(diag):
        assert d >= 0
        if i + 1 < len(diag) and diag[i + 1] != 0:
            assert d != 0 and diag[i + 1] % d == 0
        if d == 0 and i + 1 < len(diag):
            assert diag[i + 1] == 0


def test_snf_certificate_seeded_batch():
    rng = random.Random(20260816)
    for _ in range(300):
        check_certificate(random_matrix(rng))


def test_snf_known_values():
    _, D, _ = smith_normal_form(intmat([[2, 4], [6, 8]]))
    assert [int(D[0, 0]), int(D[1, 1])] == [2, 4]
    # relations of Z^3 / span{(-1,2,0), (-1,0,2)}: factors 1, 2
    _, D, _ = smith_normal_form(intmat([[-1, -1], [2, 0], [0, 2]]))
    assert [int(D[0, 0]), int(D[1, 1])] == [1, 2]
    # empty shapes
    for shape in [(0, 0), (0, 3), (3, 0)]:
        M = zeros(*shape)
        U, D, V = smith_normal_form(M)
        assert D.shape == shape
        check_certificate(M)


def snf_diagonal(M):
    """Nonzero diagonal of the certified Smith normal form."""
    U, D, V = smith_normal_form(M)
    assert U @ M @ V == D
    return [int(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0]


def test_diagonal_of_snf_matches_certified_snf_seeded_batch():
    # both Smith forms run one elimination loop, so the dense reference in
    # helpers is the oracle; the certificate is still checked on each
    rng = random.Random(20261017)
    for _ in range(300):
        M = random_matrix(rng)
        assert diagonal_of_snf(M) == dense_diagonal_of_snf(M) == snf_diagonal(M)
    # sparse, low-rank and torsion-heavy matrices, like relation matrices
    for _ in range(300):
        m, n = rng.randrange(1, 10), rng.randrange(1, 10)
        M = intmat([[rng.choice([0, 0, 0, 1, -1, 2, -2, 3, 4, 6]) for _ in range(n)]
                    for _ in range(m)])
        assert diagonal_of_snf(M) == dense_diagonal_of_snf(M) == snf_diagonal(M)


def test_a_divisor_chain_diagonal_needs_no_gcd(monkeypatch):
    # 3,000 equal factors already form a divisor chain once sorted, so
    # the quadratic gcd/lcm exchange must not run: calling None raises
    monkeypatch.setattr(la, "gcd", None)
    monkeypatch.setattr(la, "_xgcd", None)
    M = IntMatrix((3000, 3000), [{j: 2} for j in range(3000)])
    assert diagonal_of_snf(M) == [2] * 3000
    # sorting alone makes a chain of a permuted one
    assert diagonal_of_snf(intmat([[0, 0, 6], [3, 0, 0], [0, 12, 0]])) == [3, 6, 12]


def test_diagonal_of_snf_edge_cases():
    # 0 x n, m x 0 and all-zero matrices have no invariant factors
    for shape in [(0, 0), (0, 4), (4, 0), (3, 5)]:
        assert diagonal_of_snf(zeros(*shape)) == []
    # rank deficient: the third column is the sum of the first two
    M = intmat([[2, 0, 2], [0, 4, 4], [0, 0, 0]])
    assert diagonal_of_snf(M) == snf_diagonal(M) == [2, 4]
    # negative leading entries, and factors that are not a divisor chain
    # as given: diag(-4, 6) has invariant factors 2, 12
    M = intmat([[-4, 0], [0, 6]])
    assert diagonal_of_snf(M) == snf_diagonal(M) == [2, 12]
    M = intmat([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    assert diagonal_of_snf(M) == dense_diagonal_of_snf(M) == snf_diagonal(M) == [2, 2, 60]
    M = intmat([[-1, -1], [2, 0], [0, 2]])
    assert diagonal_of_snf(M) == snf_diagonal(M) == [1, 2]
    # unit pivots mixed with torsion
    M = intmat([[1, 0, 0], [3, 2, 0], [5, 7, 3]])
    assert diagonal_of_snf(M) == snf_diagonal(M) == [1, 1, 6]


def test_diagonal_of_snf_unit_pivot_fast_path():
    # every echelon leading entry is 1, so the span is a direct summand
    M = intmat([[1, 0, 1], [5, 1, 6], [-3, 7, 4], [2, 2, 4]])
    assert diagonal_of_snf(M) == snf_diagonal(M) == [1, 1]
    assert diagonal_of_snf(eye(5)) == [1] * 5
    # -1 leads become 1 once the echelon makes them positive
    M = intmat([[-1, 0], [4, -1]])
    assert diagonal_of_snf(M) == snf_diagonal(M) == [1, 1]


def test_diagonal_of_snf_matches_sympy():
    matrices = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    rng = random.Random(17)
    cases = [[[4, 0, 0], [0, 6, 0], [0, 0, 10]]]  # no divisor chain: factors 2, 2, 60
    for _ in range(150):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        cases.append([[rng.choice([0, 0, 1, -1, 2, 3, -4, 6, rng.randint(-20, 20)])
                       for _ in range(n)] for _ in range(m)])
    for rows in cases:
        S = matrices.smith_normal_form(Matrix(rows), domain=ZZ)
        want = sorted(abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0)
        assert diagonal_of_snf(intmat(rows)) == want


def test_kernel_and_solve():
    rng = random.Random(7)
    for _ in range(200):
        M = random_matrix(rng, max_dim=7, bound=9)
        K = kernel(M)
        # every kernel column annihilated
        if K.shape[1]:
            prod = M @ K
            assert all(prod[i, j] == 0 for i in range(prod.shape[0])
                       for j in range(prod.shape[1]))
        # solve recovers random combinations
        n = M.shape[1]
        coeffs = intmat([[rng.randint(-4, 4)] for _ in range(n)]) if n else zeros(0, 1)
        X = M @ coeffs if n else zeros(M.shape[0], 1)
        Y = solve(M, X)
        assert Y is not None
        got = M @ Y if n else zeros(M.shape[0], 1)
        assert got == X


def test_solve_reports_unsolvable():
    M = intmat([[2, 0], [0, 3]])
    X = intmat([[1], [0]])
    assert solve(M, X) is None
    assert not SpanChecker(M).contains([1, 0])
    assert SpanChecker(M).contains([2, 3])


def test_kernel_rank_plus_rank_is_ncols():
    rng = random.Random(99)
    for _ in range(100):
        M = random_matrix(rng, max_dim=8, bound=20)
        K = kernel(M)
        B = lattice_basis(M)
        assert K.shape[1] + B.shape[1] == M.shape[1]


def test_lattice_basis_spans_same_lattice():
    rng = random.Random(3)
    for _ in range(100):
        M = random_matrix(rng, max_dim=6, bound=12)
        B = lattice_basis(M)
        chk_b = SpanChecker(B)
        chk_m = SpanChecker(M)
        assert chk_b.contains_all(M)
        assert chk_m.contains_all(B)


def test_intersection_brute_force_small():
    rng = random.Random(5)
    for _ in range(60):
        g = rng.randrange(1, 4)
        wa, wb = rng.randrange(0, 3), rng.randrange(0, 3)
        A = intmat([[rng.randint(-3, 3) for _ in range(wa)] for _ in range(g)])
        B = intmat([[rng.randint(-3, 3) for _ in range(wb)] for _ in range(g)])
        if A.shape == (0, 0):
            A = zeros(g, 0)
        if B.shape == (0, 0):
            B = zeros(g, 0)
        C = intersect_lattices(A, B)
        in_a = SpanChecker(A)
        in_b = SpanChecker(B)
        for j in range(C.shape[1]):
            assert in_a.contains(C[:, j]) and in_b.contains(C[:, j])
        # small combinations of A-columns that happen to lie in B must lie in C
        in_c = SpanChecker(C)
        na = A.shape[1]
        if na and na <= 2:
            span = range(-3, 4)
            import itertools
            for combo in itertools.product(span, repeat=na):
                v = [sum(int(A[i, j]) * combo[j] for j in range(na)) for i in range(g)]
                if in_b.contains(v):
                    assert in_c.contains(v)


def test_preimage_lattice_definition():
    rng = random.Random(11)
    for _ in range(80):
        g = rng.randrange(1, 5)
        h = rng.randrange(1, 5)
        wl = rng.randrange(0, 3)
        A = intmat([[rng.randint(-4, 4) for _ in range(g)] for _ in range(h)])
        L = intmat([[rng.randint(-4, 4) for _ in range(wl)] for _ in range(h)])
        if L.shape == (0, 0):
            L = zeros(h, 0)
        P = preimage_lattice(A, L)
        chk = SpanChecker(L)
        images = A @ P
        for j in range(P.shape[1]):
            assert chk.contains(images[:, j])
        # random vectors: membership in P iff image in span(L)
        chk_p = SpanChecker(P)
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(g)]
            img = [sum(int(A[i, j]) * x[j] for j in range(g)) for i in range(h)]
            assert chk_p.contains(x) == chk.contains(img)


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(1, 6)
        M = intmat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert det(M) == sympy.Matrix(M.tolist()).det()


def test_hstack_and_eye():
    A = eye(2)
    B = zeros(2, 0)
    C = hstack([A, B, A])
    assert C.shape == (2, 4)
    assert C.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
