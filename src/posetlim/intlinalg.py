"""Exact integer matrix algebra on numpy object arrays.

All matrices carry Python ints (dtype=object), so arithmetic never
overflows.  Columns are the working unit: the span of a matrix always
means the span of its columns.  Core loops run on lists of lists and
convert back at the boundary.

One column echelon routine serves lattice bases, kernels, solving, span
membership and invariant factors, which need no transforms (Cohen, *A
Course in Computational Algebraic Number Theory*, 2.4).  smith_normal_form
keeps its unimodular certificates and is their oracle.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def intmat(rows) -> np.ndarray:
    """Build an exact integer matrix from an iterable of rows.

    >>> intmat([[1, 2], [3, 4]])[1, 0]
    3
    """
    rows = [[int(x) for x in row] for row in rows]
    if not rows:
        return np.empty((0, 0), dtype=object)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    out = np.empty((len(rows), width), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[...] = 0
    return out


def eye(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def hstack(mats) -> np.ndarray:
    mats = list(mats)
    if not mats:
        raise ValueError("nothing to stack")
    m = mats[0].shape[0]
    if any(a.shape[0] != m for a in mats):
        raise ValueError("row counts differ")
    total = sum(a.shape[1] for a in mats)
    out = zeros(m, total)
    at = 0
    for a in mats:
        if a.shape[1]:
            out[:, at:at + a.shape[1]] = a
        at += a.shape[1]
    return out


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and all(
        a[i, j] == b[i, j] for i in range(a.shape[0]) for j in range(a.shape[1]))


def _to_cols(M: np.ndarray):
    m, n = M.shape
    return [[int(M[i, j]) for i in range(m)] for j in range(n)]


def _from_cols(cols, m: int) -> np.ndarray:
    out = zeros(m, len(cols))
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            out[i, j] = x
    return out


def _xgcd(a: int, b: int):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _echelon_cols(cols, m: int, track: bool):
    """Column echelon form by unimodular column operations, in place.

    Returns (pivots, live, tcols): pivots lists (lead_row, column index) in
    increasing lead_row order, live the indices of the columns reduced to
    zero, and tcols[j] the combination of original columns that gives
    column j, so the live ones span the kernel (None unless track).
    """
    n = len(cols)
    tcols = [[1 if i == j else 0 for i in range(n)] for j in range(n)] if track else None
    live = list(range(n))
    pivots = []
    for r in range(m):
        active = [j for j in live if cols[j][r] != 0]
        if not active:
            continue
        piv = active[0]
        for j in active[1:]:
            a, b = cols[piv][r], cols[j][r]
            if b % a == 0:
                q = b // a
                _col_axpy(cols[j], cols[piv], -q)
                if track:
                    _col_axpy(tcols[j], tcols[piv], -q)
                continue
            g, s, t = _xgcd(a, b)
            u, v = a // g, b // g
            cols[piv], cols[j] = (
                [s * p + t * q_ for p, q_ in zip(cols[piv], cols[j])],
                [-v * p + u * q_ for p, q_ in zip(cols[piv], cols[j])],
            )
            if track:
                tcols[piv], tcols[j] = (
                    [s * p + t * q_ for p, q_ in zip(tcols[piv], tcols[j])],
                    [-v * p + u * q_ for p, q_ in zip(tcols[piv], tcols[j])],
                )
        if cols[piv][r] < 0:
            cols[piv] = [-x for x in cols[piv]]
            if track:
                tcols[piv] = [-x for x in tcols[piv]]
        pivots.append((r, piv))
        live.remove(piv)
    return pivots, live, tcols


def _col_axpy(target, source, c):
    for i in range(len(target)):
        target[i] += c * source[i]


def lattice_basis(M: np.ndarray) -> np.ndarray:
    """Echelon basis of the column span: independent columns with strictly
    increasing leading rows and positive leading entries."""
    m = M.shape[0]
    cols = _to_cols(M)
    pivots, _, _ = _echelon_cols(cols, m, track=False)
    return _from_cols([cols[j] for _, j in pivots], m)


def kernel(M: np.ndarray) -> np.ndarray:
    """Basis of the integer kernel {x : M x = 0}, one column per basis vector."""
    m, n = M.shape
    cols = _to_cols(M)
    _, live, tcols = _echelon_cols(cols, m, track=True)
    return _from_cols([tcols[j] for j in live], n)


def solve(M: np.ndarray, X: np.ndarray):
    """Integer solution Y of M Y = X, or None when some column has none."""
    m, n = M.shape
    cols = _to_cols(M)
    pivots, _, tcols = _echelon_cols(cols, m, track=True)
    pivots = [(r, cols[j], tcols[j]) for r, j in pivots]
    ycols = []
    for j in range(X.shape[1]):
        resid = [int(X[i, j]) for i in range(m)]
        y = [0] * n
        for r, col, tcol in pivots:
            if resid[r] == 0:
                continue
            if resid[r] % col[r]:
                return None
            c = resid[r] // col[r]
            for i in range(r, m):
                resid[i] -= c * col[i]
            for i in range(n):
                y[i] += c * tcol[i]
        if any(resid):
            return None
        ycols.append(y)
    return _from_cols(ycols, n)


class SpanChecker:
    """Reusable membership oracle for one column span (echelon cached once)."""

    def __init__(self, M: np.ndarray):
        self.m = M.shape[0]
        cols = _to_cols(M)
        pivots, _, _ = _echelon_cols(cols, self.m, track=False)
        self.pivots = [(r, cols[j]) for r, j in pivots]

    def residue(self, x):
        y = [int(v) for v in x]
        for r, col in self.pivots:
            if y[r] == 0:
                continue
            q = y[r] // col[r]
            if q:
                for i in range(r, self.m):
                    y[i] -= q * col[i]
        return y

    def contains(self, x) -> bool:
        # residues are unique per coset, so members are exactly residue 0
        return not any(self.residue(x))

    def contains_all(self, M: np.ndarray) -> bool:
        return all(self.contains(M[:, j]) for j in range(M.shape[1]))


def smith_normal_form(M: np.ndarray):
    """Smith normal form with certificate: (U, D, V) with U @ M @ V == D,
    U and V unimodular, and D diagonal with d1 | d2 | ... | dk, all >= 0.

    >>> U, D, V = smith_normal_form(intmat([[2, 4], [6, 8]]))
    >>> [int(D[i, i]) for i in range(2)]
    [2, 4]
    """
    m, n = M.shape
    D = [[int(M[i, j]) for j in range(n)] for i in range(m)]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_axpy(dst, src, c):
        D[dst] = [a + c * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def col_axpy(dst, src, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    def balanced_q(a, p):
        # quotient minimizing |a - q*p|, p > 0
        return (2 * a + p) // (2 * p)

    k = 0
    while k < min(m, n):
        # re-select the smallest nonzero entry of the trailing block every
        # sweep; this is what keeps intermediate entries from exploding
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != k:
            row_swap(k, best[0])
        if best[1] != k:
            col_swap(k, best[1])
        if D[k][k] < 0:
            row_neg(k)
        p = D[k][k]
        col_dirty = False
        for i in range(k + 1, m):
            if D[i][k] != 0:
                row_axpy(i, k, -balanced_q(D[i][k], p))
                if D[i][k] != 0:
                    col_dirty = True
        if col_dirty:
            continue
        row_dirty = False
        for j in range(k + 1, n):
            if D[k][j] != 0:
                col_axpy(j, k, -balanced_q(D[k][j], p))
                if D[k][j] != 0:
                    row_dirty = True
        if row_dirty:
            continue
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if D[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_axpy(k, offender, 1)
            continue
        k += 1
    for i in range(k):
        if D[i][i] < 0:
            row_neg(i)

    def shaped(rows, height, width):
        out = zeros(height, width)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                out[i, j] = x
        return out

    return shaped(U, m, m), shaped(D, m, n), shaped(V, n, n)


def diagonal_of_snf(M: np.ndarray):
    """Nonzero invariant factors d1 | d2 | ... of M, without transforms.

    An echelon basis of the columns with all leading entries 1 spans a
    direct summand, so all factors are 1.  Otherwise Smith elimination runs
    on that basis alone by alternating row and column echelon steps (each
    splits off its first pivot or makes it strictly smaller), and gcd/lcm
    exchanges turn the final diagonal into a divisor chain.
    """
    m = M.shape[0]
    cols = _to_cols(M)
    while True:
        pivots, _, _ = _echelon_cols(cols, m, track=False)
        cols = [cols[j] for _, j in pivots]
        diag = [col[r] for (r, _), col in zip(pivots, cols)]
        if all(d == 1 for d in diag):
            return diag
        if all(sum(1 for x in col if x) == 1 for col in cols):
            break
        m = len(cols)
        cols = [list(row) for row in zip(*cols) if any(row)]
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] // g * diag[b]
    return diag


def det(M: np.ndarray) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n, n2 = M.shape
    if n != n2:
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    a = [[int(M[i, j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def preimage_lattice(A: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Basis of {x : A x lies in the column span of L}.

    Computed as the projection of ker [A | -L] onto the x block.
    """
    g = A.shape[1]
    if L.shape[1] == 0:
        K = kernel(A)
        return lattice_basis(K)
    block = hstack([A, -L])
    K = kernel(block)
    return lattice_basis(K[:g, :])


def intersect_lattices(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Basis of (column span of A) intersected with (column span of B)."""
    if A.shape[1] == 0 or B.shape[1] == 0:
        return zeros(A.shape[0], 0)
    K = kernel(hstack([A, -B]))
    return lattice_basis(A @ K[:A.shape[1], :])


def sublattice_supported_on(L: np.ndarray, keep_rows) -> np.ndarray:
    """Basis of the elements of span(L) whose coordinates vanish outside
    keep_rows (a boolean list per row)."""
    drop = [i for i, keep in enumerate(keep_rows) if not keep]
    if not drop or L.shape[1] == 0:
        return lattice_basis(L)
    P = zeros(len(drop), L.shape[0])
    for r, i in enumerate(drop):
        P[r, i] = 1
    K = kernel(P @ L)
    return lattice_basis(L @ K)
