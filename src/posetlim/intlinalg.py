"""Exact integer matrices, stored as sparse columns.

IntMatrix is the one matrix type: an immutable m x n matrix held as a
tuple of columns, each a {row: value} dict of its nonzero entries.
Entries are Python ints, so arithmetic never overflows, and every column
operation touches only nonzero entries.  Columns are the working unit:
the span of a matrix always means the span of its columns.  Matrices
share columns freely, so a column is never changed once it is in a
matrix; the routines below copy the columns they reduce in place.

One column echelon routine serves lattice bases, kernels, span
membership and solving (both in SpanChecker), the filtration-ordered
cycle lattices of spectral pages, and Smith normal forms.  One Smith
driver alternates its column and row steps: diagonal_of_snf runs it
without transforms for the invariant factors every group needs (Cohen,
*A Course in Computational Algebraic Number Theory*, 2.4), and
smith_normal_form runs it tracked for the unimodular certificates.

A matrix with no nonzero entry decides its answer at once: the basis,
invariant factors and span checker of a zero matrix are empty, and the
preimage of any lattice under it is the identity.  The relations of
every free group and every zero map take that route.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd


class IntMatrix:
    """Immutable integer matrix: shape (m, n) and n columns, each a
    {row: value} dict with no zero values.  The constructor trusts its
    columns; intmat, zeros, eye, hstack and from_blocks build checked ones.

    >>> (intmat([[1, 2], [3, 4]]) @ eye(2)).T.tolist()
    [[1, 3], [2, 4]]
    """

    __slots__ = ("shape", "cols")

    def __init__(self, shape, cols):
        self.shape = shape
        self.cols = tuple(cols)

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def T(self) -> "IntMatrix":
        rows = [{} for _ in range(self.shape[0])]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return IntMatrix(self.shape[::-1], rows)

    def tolist(self):
        m, n = self.shape
        rows = [[0] * n for _ in range(m)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return rows

    @property
    def flat(self):
        """All m * n entries in row-major order."""
        n = self.shape[1]
        out = [0] * self.size
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                out[i * n + j] = x
        return out

    def __getitem__(self, key):
        """M[i, j] is an entry, M[:, j] column j as a tuple."""
        i, j = key
        m, n = self.shape
        if not 0 <= j < n:
            raise IndexError(f"column {j} outside a {m}x{n} matrix")
        col = self.cols[j]
        if i == slice(None):
            return tuple(col.get(r, 0) for r in range(m))
        if not 0 <= i < m:
            raise IndexError(f"row {i} outside a {m}x{n} matrix")
        return col.get(i, 0)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.cols == other.cols

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        cols = self.cols
        out = []
        for coeffs in other.cols:
            # _axpy written out: small products are frequent
            acc = {}
            for k, c in coeffs.items():
                for i, x in cols[k].items():
                    v = acc.get(i, 0) + c * x
                    if v:
                        acc[i] = v
                    else:
                        del acc[i]
            out.append(acc)
        return IntMatrix((self.shape[0], other.shape[1]), out)

    def _plus(self, other, c):
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        out = [dict(a) for a in self.cols]
        for a, b in zip(out, other.cols):
            _axpy(a, b, c)
        return IntMatrix(self.shape, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, -1)

    def __mul__(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            return NotImplemented
        if not c:
            return zeros(*self.shape)
        return IntMatrix(self.shape, [{i: c * x for i, x in col.items()} for col in self.cols])

    __rmul__ = __mul__

    def __neg__(self) -> "IntMatrix":
        return self * -1

    def __repr__(self):
        return f"IntMatrix({self.shape[0]}x{self.shape[1]}, {self.tolist()})"


def intmat(rows, shape=None) -> IntMatrix:
    """The matrix with these rows.  No rows at all give zeros(*shape), or
    the 0 x 0 matrix when shape is None.

    >>> intmat([[1, 2], [3, 4]])[1, 0]
    3
    """
    rows = [[int(x) for x in row] for row in rows]
    if not rows:
        return zeros(*(shape or (0, 0)))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return IntMatrix((len(rows), width), cols)


def zeros(m: int, n: int) -> IntMatrix:
    return IntMatrix((m, n), [{} for _ in range(n)])


@cache
def eye(n: int) -> IntMatrix:
    """The n x n identity, one shared instance per n."""
    return IntMatrix((n, n), [{j: 1} for j in range(n)])


def hstack(mats) -> IntMatrix:
    mats = list(mats)
    if not mats:
        raise ValueError("nothing to stack")
    m = mats[0].shape[0]
    if any(a.shape[0] != m for a in mats):
        raise ValueError("row counts differ")
    return IntMatrix((m, sum(a.shape[1] for a in mats)), [c for a in mats for c in a.cols])


def from_blocks(m: int, n: int, blocks) -> IntMatrix:
    """The m x n matrix summing c * B with B's top left entry placed at
    (r0, c0), over blocks of (r0, c0, c, B).  Blocks may overlap; entries
    that cancel leave no zero behind.

    >>> from_blocks(2, 3, [(0, 1, 2, eye(1)), (1, 0, 1, intmat([[5, 1]]))]).tolist()
    [[0, 2, 0], [5, 1, 0]]
    """
    cols = [{} for _ in range(n)]
    for r0, c0, c, B in blocks:
        h, w = B.shape
        if r0 < 0 or c0 < 0 or r0 + h > m or c0 + w > n:
            raise ValueError(f"a {h}x{w} block at ({r0}, {c0}) leaves the {m}x{n} matrix")
        if c:
            for target, col in zip(cols[c0:c0 + w], B.cols):
                _axpy(target, {r0 + i: x for i, x in col.items()} if r0 else col, c)
    return IntMatrix((m, n), cols)


def _own_cols(M: IntMatrix):
    """Fresh copies of M's columns, for routines that change them."""
    return [dict(col) for col in M.cols]


def _axpy(target, source, c):
    """target += c * source for a nonzero c, deleting entries that cancel."""
    for i, x in source.items():
        v = target.get(i, 0) + c * x
        if v:
            target[i] = v
        else:
            del target[i]


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


def _unimodular_step(p, q, s, t, u, v):
    """(s*p + t*q, u*q - v*p) over the union of the two supports."""
    a, b = {}, {}
    for i in p.keys() | q.keys():
        x, y = p.get(i, 0), q.get(i, 0)
        if e := s * x + t * y:
            a[i] = e
        if e := u * y - v * x:
            b[i] = e
    return a, b


def _echelon_cols(cols, track: bool):
    """Column echelon form by unimodular column operations, in place.

    cols are {row: value} dicts.  Row by row, the lowest-index column
    that leads there becomes the pivot, and the others leading there are
    cleared against it in index order: by a multiple of the pivot when it
    divides them, else by an xgcd 2x2 step.  Columns not yet pivoted are
    zero above the current row, so they are indexed by leading row and a
    heap hands out the rows that have any.

    Returns (pivots, live, tcols): pivots lists (lead_row, column index) in
    increasing lead_row order, live the indices of the columns reduced to
    zero, and tcols[j] the combination of original columns that gives
    column j, so the live ones span the kernel (None unless track).
    """
    n = len(cols)
    tcols = [{j: 1} for j in range(n)] if track else None
    leading = {}
    for j, col in enumerate(cols):
        if col:
            leading.setdefault(min(col), []).append(j)
    rows = list(leading)
    heapify(rows)
    pivots = []
    while rows:
        r = heappop(rows)
        active = leading.pop(r)
        active.sort()
        piv = active[0]
        for j in active[1:]:
            a, b = cols[piv][r], cols[j][r]
            if b % a == 0:
                q = b // a
                _axpy(cols[j], cols[piv], -q)
                if track:
                    _axpy(tcols[j], tcols[piv], -q)
            else:
                g, s, t = _xgcd(a, b)
                u, v = a // g, b // g
                cols[piv], cols[j] = _unimodular_step(cols[piv], cols[j], s, t, u, v)
                if track:
                    tcols[piv], tcols[j] = _unimodular_step(tcols[piv], tcols[j], s, t, u, v)
            if cols[j]:
                lead = min(cols[j])
                if lead not in leading:
                    heappush(rows, lead)
                leading.setdefault(lead, []).append(j)
        if cols[piv][r] < 0:
            cols[piv] = {i: -x for i, x in cols[piv].items()}
            if track:
                tcols[piv] = {i: -x for i, x in tcols[piv].items()}
        pivots.append((r, piv))
    pivoted = {j for _, j in pivots}
    return pivots, [j for j in range(n) if j not in pivoted], tcols


def _basis_cols(cols):
    pivots, _, _ = _echelon_cols(cols, track=False)
    return [cols[j] for _, j in pivots]


def _kernel_cols(cols):
    _, live, tcols = _echelon_cols(cols, track=True)
    return [tcols[j] for j in live]


def lattice_basis(M: IntMatrix) -> IntMatrix:
    """Echelon basis of the column span: independent columns with strictly
    increasing leading rows and positive leading entries."""
    if not any(M.cols):
        return zeros(M.shape[0], 0)
    basis = _basis_cols(_own_cols(M))
    return IntMatrix((M.shape[0], len(basis)), basis)


def kernel(M: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : M x = 0}, one column per basis vector."""
    K = _kernel_cols(_own_cols(M))
    return IntMatrix((M.shape[1], len(K)), K)


def solve(M: IntMatrix, X: IntMatrix):
    """Integer solution Y of M Y = X, or None when some column has none."""
    return SpanChecker(M).solve(X)


class SpanChecker:
    """Membership, canonical residues and solutions for one column span,
    from one tracked echelon of its matrix.

    Vectors are sequences of length m or {row: value} dicts of their
    nonzero entries.
    """

    def __init__(self, M: IntMatrix):
        self.m, self.n = M.shape
        self.pivots = []
        if any(M.cols):
            cols = _own_cols(M)
            pivots, _, tcols = _echelon_cols(cols, track=True)
            self.pivots = [(r, cols[j], tcols[j]) for r, j in pivots]

    def _reduce(self, x, coeffs=None):
        """The residue of x: row by row, x less the floor multiple of the
        pivot leading there, so residues are unique per coset.  Each
        multiple taken, as a combination of M's columns, is added into
        coeffs when given."""
        y = dict(x) if isinstance(x, dict) else {i: int(v) for i, v in enumerate(x) if v}
        for r, col, tcol in self.pivots:
            if not y:
                break
            if r in y:
                q = y[r] // col[r]
                if q:
                    _axpy(y, col, -q)
                    if coeffs is not None:
                        _axpy(coeffs, tcol, q)
        return y

    def residue(self, x):
        y = self._reduce(x)
        return [y.get(i, 0) for i in range(self.m)]

    def contains(self, x) -> bool:
        # members are exactly residue 0
        return not self._reduce(x)

    def contains_all(self, M: IntMatrix) -> bool:
        return all(self.contains(col) for col in M.cols)

    def solve(self, X: IntMatrix):
        """Integer Y with M Y = X, or None when some column of X is
        outside the span."""
        ycols = []
        for col in X.cols:
            y = {}
            if self._reduce(col, y):
                return None
            ycols.append(y)
        return IntMatrix((self.n, len(ycols)), ycols)


def _smith(cols, m, track):
    """Smith elimination of the m-row matrix with these columns.

    Column echelon steps alternate with column echelon steps on the
    transpose.  Each keeps only its pivots, in lead-row order, and drops
    zero columns and rows.  That order makes the first pivot the only
    entry of the transpose's first column, so each step splits it off or
    makes it strictly smaller, until every column has one entry.
    Untracked, an echelon whose leading entries are all 1 ends it early:
    it spans a direct summand, so every factor is 1.  The diagonal is
    then sorted, and gcd/lcm exchanges turn it into a divisor chain
    unless it is one.

    Returns (diag, left, right): the nonzero invariant factors and, when
    track, the rows of U and the columns of V with U M V = D, those of
    the diagonal first (else None, None).
    """
    if track:
        # sides[0] holds the transforms over M's columns, sides[1] over
        # its rows, zero those of the zero columns and rows dropped on the
        # way; the working columns are on side w
        dims = (len(cols), m)
        sides = [[{j: 1} for j in range(dims[0])], [{i: 1} for i in range(m)]]
        zero = [[], []]
        w = 0
    while True:
        pivots, live, tcols = _echelon_cols(cols, track)
        cols = [cols[j] for _, j in pivots]
        diag = [col[r] for (r, _), col in zip(pivots, cols)]
        if not track and all(d == 1 for d in diag):
            return diag, None, None
        last = all(len(col) == 1 for col in cols)
        if not last:
            rows = {}
            for j, col in enumerate(cols):
                for i, x in col.items():
                    rows.setdefault(i, {})[j] = x
        keep = [r for r, _ in pivots] if last else sorted(rows)
        if track:
            k = len(tcols)
            done = (IntMatrix((dims[w], k), sides[w]) @ IntMatrix((k, k), tcols)).cols
            kept = set(keep)
            zero[w] += [done[j] for j in live]
            zero[1 - w] += [t for i, t in enumerate(sides[1 - w]) if i not in kept]
            sides[w] = [done[j] for _, j in pivots]
            sides[1 - w] = [sides[1 - w][i] for i in keep]
            w = 1 - w
        if last:
            break
        cols = [rows[i] for i in keep]
    if track:
        order = sorted(range(len(diag)), key=diag.__getitem__)
        right, left = ([side[k] for k in order] for side in sides)
        diag = [diag[k] for k in order]
    else:
        diag.sort()
    if any(b % a for a, b in zip(diag, diag[1:])):
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                x, y = diag[a], diag[b]
                if not track:
                    g = gcd(x, y)
                    diag[a], diag[b] = g, x // g * y
                elif y % x:
                    g, s, t = _xgcd(x, y)
                    u, v = x // g, y // g
                    left[a], left[b] = _unimodular_step(left[a], left[b], s, t, u, v)
                    right[a], right[b] = _unimodular_step(right[a], right[b], 1, 1, s * u, t * v)
                    diag[a], diag[b] = g, u * y
    if not track:
        return diag, None, None
    return diag, left + zero[1], right + zero[0]


def smith_normal_form(M: IntMatrix):
    """Smith normal form with certificate: (U, D, V) with U @ M @ V == D,
    U and V unimodular, and D diagonal with d1 | d2 | ... | dk, all >= 0.

    >>> U, D, V = smith_normal_form(intmat([[2, 4], [6, 8]]))
    >>> [int(D[i, i]) for i in range(2)]
    [2, 4]
    """
    m, n = M.shape
    diag, left, right = _smith(_own_cols(M), m, track=True)
    D = [{j: d} for j, d in enumerate(diag)] + [{} for _ in range(n - len(diag))]
    return IntMatrix((m, m), left).T, IntMatrix((m, n), D), IntMatrix((n, n), right)


def diagonal_of_snf(M: IntMatrix):
    """Nonzero invariant factors d1 | d2 | ... of M, without transforms."""
    if not any(M.cols):
        return []
    return _smith(_own_cols(M), M.shape[0], track=False)[0]


def _difference_cols(A: IntMatrix, B: IntMatrix):
    """Fresh columns of [A | -B]."""
    if A.shape[0] != B.shape[0]:
        raise ValueError("row counts differ")
    return _own_cols(A) + [{i: -x for i, x in col.items()} for col in B.cols]


def preimage_lattice(A: IntMatrix, L: IntMatrix) -> IntMatrix:
    """Basis of {x : A x lies in the column span of L}.

    Computed as the projection of ker [A | -L] onto the x block.
    """
    g = A.shape[1]
    if not any(A.cols) and A.shape[0] == L.shape[0]:
        # every x maps to 0, which lies in every span
        return eye(g)
    K = _kernel_cols(_difference_cols(A, L))
    basis = _basis_cols([{i: x for i, x in k.items() if i < g} for k in K])
    return IntMatrix((g, len(basis)), basis)


def intersect_lattices(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Basis of (column span of A) intersected with (column span of B)."""
    if A.shape[1] == 0 or B.shape[1] == 0:
        return zeros(A.shape[0], 0)
    na = A.shape[1]
    K = _kernel_cols(_difference_cols(A, B))
    images = A @ IntMatrix((na, len(K)), [{i: x for i, x in k.items() if i < na} for k in K])
    basis = _basis_cols(_own_cols(images))
    return IntMatrix((A.shape[0], len(basis)), basis)
