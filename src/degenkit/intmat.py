"""Exact linear algebra over the integers.

Matrices are dense, row-major sequences of Python ints, so every computation
is arbitrary precision.  Inputs may be lists or tuples of rows and are never
mutated; results are fresh lists.  Shapes are always passed explicitly: a
matrix with zero rows is ``[]`` and one with zero columns is ``[[], [], ...]``,
and both are legal inputs everywhere.

The two normal forms implemented here:

* ``smith`` returns (U, D, V) with ``U @ M @ V == D``, U and V unimodular and
  D diagonal with a divisibility chain.  Pivots are chosen as the smallest
  nonzero absolute value of the trailing block, which keeps intermediate
  entries small at the cost of a quadratic scan.
* ``hnf_columns`` returns the canonical column-style Hermite basis of the
  column span, so two sublattices are equal iff their HNFs are identical.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = list[list[int]]


def zeros(nrows: int, ncols: int) -> IntMatrix:
    return [[0] * ncols for _ in range(nrows)]


def identity(n: int) -> IntMatrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def copy_of(m: IntMatrix) -> IntMatrix:
    return [list(row) for row in m]


def transpose(m: IntMatrix, nrows: int, ncols: int) -> IntMatrix:
    return [[m[i][j] for i in range(nrows)] for j in range(ncols)]


def matmul(a: IntMatrix, ar: int, ac: int, b: IntMatrix, br: int, bc: int) -> IntMatrix:
    if ac != br:
        raise ValueError(f"cannot multiply {ar}x{ac} by {br}x{bc}")
    out = zeros(ar, bc)
    for i in range(ar):
        arow = a[i]
        orow = out[i]
        for k in range(ac):
            v = arow[k]
            if v:
                brow = b[k]
                for j in range(bc):
                    orow[j] += v * brow[j]
    return out


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _swap_rows(m: IntMatrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: IntMatrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _row_sub(m: IntMatrix, i: int, k: int, q: int) -> None:
    # row_i -= q * row_k
    ri, rk = m[i], m[k]
    for j in range(len(ri)):
        ri[j] -= q * rk[j]


def _col_sub(m: IntMatrix, j: int, k: int, q: int) -> None:
    # col_j -= q * col_k
    for row in m:
        row[j] -= q * row[k]


def smith(m: IntMatrix, nrows: int, ncols: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: U·m·V = D exactly.

    D is diagonal with non-negative entries satisfying d_i | d_{i+1}; U and V
    are unimodular (|det| = 1).
    """
    d = copy_of(m)
    u = identity(nrows)
    v = identity(ncols)
    for k in range(min(nrows, ncols)):
        while True:
            # smallest-|entry| pivot of the trailing block
            pi = pj = -1
            best = 0
            for i in range(k, nrows):
                row = d[i]
                for j in range(k, ncols):
                    a = abs(row[j])
                    if a and (best == 0 or a < best):
                        best, pi, pj = a, i, j
            if pi < 0:
                break  # trailing block is zero
            if pi != k:
                _swap_rows(d, k, pi)
                _swap_rows(u, k, pi)
            if pj != k:
                _swap_cols(d, k, pj)
                _swap_cols(v, k, pj)
            pivot = d[k][k]
            clean = True
            for i in range(k + 1, nrows):
                if d[i][k]:
                    q = d[i][k] // pivot
                    _row_sub(d, i, k, q)
                    _row_sub(u, i, k, q)
                    if d[i][k]:
                        clean = False  # floor remainder, strictly smaller pivot exists
            for j in range(k + 1, ncols):
                if d[k][j]:
                    q = d[k][j] // pivot
                    _col_sub(d, j, k, q)
                    _col_sub(v, j, k, q)
                    if d[k][j]:
                        clean = False
            if not clean:
                continue
            # pivot must divide the whole trailing block for the chain to hold
            stop = True
            for i in range(k + 1, nrows):
                row = d[i]
                if any(row[j] % pivot for j in range(k + 1, ncols)):
                    _row_sub(d, k, i, -1)  # pull the offending row up
                    _row_sub(u, k, i, -1)
                    stop = False
                    break
            if stop:
                break
    for k in range(min(nrows, ncols)):
        if d[k][k] < 0:
            for j in range(ncols):
                d[k][j] = -d[k][j]
            for j in range(nrows):
                u[k][j] = -u[k][j]
    return u, d, v


def diagonal_of(d: IntMatrix, nrows: int, ncols: int) -> list[int]:
    """Nonzero diagonal entries of an SNF matrix (invariant factors incl. 1s)."""
    out = []
    for k in range(min(nrows, ncols)):
        if d[k][k]:
            out.append(d[k][k])
    return out


def invariant_factors(m: IntMatrix, nrows: int, ncols: int) -> list[int]:
    _, d, _ = smith(m, nrows, ncols)
    return diagonal_of(d, nrows, ncols)


def rank(m: IntMatrix, nrows: int, ncols: int) -> int:
    _, r = _hnf_with_rank(m, nrows, ncols)
    return r


def hnf_columns(m: IntMatrix, nrows: int, ncols: int) -> IntMatrix:
    """Canonical Hermite basis of the column lattice, as an nrows×r matrix.

    Pivot entries are positive; entries of earlier basis columns in a pivot
    row are reduced into [0, pivot).  Equal lattices give identical output.
    """
    h, r = _hnf_with_rank(m, nrows, ncols)
    return [row[:r] for row in h] if r else [[] for _ in range(nrows)]


def _hnf_with_rank(m: IntMatrix, nrows: int, ncols: int) -> tuple[IntMatrix, int]:
    h = copy_of(m)
    c = 0  # next pivot column
    for row in range(nrows):
        if c >= ncols:
            break
        # concentrate the gcd of h[row][c:] into column c
        pivot_col = -1
        for j in range(c, ncols):
            if h[row][j]:
                pivot_col = j
                break
        if pivot_col < 0:
            continue
        if pivot_col != c:
            _swap_cols(h, c, pivot_col)
        for j in range(c + 1, ncols):
            if h[row][j] == 0:
                continue
            a, b = h[row][c], h[row][j]
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            for i in range(nrows):
                vc, vj = h[i][c], h[i][j]
                h[i][c] = x * vc + y * vj
                h[i][j] = -bg * vc + ag * vj
        if h[row][c] < 0:
            for i in range(nrows):
                h[i][c] = -h[i][c]
        pivot = h[row][c]
        for j in range(c):
            q = h[row][j] // pivot  # floor: reduces into [0, pivot)
            if q:
                _col_sub(h, j, c, q)
        c += 1
    return h, c


def kernel_basis(m: IntMatrix, nrows: int, ncols: int) -> IntMatrix:
    """Basis of {x : m·x = 0} as columns of an ncols×k matrix; saturated."""
    _, d, v = smith(m, nrows, ncols)
    r = len(diagonal_of(d, nrows, ncols))
    return [row[r:] for row in v] if ncols > r else [[] for _ in range(ncols)]


def bareiss_det(m: IntMatrix, n: int) -> int:
    """Fraction-free determinant of a square matrix."""
    if n == 0:
        return 1
    a = copy_of(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    _swap_rows(a, k, i)
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_principal_minors(m: IntMatrix, n: int) -> list[int]:
    return [bareiss_det([row[:k] for row in m[:k]], k) for k in range(1, n + 1)]


def column_lattice_index(m: IntMatrix, nrows: int, ncols: int) -> int | None:
    """Index of the column span in Z^nrows; None when the span has lower rank."""
    h, r = _hnf_with_rank(m, nrows, ncols)
    if r < nrows:
        return None
    # full rank: pivots sit on the diagonal of the nrows×r block
    idx = 1
    for j in range(r):
        idx *= h[j][j]
    return idx


def solve_rational(a: IntMatrix, n: int, b: IntMatrix, bcols: int) -> list[list[Fraction]]:
    """Solve a·X = b exactly over Q for square invertible a (n×n)."""
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i][j]) for j in range(bcols)]
           for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            raise ValueError("singular matrix in rational solve")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [v * inv for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [vi - f * vk for vi, vk in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def integral_solve(a: IntMatrix, nrows: int, ncols: int,
                   b: IntMatrix, bcols: int) -> IntMatrix | None:
    """Some integer solution X (ncols×bcols) of a·X = b, or None."""
    u, d, v = smith(a, nrows, ncols)
    diag = diagonal_of(d, nrows, ncols)
    r = len(diag)
    ub = matmul(u, nrows, nrows, b, nrows, bcols)
    y = zeros(ncols, bcols)
    for i in range(nrows):
        for j in range(bcols):
            if i < r:
                q, rem = divmod(ub[i][j], diag[i])
                if rem:
                    return None
                y[i][j] = q
            elif ub[i][j]:
                return None
    return matmul(v, ncols, ncols, y, ncols, bcols)
