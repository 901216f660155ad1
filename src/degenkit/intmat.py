"""Exact linear algebra over the integers.

Matrices are dense, row-major sequences of Python ints, so every computation
is arbitrary precision.  Inputs may be lists or tuples of rows and are never
mutated; results are fresh lists.  Shapes are always passed explicitly: a
matrix with zero rows is ``[]`` and one with zero columns is ``[[], [], ...]``,
and both are legal inputs everywhere.

No routine computes a transform it does not return.

* ``smith_columns`` runs a Smith elimination and builds the column transform
  V alone, for the callers that read only V: ``kernel_basis`` and the
  presentations behind ``neron.trait_surjectivity_check``.  U·m·V = D for some
  unimodular U, which is never built.  ``kernel_basis`` runs it on independent
  rows of its input only: the kernel depends only on the rational row space,
  and the rows are original rows, so no entry grows before the elimination
  starts.  Pivots are chosen as the smallest nonzero absolute value of the
  trailing block.  No bound on V is proven.
* ``invariant_factors`` and ``column_lattice_index`` run the same
  elimination on D alone.  No bound is proven either; on dense 64×64 input
  with entries in [-9, 9] the entries stayed within the determinant's bit
  length.
* ``rank``, ``independent_rows``, ``bareiss_det`` and
  ``leading_principal_minors`` are one Bareiss fraction-free pass (the last
  also recomputes the orders after a zero leading minor one by one): every
  intermediate entry is a minor of the input, so it is bounded by the
  Hadamard bound.  A row that becomes zero is dropped, so on a tall stack of
  low rank the active rows shrink toward the rank.
* ``hnf_columns`` returns the canonical column-style Hermite basis of the
  column span, so two sublattices are equal iff their HNFs are identical.
  It works modulo a nonzero maximal minor D from the same Bareiss pass
  (D·Z^n lies in the lattice), so no entry of the elimination reaches 2·D²
  in absolute value.
* ``solve_rational`` is the one exact solver.  It clears the denominators of
  the right-hand side and runs one fraction-free (Bareiss) Gauss–Jordan pass
  on the integer augmented matrix, dividing only at the end: every
  intermediate entry is a minor of the augmented matrix, so it is bounded by
  the Hadamard bound of ``(a | den·b)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

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


def _diagonalize(d: IntMatrix, nrows: int, ncols: int, v: IntMatrix | None = None) -> list[int]:
    """Smith elimination of d in place; returns the nonzero diagonal.

    Each column operation is repeated on v when it is given.
    """
    for k in range(min(nrows, ncols)):
        while True:
            # smallest-|entry| pivot of the trailing block, first in row-major order
            pi = pj = -1
            best = 0
            for i in range(k, nrows):
                row = d[i]
                for j in range(k, ncols):
                    a = abs(row[j])
                    if a and (best == 0 or a < best):
                        best, pi, pj = a, i, j
                if best == 1:
                    break
            if pi < 0:
                break  # trailing block is zero
            if pi != k:
                _swap_rows(d, k, pi)
            if pj != k:
                _swap_cols(d, k, pj)
                if v is not None:
                    _swap_cols(v, k, pj)
            pivot = d[k][k]
            clean = True
            for i in range(k + 1, nrows):
                if d[i][k]:
                    _row_sub(d, i, k, d[i][k] // pivot)
                    if d[i][k]:
                        clean = False  # floor remainder, strictly smaller pivot exists
            for j in range(k + 1, ncols):
                if d[k][j]:
                    q = d[k][j] // pivot
                    _col_sub(d, j, k, q)
                    if v is not None:
                        _col_sub(v, j, k, q)
                    if d[k][j]:
                        clean = False
            if not clean:
                continue
            if pivot == 1 or pivot == -1:
                break
            # pivot must divide the whole trailing block for the chain to hold
            for i in range(k + 1, nrows):
                row = d[i]
                if any(row[j] % pivot for j in range(k + 1, ncols)):
                    _row_sub(d, k, i, -1)  # pull the offending row up
                    break
            else:
                break
    return [abs(d[k][k]) for k in range(min(nrows, ncols)) if d[k][k]]


def smith_columns(m: IntMatrix, nrows: int, ncols: int) -> tuple[list[int], IntMatrix]:
    """The nonzero Smith diagonal (1s included) and a column transform V.

    U·m·V = D for some unimodular U, which is not computed.
    """
    v = identity(ncols)
    return _diagonalize(copy_of(m), nrows, ncols, v), v


def invariant_factors(m: IntMatrix, nrows: int, ncols: int) -> list[int]:
    """The nonzero Smith diagonal (1s included), without transforms."""
    return _diagonalize(copy_of(m), nrows, ncols)


def _bareiss(m: IntMatrix, nrows: int, ncols: int) -> tuple[list[int], list[int], list[int]]:
    """Fraction-free row echelon pass: (pivot columns, pivot rows, minors).

    Columns are scanned left to right, so the pivot columns are the first
    maximal independent set of columns; the pivot rows are given as indices
    of m, in the order found.  Every intermediate entry is a minor of m, and
    minors[t] is the minor on the first t pivot rows (in that order) and
    columns, so minors[0] = 1 and minors[-1] is the last pivot.
    """
    active = list(m)
    index = list(range(nrows))
    cols: list[int] = []
    rows: list[int] = []
    minors = [1]
    base = 0  # active rows hold the entries of columns base..
    for c in range(ncols):
        j = c - base
        for k, row in enumerate(active):
            if row[j]:
                break
        else:
            if not active:
                break
            continue
        top = active.pop(k)
        cols.append(c)
        rows.append(index.pop(k))
        prev = minors[-1]
        pivot, tail = top[j], top[j + 1:]
        active = [[(pivot * a - row[j] * b) // prev for a, b in zip(row[j + 1:], tail)]
                  if row[j] else [pivot * a // prev for a in row[j + 1:]]
                  for row in active]
        if not all(map(any, active)):
            # a row that became zero lies in the span of the pivot rows
            index = [i for i, row in zip(index, active) if any(row)]
            active = [row for row in active if any(row)]
        minors.append(pivot)
        base = c + 1
    return cols, rows, minors


def independent_rows(m: IntMatrix, nrows: int, ncols: int) -> list[int]:
    """Indices, ascending, of rows of m that form a basis of its rational row space."""
    return sorted(_bareiss(m, nrows, ncols)[1])


def rank(m: IntMatrix, nrows: int, ncols: int) -> int:
    return len(_bareiss(m, nrows, ncols)[0])


def hnf_columns(m: IntMatrix, nrows: int, ncols: int) -> IntMatrix:
    """Canonical Hermite basis of the column lattice, as an nrows×r matrix.

    Pivot entries are positive; entries of earlier basis columns in a pivot
    row are reduced into [0, pivot).  Equal lattices give identical output.
    The Hermite form of the first independent rows is taken modulo their
    Bareiss minor, and the other rows are their rational combinations.
    """
    cols = transpose(m, nrows, ncols)
    # the pivot columns of m^T are the first independent rows of m
    indep, picked, minors = _bareiss(cols, ncols, nrows)
    r = len(indep)
    if r == nrows:
        return _hnf_mod(cols, nrows, minors[-1])
    if r == 0:
        return [[] for _ in range(nrows)]
    h = _hnf_mod([[col[i] for i in indep] for col in cols], r, minors[-1])
    # every other row of m is c·(the independent rows), where c·B = m[i, picked]
    # for the nonzero minor B = m[indep, picked]; so is every lattice vector
    independent = set(indep)
    others = [i for i in range(nrows) if i not in independent]
    c = solve_rational([[cols[j][i] for i in indep] for j in picked], r,
                       [[cols[j][i] for i in others] for j in picked], len(others))
    out = dict(zip(indep, h))
    for t, i in enumerate(others):
        out[i] = [int(sum(c[p][t] * h[p][j] for p in range(r))) for j in range(r)]
    return [out[i] for i in range(nrows)]


def _hnf_mod(cols: IntMatrix, n: int, det: int) -> IntMatrix:
    """Hermite basis (n×n) of the span of cols, whose determinant divides det.

    Hermite normal form modulo a determinant multiple (Domich–Kannan–Trotter;
    Cohen, GTM 138, Alg. 2.4.8), rows cleared top down.  Working columns are
    truncated to the rows not yet cleared.  A working column, or the part of
    a basis column below its pivot row, is reduced modulo R once an entry
    reaches R in absolute value, so no entry reaches 2·R².  R starts at |det|
    and is divided by each pivot found, since R·e_t stays in the lattice for
    every row t not yet cleared.
    """
    r = abs(det)
    work = [_reduced(col, r) for col in cols if any(col)]
    basis: IntMatrix = []  # finished columns, full length
    for i in range(n):
        acc = None
        rest = []
        for col in work:
            b = col[0]
            if not b:
                rest.append(col)
            elif acc is None:
                acc = col
            else:
                a = acc[0]
                if b % a == 0:
                    q = b // a
                    rest.append([y - q * x for x, y in zip(acc, col)])
                else:
                    g, s, t = xgcd(a, b)
                    ag, bg = a // g, b // g
                    rest.append([ag * y - bg * x for x, y in zip(acc, col)])
                    acc = _reduced([s * x + t * y for x, y in zip(acc, col)], r)
        if acc is None:
            g, tail = r, [0] * (n - i - 1)
            r //= g
        else:
            g, s, _ = xgcd(acc[0], r)
            r //= g
            tail = [s * x % r for x in acc[1:]]
        for col in basis:
            q = col[i] // g
            if q:
                col[i] -= q * g
                col[i + 1:] = _reduced([y - q * x for x, y in zip(tail, col[i + 1:])], r)
        basis.append([0] * i + [g] + tail)
        work = []
        for col in rest:
            col = _reduced(col[1:], r)
            if any(col):
                work.append(col)
    return transpose(basis, n, n)


def _reduced(col: list[int], r: int) -> list[int]:
    # entries stay in (-r, r); only a column that has outgrown it is reduced
    return [x % r for x in col] if col and (max(col) >= r or min(col) <= -r) else col


def kernel_basis(m: IntMatrix, nrows: int, ncols: int) -> IntMatrix:
    """Basis of {x : m·x = 0} as columns of an ncols×k matrix; saturated.

    The kernel depends only on the rational row space, so the Smith
    elimination runs on independent rows of m alone.
    """
    rows = independent_rows(m, nrows, ncols)
    if len(rows) < nrows:
        m, nrows = [m[i] for i in rows], len(rows)
    diag, v = smith_columns(m, nrows, ncols)
    r = len(diag)
    return [row[r:] for row in v] if ncols > r else [[] for _ in range(ncols)]


def bareiss_det(m: IntMatrix, n: int) -> int:
    """Fraction-free determinant of a square matrix."""
    cols, rows, minors = _bareiss(m, n, n)
    if len(cols) < n:
        return 0
    # the last minor is the determinant of m's rows taken in the order found
    swaps = sum(1 for i in range(n) for j in range(i) if rows[j] > rows[i])
    return -minors[-1] if swaps % 2 else minors[-1]


def leading_principal_minors(m: IntMatrix, n: int) -> list[int]:
    """Minors of the leading k×k blocks, k = 1..n.

    One Bareiss pass yields them while it takes rows and columns in order,
    that is up to the first zero; the rest are computed one by one.
    """
    cols, rows, minors = _bareiss(m, n, n)
    k = 0
    while k < len(cols) and cols[k] == rows[k] == k:
        k += 1
    return minors[1:k + 1] + [bareiss_det([row[:j] for row in m[:j]], j)
                              for j in range(k + 1, n + 1)]


def column_lattice_index(m: IntMatrix, nrows: int, ncols: int) -> int | None:
    """Index of the column span in Z^nrows; None when the span has lower rank."""
    facs = _diagonalize(copy_of(m), nrows, ncols)
    return prod(facs) if len(facs) == nrows else None


def solve_rational(a: IntMatrix, n: int, b: IntMatrix, bcols: int) -> list[list[Fraction]]:
    """Solve a·X = b exactly over Q for square invertible a (n×n).

    b may hold Fractions.  After clearing b's denominators, one fraction-free
    Gauss–Jordan pass keeps a pivot multiple of the identity on the left: the
    pivot of step k is a k×k minor of a, and every other entry a minor of the
    augmented matrix.  X is the right block divided by the last pivot.
    """
    den = lcm(*(x.denominator for row in b for x in row))
    aug = [list(a[i]) + [int(x * den) for x in b[i]] for i in range(n)]
    prev = 1
    for k in range(n):
        # rows hold the columns k.. of the augmented matrix: the columns before
        # k hold only prev on the diagonal of the pivoted rows, and zeros
        piv = next((i for i in range(k, n) if aug[i][0]), None)
        if piv is None:
            raise ValueError("singular matrix in rational solve")
        aug[k], aug[piv] = aug[piv], aug[k]
        pivot, tail = aug[k][0], aug[k][1:]
        aug = [tail if i == k else [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
               for i, row in enumerate(aug)]
        prev = pivot
    return [[Fraction(x, prev * den) for x in row] for row in aug]
