"""Exact linear algebra over the integers.

Matrices are dense, row-major sequences of Python ints, so every computation
is arbitrary precision.  Inputs may be lists or tuples of rows and are never
mutated; results are fresh lists.  Shapes are always passed explicitly: a
matrix with zero rows is ``[]`` and one with zero columns is ``[[], [], ...]``,
and both are legal inputs everywhere.

No routine computes a transform it does not return.

* ``invariant_factors`` is the one Smith entry point: an elimination on a
  shrinking block (Cohen, GTM 138, §2.4), which computes no transform.  A
  tall input is transposed.  Each pivot is the smallest nonzero |entry| of
  the block, found in one scan.  A unit pivot p clears its column with the
  exact quotients x·p and is done: the row sweep would change the
  discarded pivot row alone.  Any other pivot runs Euclid with
  nearest-integer quotients q = (2x + p) // (2p), so every remainder has
  |r| <= |p|/2, and least-absolute-remainder Euclid never takes more steps
  than the floor version (Kronecker; Knuth, TAOCP vol. 2, §4.5.3).  It
  clears its column by row operations, then its row by column operations,
  which change the pivot row alone once the column is clear; while
  remainders are left, the least one is the next pivot, in that column or
  row.  A pivot that does not divide the whole block has an offending row
  added to its row.  The finished row and column leave the block, and so
  do zero rows; a single row gives its gcd.  No bit bound is proven.  On
  dense square input with entries in [-9, 9] no entry of the block
  outgrew the determinant's bit length, measured on two or three seeds
  each at 32×32, 48×48, 64×64 and 96×96.
* ``matmul`` multiplies over the nonzeros of both factors.
* ``rank``, ``independent_rows`` and ``bareiss_det`` are one Bareiss
  fraction-free pass, and ``positive_definite`` is the same pass without
  row exchanges on the upper triangle of a symmetric matrix: every
  intermediate entry is a minor of the input, so it is bounded by the
  Hadamard bound.  A row that becomes zero is dropped, so on a tall stack of
  low rank the active rows shrink toward the rank.
* ``hnf_columns`` returns the canonical column-style Hermite basis of the
  column span, so two sublattices are equal iff their HNFs are identical.
  It works modulo a nonzero maximal minor D from the same Bareiss pass
  (D·Z^n lies in the lattice), so no entry of the elimination reaches 2·D²
  in absolute value.
* ``solve_rational``, the one exact solver, is one fraction-free (Bareiss)
  Gauss–Jordan pass on ``(a | b)`` that returns det a and det a · a^-1 · b
  in integers: every intermediate entry is a minor of the augmented matrix,
  so it is bounded by its Hadamard bound.  Its callers divide by det a
  exactly, or test that they can.  ``det_adjugate`` is the same pass with
  the identity on the right, (det a, adj a); on a unimodular a,
  a^-1 = det a · adj a.
"""

from __future__ import annotations

from math import gcd

IntMatrix = list[list[int]]


def zeros(nrows: int, ncols: int) -> IntMatrix:
    return [[0] * ncols for _ in range(nrows)]


def identity(n: int) -> IntMatrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def transpose(m: IntMatrix, nrows: int, ncols: int) -> IntMatrix:
    return [[m[i][j] for i in range(nrows)] for j in range(ncols)]


def matmul(a: IntMatrix, ar: int, ac: int, b: IntMatrix, br: int, bc: int) -> IntMatrix:
    """a·b; each row of b is read once, as its nonzero (column, value) pairs."""
    if ac != br:
        raise ValueError(f"cannot multiply {ar}x{ac} by {br}x{bc}")
    brows = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = []
    for arow in a:
        orow = [0] * bc
        for v, brow in zip(arow, brows):
            if v:
                for j, w in brow:
                    orow[j] += v * w
        out.append(orow)
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


def _diagonalize(m: IntMatrix, nrows: int, ncols: int) -> list[int]:
    """Smith elimination of m (module docstring): the nonzero diagonal."""
    if nrows > ncols:
        m = transpose(m, nrows, ncols)
    block = [list(row) for row in m if any(row)]
    diag: list[int] = []
    while block:
        if len(block) == 1:
            diag.append(gcd(*block[0]))
            break
        best, i = 0, 0
        for k, row in enumerate(block):  # no row of the block is zero
            a = min(map(abs, filter(None, row)))
            if not best or a < best:
                best, i = a, k
                if a == 1:
                    break
        piv = block.pop(i)
        j = piv.index(best) if best in piv else piv.index(-best)
        while True:
            p = piv[j]
            if p == 1 or p == -1:
                # x·p is exact, and the row sweep would change the discarded
                # pivot row alone
                for k, row in enumerate(block):
                    x = row[j]
                    if x:
                        q = x * p
                        block[k] = [a - q * b for a, b in zip(row, piv)]
                break
            # clear column j off the pivot row with nearest-integer quotients;
            # the least remainder is the next pivot
            p2 = 2 * p
            at, least = -1, 0
            for k, row in enumerate(block):
                x = row[j]
                if x:
                    q = (2 * x + p) // p2
                    if q:
                        row = block[k] = [a - q * b for a, b in zip(row, piv)]
                        x = row[j]
                    if x and (not least or abs(x) < least):
                        at, least = k, abs(x)
            if at >= 0:
                piv, block[at] = block[at], piv
                continue
            # clear row j; column j is zero off the pivot row, so a column
            # operation changes the pivot row alone
            at, least = -1, 0
            for c, x in enumerate(piv):
                if x and c != j:
                    x = piv[c] = x - p * ((2 * x + p) // p2)
                    if x and (not least or abs(x) < least):
                        at, least = c, abs(x)
            if at >= 0:
                j = at
                continue
            # the pivot must divide the whole block for the chain to hold
            bad = next((row for row in block if any(x % p for x in row)), None)
            if bad is None:
                break
            piv = [a + b for a, b in zip(piv, bad)]
        diag.append(abs(p))
        for row in block:
            del row[j]
        block = [row for row in block if any(row)]
    return diag


def invariant_factors(m: IntMatrix, nrows: int, ncols: int) -> list[int]:
    """The nonzero Smith diagonal (1s included)."""
    return _diagonalize(m, nrows, ncols)


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
    det, c = solve_rational([[cols[j][i] for i in indep] for j in picked], r,
                            [[cols[j][i] for i in others] for j in picked])
    out = dict(zip(indep, h))
    for t, i in enumerate(others):
        # exact: the combination of a lattice vector's rows is integral
        out[i] = [sum(c[p][t] * h[p][j] for p in range(r)) // det for j in range(r)]
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


def bareiss_det(m: IntMatrix, n: int) -> int:
    """Fraction-free determinant of a square matrix."""
    cols, rows, minors = _bareiss(m, n, n)
    if len(cols) < n:
        return 0
    # the last minor is the determinant of m's rows taken in the order found
    swaps = sum(1 for i in range(n) for j in range(i) if rows[j] > rows[i])
    return -minors[-1] if swaps % 2 else minors[-1]


def positive_definite(m: IntMatrix, n: int) -> bool:
    """Whether the symmetric n×n matrix m is positive definite (Sylvester):
    the pivot of step k of a Bareiss pass without row exchanges is the
    leading k×k minor.  The pass stops at the first pivot <= 0."""
    a = [list(row) for row in m]
    prev = 1
    for k in range(n):
        ak = a[k]
        pivot = ak[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            ai, c = a[i], ak[i]  # the block stays symmetric: c = a[i][k]
            for j in range(i, n):
                ai[j] = (pivot * ai[j] - c * ak[j]) // prev
        prev = pivot
    return True


def solve_rational(a: IntMatrix, n: int, b: IntMatrix) -> tuple[int, IntMatrix]:
    """(det a, det a · a^-1 · b) for square nonsingular a (n×n): the exact
    solution of a·X = b is the second over the first.  One fraction-free
    pass on (a | b) keeps a pivot multiple of the identity on the left.  A
    row exchange negates one row, so the last pivot is det a; every entry is
    a minor of (a | b) up to sign."""
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    prev = 1
    for k in range(n):
        # rows hold the columns k.. of the augmented matrix: the columns before
        # k hold only prev on the diagonal of the pivoted rows, and zeros
        piv = next((i for i in range(k, n) if aug[i][0]), None)
        if piv is None:
            raise ValueError("singular matrix in Gauss-Jordan pass")
        if piv != k:
            aug[k], aug[piv] = aug[piv], [-x for x in aug[k]]
        pivot, tail = aug[k][0], aug[k][1:]
        aug = [tail if i == k else
               [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] if row[0] else
               [pivot * x // prev for x in row[1:]]
               for i, row in enumerate(aug)]
        prev = pivot
    return prev, aug


def det_adjugate(m: IntMatrix, n: int) -> tuple[int, IntMatrix]:
    """(det m, adj m) for square nonsingular m: the solver against the identity."""
    return solve_rational(m, n, identity(n))
