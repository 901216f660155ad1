"""Integer normal forms: references at small sizes, certificates at large ones.

Up to 12×12 the transform-free routines are compared with independent
references: the gcd-of-minors oracle, a plain Smith elimination over the
whole trailing block (``oracles.reference_smith_diagonal``) and a plain
column xgcd Hermite form (``oracles.reference_hnf``).  Empty, zero, single-row, single-column and tall shapes, and pivots that need
the divisibility fix-up, have fixed cases.  Up to 64×64 they are
checked by certificates that need no reference: the divisibility chain,
∏ d_i = |det|, the shape of the Hermite form, and equality of lattices: m is
h·X for an integral X whose columns span Z^r.  Up to 48×48, on the shapes
the commands factor (purity stacks, A^t·Psi·A and A^t·Psi products) and on
U·diag(chain)·V, the invariant factors meet the global facts of a Smith
form: their count is the rank, d_1 is the gcd of the entries, they form a
chain, ∏ d_i = |det| on square input, and #{i : p | d_i} = rank - rank_p.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenkit import intmat
from degenkit.errors import InputError
from degenkit.generators import random_unimodular
from degenkit.lattice import LatticeMap

from oracles import (
    cofactor_det,
    column_lattice_index,
    leading_principal_minors,
    minor_gcd_invariant_factors,
    rank_mod_p,
    reference_hnf,
    reference_smith_diagonal,
)


def _matrix(nrows: int, ncols: int, inner: int, entry: int, rng: random.Random) -> list[list[int]]:
    """Random nrows×ncols matrix; a product through Z^inner when inner is smaller."""
    def rand(r: int, c: int) -> list[list[int]]:
        return [[rng.randint(-entry, entry) for _ in range(c)] for _ in range(r)]

    if inner >= min(nrows, ncols):
        return rand(nrows, ncols)
    return intmat.matmul(rand(nrows, inner), nrows, inner, rand(inner, ncols), inner, ncols)


small = st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(0, 12),
                  st.sampled_from([1, 3, 20]), st.integers(0, 2 ** 32)).map(
    lambda t: (_matrix(t[0], t[1], t[2], t[3], random.Random(t[4])), t[0], t[1]))


@settings(max_examples=150, deadline=None)
@given(small)
def test_invariant_factors_match_smith_and_minor_gcd(case):
    m, nrows, ncols = case
    facs = intmat.invariant_factors(m, nrows, ncols)
    assert facs == reference_smith_diagonal(m, nrows, ncols)
    if nrows <= 5 and ncols <= 5:  # the oracle enumerates every minor
        assert facs == minor_gcd_invariant_factors(m)


@settings(max_examples=150, deadline=None)
@given(small)
def test_hnf_rank_and_index_match_reference(case):
    m, nrows, ncols = case
    h, r = reference_hnf(m, nrows, ncols)
    assert intmat.hnf_columns(m, nrows, ncols) == h
    assert intmat.rank(m, nrows, ncols) == r
    index = prod(h[i][i] for i in range(nrows)) if r == nrows else None
    assert column_lattice_index(m, nrows, ncols) == index
    assert LatticeMap.from_rows(m, ncols).is_surjective() == (index == 1)


# more rows than columns and rank below the column count, through Z^inner
tall = st.tuples(st.integers(1, 8), st.integers(1, 24), st.integers(0, 7),
                 st.sampled_from([1, 3, 20]), st.integers(0, 2 ** 32)).map(
    lambda t: (t[0] + t[1], t[0], min(t[2], t[0] - 1), t[3], random.Random(t[4]))).map(
    lambda t: (_matrix(t[0], t[1], t[2], t[3], t[4]), t[0], t[1]))


@settings(max_examples=150, deadline=None)
@given(tall)
def test_invariant_factors_match_reference_on_tall_stacks(case):
    m, nrows, ncols = case
    facs = intmat.invariant_factors(m, nrows, ncols)
    assert facs == reference_smith_diagonal(m, nrows, ncols)
    assert column_lattice_index(m, nrows, ncols) is None


# (m, nrows, ncols, nonzero Smith diagonal)
EDGE_CASES = {
    "0x3": ([], 0, 3, []),
    "3x0": ([[], [], []], 3, 0, []),
    "zero_3x4": ([[0] * 4 for _ in range(3)], 3, 4, []),
    "one_row": ([[0, -6, 0, 10, -4]], 1, 5, [2]),
    "one_row_negative": ([[0, 0, -7]], 1, 3, [7]),
    "one_column": ([[6], [-10], [0], [4]], 4, 1, [2]),
    "tall_full_rank": ([[1, 2, 3], [4, 5, 6], [7, 8, 10], [2, 0, 4], [0, 3, 0]], 5, 3, [1, 1, 1]),
    "tall_torsion": ([[2, 0], [0, 4], [4, 6], [0, 0]], 4, 2, [2, 2]),
    "fix_up": ([[2, 0], [0, 3]], 2, 2, [1, 6]),
    "fix_up_wide": ([[4, 0, 0], [0, 6, 0]], 2, 3, [2, 12]),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_smith_edge_cases(name):
    m, nrows, ncols, diag = EDGE_CASES[name]
    assert reference_smith_diagonal(m, nrows, ncols) == diag
    assert intmat.invariant_factors(m, nrows, ncols) == diag
    index = prod(diag) if len(diag) == nrows else None
    assert column_lattice_index(m, nrows, ncols) == index
    assert LatticeMap.from_rows(m, ncols).is_surjective() == (index == 1)


@settings(max_examples=150, deadline=None)
@given(tall)
def test_kernel_from_independent_rows_is_kernel_of_all_rows(case):
    m, nrows, ncols = case
    rows = intmat.independent_rows(m, nrows, ncols)
    assert len(rows) == intmat.rank(m, nrows, ncols)
    assert intmat.rank([m[i] for i in rows], len(rows), ncols) == len(rows)
    # the saturated kernels from the reference Smith forms of those rows and of every row
    kernels = []
    for sub in ([m[i] for i in rows], m):
        v = intmat.identity(ncols)
        diag = reference_smith_diagonal(sub, len(sub), ncols, v)
        kernels.append(intmat.hnf_columns([row[len(diag):] for row in v],
                                          ncols, ncols - len(diag)))
    assert kernels[0] == kernels[1]


# up to 6×6, since the cofactor expansion has n! terms; entries in [-1, 1]
# often give zero leading minors, where a Bareiss pass needs a row exchange
square = st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from([1, 3]),
                   st.integers(0, 2 ** 32)).map(
    lambda t: (_matrix(t[0], t[0], t[1], t[2], random.Random(t[3])), t[0]))


@settings(max_examples=150, deadline=None)
@given(square)
def test_determinant_and_leading_minors_match_expansion(case):
    m, n = case
    assert intmat.bareiss_det(m, n) == cofactor_det(m)
    assert leading_principal_minors(m, n) == [
        cofactor_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]


@settings(max_examples=150, deadline=None)
@given(square)
def test_det_adjugate_matches_cofactors(case):
    # adj m [i][j] = (-1)^(i+j) · det(m without row j and column i); the pass
    # exchanges rows whenever a leading minor is zero
    m, n = case
    det = cofactor_det(m)
    if det == 0:
        with pytest.raises(ValueError):
            intmat.det_adjugate(m, n)
        return
    assert intmat.det_adjugate(m, n) == (det, [
        [(-1) ** (i + j) * cofactor_det([row[:i] + row[i + 1:] for k, row in enumerate(m)
                                         if k != j]) for j in range(n)] for i in range(n)])


def test_adjugate_of_a_unimodular_matrix_is_its_inverse_up_to_sign():
    rng = random.Random(65)
    for n in (1, 5, 12):
        m = random_unimodular(rng, n)
        det, adj = intmat.det_adjugate(m, n)
        assert abs(det) == 1
        assert intmat.matmul(m, n, n, [[det * v for v in row] for row in adj], n, n) \
            == intmat.identity(n)
    with pytest.raises(InputError, match="non-square"):
        LatticeMap.from_rows([[1, 0]]).adjugate()


@st.composite
def products(draw):
    """(a, ar, ac, b, bc): zero-sized shapes, all-zero or sparse factors,
    entries over 64 bits, and block-diagonal right factors."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    entry = draw(st.sampled_from([3, 2 ** 80]))
    density = draw(st.sampled_from([0.0, 0.4, 1.0]))

    def rand(r: int, c: int) -> list[list[int]]:
        return [[rng.randint(-entry, entry) if rng.random() < density else 0
                 for _ in range(c)] for _ in range(r)]

    ar = draw(st.integers(0, 5))
    if draw(st.booleans()):
        shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
        b = LatticeMap.block_diagonal([LatticeMap.from_rows(rand(r, c), c) for r, c in shapes])
        ac, bc = b.nrows, b.ncols
        b = [list(row) for row in b.entries]
    else:
        ac, bc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        b = rand(ac, bc)
    return rand(ar, ac), ar, ac, b, bc


@settings(max_examples=200, deadline=None)
@given(products())
@example(([], 0, 2, [[1, 2, 3], [4, 5, 6]], 3))
@example(([[], []], 2, 0, [], 3))
@example(([[1, 2], [3, 4]], 2, 2, [[], []], 0))
def test_matmul_matches_triple_loop(case):
    a, ar, ac, b, bc = case
    assert intmat.matmul(a, ar, ac, b, ac, bc) == [
        [sum(a[i][k] * b[k][j] for k in range(ac)) for j in range(bc)] for i in range(ar)]


@st.composite
def symmetric(draw):
    """(m, n, kind): Rᵀ·R + I (definite), Rᵀ·R with R of fewer rows than
    columns (singular semidefinite), or a random symmetric matrix shifted by
    a multiple of the identity (definite or indefinite)."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["definite", "singular", "shifted"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    entry = draw(st.sampled_from([1, 3, 2 ** 40]))
    if kind == "shifted":
        m = intmat.zeros(n, n)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-entry, entry)
            m[i][i] += rng.randint(0, n * entry)
        return m, n, kind
    k = n if kind == "definite" else rng.randrange(n) if n else 0
    r = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(k)]
    m = intmat.matmul(intmat.transpose(r, k, n), n, k, r, k, n)
    if kind == "definite":
        for i in range(n):
            m[i][i] += 1
    return m, n, kind


@settings(max_examples=300, deadline=None)
@given(symmetric())
@example(([], 0, "definite"))
@example(([[-1]], 1, "shifted"))
@example(([[0]], 1, "singular"))
def test_positive_definite_is_sylvester(case):
    m, n, kind = case
    definite = intmat.positive_definite(m, n)
    assert definite == all(d > 0 for d in leading_principal_minors(m, n))
    if kind == "definite":
        assert definite
    elif kind == "singular" and n:
        assert not definite


def _pivot_rows(h: list[list[int]], nrows: int, r: int) -> list[int]:
    return [next(i for i in range(nrows) if h[i][c]) for c in range(r)]


def _solve(a: list[list[int]], nrows: int, ncols: int,
           b: list[list[int]], bcols: int) -> list[list[int]] | None:
    x = LatticeMap.from_rows(a, ncols).solve(LatticeMap.from_rows(b, bcols))
    return None if x is None else [list(row) for row in x.entries]


def _check_certificates(m: list[list[int]], nrows: int, ncols: int) -> None:
    facs = intmat.invariant_factors(m, nrows, ncols)
    r = intmat.rank(m, nrows, ncols)
    assert len(facs) == r
    assert all(d > 0 for d in facs)
    assert all(b % a == 0 for a, b in zip(facs, facs[1:]))
    if nrows == ncols:
        assert prod(facs) == abs(intmat.bareiss_det(m, nrows)) or r < nrows

    h = intmat.hnf_columns(m, nrows, ncols)
    assert all(len(row) == r for row in h)
    pivots = _pivot_rows(h, nrows, r)
    assert pivots == sorted(set(pivots))          # echelon, zeros above each pivot
    for c, p in enumerate(pivots):
        assert h[p][c] > 0
        assert all(0 <= h[p][j] < h[p][c] for j in range(c))
    index = column_lattice_index(m, nrows, ncols)
    assert index == (prod(h[p][c] for c, p in enumerate(pivots)) if r == nrows else None)

    # the columns of m lie in the span of h, and they span all of it:
    # m = h·X with X integral and the columns of X spanning Z^r
    x = _solve(h, nrows, r, m, ncols)
    assert x is not None
    assert intmat.matmul(h, nrows, r, x, r, ncols) == m
    assert column_lattice_index(x, r, ncols) == 1


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 40), st.integers(0, 2 ** 32))
def test_certificates_up_to_40(nrows, ncols, inner, seed):
    m = _matrix(nrows, ncols, inner, 9, random.Random(seed))
    _check_certificates(m, nrows, ncols)


@settings(max_examples=4, deadline=None)
@given(st.integers(41, 64), st.integers(41, 64), st.integers(0, 64), st.integers(0, 2 ** 32))
def test_certificates_up_to_64(nrows, ncols, inner, seed):
    m = _matrix(nrows, ncols, inner, 9, random.Random(seed))
    _check_certificates(m, nrows, ncols)


@settings(max_examples=3, deadline=None)
@given(st.integers(41, 64), st.integers(0, 2 ** 32))
def test_certificates_square_up_to_64(n, seed):
    m = _matrix(n, n, n, 9, random.Random(seed))
    _check_certificates(m, n, n)


@contextmanager
def wall_clock_budget(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _dense(n: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def test_dense_44_hnf_within_budget_and_determinant_bits():
    # a column xgcd HNF without modular reduction ran for minutes on this matrix
    m = _dense(44, 44)
    with wall_clock_budget(5):
        h = intmat.hnf_columns(m, 44, 44)
    det = intmat.bareiss_det(m, 44)
    assert det
    assert max(abs(x) for row in h for x in row).bit_length() <= abs(det).bit_length()
    assert prod(h[i][i] for i in range(44)) == abs(det)


def test_dense_64_rank_and_invariant_factors_within_budget():
    m = _dense(64, 64)
    with wall_clock_budget(5):
        r = intmat.rank(m, 64, 64)
        facs = intmat.invariant_factors(m, 64, 64)
    assert r == 64
    assert prod(facs) == abs(intmat.bareiss_det(m, 64))


def test_dense_64_solves_against_its_hermite_basis_within_budget():
    # both directions; a Smith-based solve with U and V took about 11 s here
    m = _dense(64, 64)
    h = intmat.hnf_columns(m, 64, 64)
    with wall_clock_budget(5):
        x = _solve(h, 64, 64, m, 64)
        y = _solve(m, 64, 64, h, 64)
    assert x is not None and y is not None
    assert intmat.matmul(h, 64, 64, x, 64, 64) == m
    assert intmat.matmul(m, 64, 64, y, 64, 64) == h


# -- global facts of the Smith form at size ------------------------------------

def _smith_global_facts(m: list[list[int]], nrows: int, ncols: int) -> list[int]:
    """The invariant factors of m, after checking every fact that needs no
    reference elimination; rank_p comes from tests/oracles.py."""
    facs = intmat.invariant_factors(m, nrows, ncols)
    r = intmat.rank(m, nrows, ncols)
    assert len(facs) == r
    assert all(d > 0 for d in facs)
    assert all(b % a == 0 for a, b in zip(facs, facs[1:]))
    if facs:
        assert facs[0] == gcd(*(x for row in m for x in row))
    if nrows == ncols:
        assert (prod(facs) if r == nrows else 0) == abs(intmat.bareiss_det(m, nrows))
    for p in (2, 3):
        assert sum(d % p == 0 for d in facs) == r - rank_mod_p(m, nrows, ncols, p)
    return facs


def _purity_stack(rng: random.Random, mu: int) -> list[list[int]]:
    """A purity-style stack: ⌈mu/8⌉ + 1 branches of rank 2..8, with at least
    mu rows together and entries in [-2, 2]."""
    n = -(-mu // 8) + 1
    while True:
        ranks = [rng.randint(2, 8) for _ in range(n)]
        if sum(ranks) >= mu:
            break
    return [[rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(mu)] for _ in range(sum(ranks))]


def _spd_blocks(rng: random.Random, size: int) -> list[list[int]]:
    """Block-diagonal positive definite pairing: R^t·R plus a positive
    diagonal in each block of at most 8."""
    out = intmat.zeros(size, size)
    start = 0
    while start < size:
        k = min(rng.randint(2, 8), size - start)
        r = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        block = intmat.matmul(intmat.transpose(r, k, k), k, k, r, k, k)
        for i in range(k):
            for j in range(k):
                out[start + i][start + j] = block[i][j] + (rng.randint(1, 9) if i == j else 0)
        start += k
    return out


@pytest.mark.parametrize("mu, seed", [(12, 0), (24, 1), (36, 2), (48, 3)])
def test_smith_global_facts_on_purity_stacks(mu, seed):
    m = _purity_stack(random.Random(seed), mu)
    _smith_global_facts(m, len(m), mu)


@pytest.mark.parametrize("mu, seed", [(12, 4), (15, 5), (24, 6), (36, 7), (48, 8)])
def test_smith_global_facts_on_converse_products(mu, seed):
    # A^t·Psi·A and A^t·Psi, the two Smith forms of a converse certificate;
    # the last factor of A^t·Psi·A has 100 bits and more
    rng = random.Random(seed)
    a = _purity_stack(rng, mu)
    k = len(a)
    at_psi = intmat.matmul(intmat.transpose(a, k, mu), mu, k, _spd_blocks(rng, k), k, k)
    at_psi_a = intmat.matmul(at_psi, mu, k, a, k, mu)
    facs = _smith_global_facts(at_psi_a, mu, mu)
    assert facs[-1].bit_length() >= 100
    _smith_global_facts(at_psi, mu, k)


@pytest.mark.parametrize("nrows, ncols, seed", [(12, 12, 9), (20, 31, 10), (36, 28, 11),
                                                (48, 48, 12), (48, 40, 13)])
def test_smith_global_facts_on_a_disguised_chain(nrows, ncols, seed):
    # U·D·V with D a diagonal of signed, non-unit pivots along a divisibility
    # chain and a zero tail: its invariant factors are |D|'s nonzero diagonal
    rng = random.Random(seed)
    chain, d = [], 1
    for _ in range(min(nrows, ncols) - 2):
        d *= rng.choice((1, 1, 2, 3, 5))
        chain.append(d * rng.choice((-1, 1)))
    diag = intmat.zeros(nrows, ncols)
    for i, c in enumerate(chain):
        diag[i][i] = c
    u, v = random_unimodular(rng, nrows), random_unimodular(rng, ncols)
    m = intmat.matmul(intmat.matmul(u, nrows, nrows, diag, nrows, ncols), nrows, ncols,
                      v, ncols, ncols)
    assert _smith_global_facts(m, nrows, ncols) == [abs(c) for c in chain]
