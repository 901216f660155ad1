"""Exact linear algebra layer: normal forms, kernels, torsion groups."""

from __future__ import annotations

import random
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenkit import intmat, lattice
from degenkit.errors import InputError
from degenkit.lattice import (
    MILLER_RABIN_BOUND,
    FinAb,
    LatticeMap,
    cokernel,
    is_prime,
    l_part,
)

from oracles import (
    determinant,
    enumerate_cokernel,
    enumerate_qz_kernel,
    kernel_saturated,
    minor_gcd_invariant_factors,
    reference_cyclic_invariant_factors,
    reference_smith_diagonal,
    sum_index,
    torsion_kernel_qz,
)


def lm(rows, ncols=None):
    return LatticeMap.from_rows(rows, ncols)


def matrices(max_dim=6, max_entry=50):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r, max_size=r).map(lambda rows: (rows, r, c))))


def smith_diagonal(m: LatticeMap) -> tuple[int, ...]:
    return tuple(intmat.invariant_factors(m.entries, m.nrows, m.ncols))


class TestSmithNormalForm:
    """The Smith diagonal against the reference elimination and minor gcds."""

    def test_identity(self):
        assert smith_diagonal(LatticeMap.identity(2)) == (1, 1)

    def test_zero(self):
        assert smith_diagonal(lm([[0, 0], [0, 0]])) == ()

    def test_example_3_4_purity_matrix(self):
        # frozen from the minor-gcd oracle: d1 = gcd of entries, d1*d2 = |det|
        m = lm([[2, 1], [0, 1]])
        assert minor_gcd_invariant_factors([[2, 1], [0, 1]]) == [1, 2]
        assert smith_diagonal(m) == (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_dim=5, max_entry=30))
    def test_matches_minor_gcd_oracle(self, shaped):
        rows, r, c = shaped
        m = lm(rows, c)
        assert list(smith_diagonal(m)) == minor_gcd_invariant_factors(rows)
        assert list(smith_diagonal(m)) == reference_smith_diagonal(rows, r, c)


def in_column_lattice(a: list[list[int]], b: list[int]) -> bool:
    """b ∈ L(a), by the minor-gcd oracle: (a | b) has a's rank and the same
    product of invariant factors, so L(a) has index 1 in L(a | b)."""
    facs = minor_gcd_invariant_factors(a)
    wide = minor_gcd_invariant_factors([row + [x] for row, x in zip(a, b)])
    return len(wide) == len(facs) and prod(wide) == prod(facs)


class TestSolve:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 32))
    def test_injective_against_minor_gcd_oracle(self, nrows, ncols, seed):
        rng = random.Random(seed)
        ncols = min(ncols, nrows)
        a = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        m = lm(a, ncols)
        if not m.is_injective():
            return
        # one column inside L(a) (possibly moved off by a unit vector), one at random
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        inside = [sum(v * t for v, t in zip(row, x)) for row in a]
        inside[rng.randrange(nrows)] += rng.choice([0, 1])
        for b in (inside, [rng.randint(-6, 6) for _ in range(nrows)]):
            got = m.solve(lm([[v] for v in b], 1))
            assert (got is not None) == in_column_lattice(a, b)
            if got is not None:
                assert m.compose(got).entries == tuple((v,) for v in b)

    def test_rejects_non_injective(self):
        with pytest.raises(InputError, match="injective"):
            lm([[1, 2], [2, 4]]).solve(lm([[1], [2]]))

    def test_rejects_target_mismatch(self):
        with pytest.raises(InputError):
            LatticeMap.identity(2).solve(LatticeMap.identity(3))


class TestCokernel:
    def test_example_3_4_cokernel(self):
        group, free = cokernel(lm([[2, 1], [0, 1]]))
        assert group == FinAb((2,))
        assert free == 0

    def test_identity(self):
        group, free = cokernel(LatticeMap.identity(3))
        assert group.is_trivial and free == 0

    def test_diag_2_3_enumeration(self):
        # frozen from coset enumeration in (Z/6)^2
        assert enumerate_cokernel([[2, 0], [0, 3]], 6) == [6]
        group, free = cokernel(lm([[2, 0], [0, 3]]))
        assert group == FinAb((6,)) and free == 0

    def test_free_rank(self):
        group, free = cokernel(lm([[1, 0]]))
        assert group.is_trivial and free == 0
        group, free = cokernel(lm([[2], [0]], 1))
        assert group == FinAb((2,)) and free == 1

    def test_order_equals_det_for_square_injective(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m = lm(rows)
            det = determinant(m)
            if det == 0:
                continue
            group, free = cokernel(m)
            assert free == 0
            assert group.order == abs(det)


class TestTorsionKernelQZ:
    def test_two_torsion(self):
        assert torsion_kernel_qz(lm([[2]])) == (FinAb((2,)), 0)

    def test_zero_map(self):
        assert torsion_kernel_qz(lm([[0]])) == (FinAb(), 1)

    def test_example_3_4_matrix_enumeration(self):
        # frozen from the (1/2)Z/Z grid enumeration
        assert enumerate_qz_kernel([[2, 1], [0, 1]], 2) == [2]
        assert torsion_kernel_qz(lm([[2, 1], [0, 1]])) == (FinAb((2,)), 0)

    def test_equals_transpose_cokernel_on_injective(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            r = rng.randint(1, 6)
            c = rng.randint(1, r)
            rows = [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]
            m = lm(rows, c)
            if not m.is_injective():
                continue
            checked += 1
            torsion, qz_rank = torsion_kernel_qz(m)
            assert torsion == cokernel(m.transpose())[0]
            assert qz_rank == 0


class TestKernelSaturated:
    def test_identity_has_no_kernel(self):
        assert kernel_saturated(LatticeMap.identity(2)).ncols == 0

    def test_sum_vector(self):
        k = kernel_saturated(lm([[1, 1]]))
        assert k.ncols == 1
        col = (k.entries[0][0], k.entries[1][0])
        assert col in ((1, -1), (-1, 1))

    def test_cleared_denominators(self):
        # over Q the kernel of (2 4) is spanned by (2, -1)
        k = kernel_saturated(lm([[2, 4]]))
        col = (k.entries[0][0], k.entries[1][0])
        assert col in ((2, -1), (-2, 1))

    @settings(max_examples=100, deadline=None)
    @given(matrices(max_dim=5, max_entry=20))
    def test_kernel_properties(self, shaped):
        rows, r, c = shaped
        m = lm(rows, c)
        k = kernel_saturated(m)
        assert all(v == 0 for row in m.compose(k).entries for v in row)
        assert k.ncols == c - m.rank_of_image()
        # saturation: the inclusion has all invariant factors 1
        assert cokernel(k)[0] == FinAb()


class TestLatticeSum:
    def test_full_span(self):
        assert sum_index([lm([[1], [0]], 1), lm([[0], [1]], 1)]) == 1

    def test_index_two(self):
        # frozen from the column-HNF determinant oracle: det diag(2, 1) = 2
        assert sum_index([lm([[2], [0]], 1), lm([[0], [1]], 1)]) == 2

    def test_rank_deficit_is_infinite(self):
        assert sum_index([lm([[1], [1]], 1)]) is None


class TestLPart:
    def test_six_at_two(self):
        assert l_part(FinAb((6,)), 2) == FinAb((2,))

    def test_missing_prime(self):
        assert l_part(FinAb.from_cyclic_orders([2, 4]), 3).is_trivial

    def test_crt_oracle(self):
        # CRT: Z/12 + Z/2 = (Z/4 + Z/2) x Z/3
        assert l_part(FinAb.from_cyclic_orders([12, 2]), 2) == FinAb.from_cyclic_orders([4, 2])

    def test_reassembly_over_all_primes(self):
        rng = random.Random(3)
        for _ in range(40):
            orders = [rng.randint(2, 60) for _ in range(rng.randint(1, 4))]
            g = FinAb.from_cyclic_orders(orders)
            parts = [l_part(g, p) for p in g.primes()]
            assert FinAb.direct_sum(parts) == g


def trial_division_is_prime(n: int) -> bool:
    return n == 2 or (n > 2 and n % 2 == 1 and all(n % p for p in range(3, isqrt(n) + 1, 2)))


def next_prime(n: int) -> int:
    while not trial_division_is_prime(n):
        n += 1
    return n


class TestIsPrime:
    """Trial division by small primes, then Miller-Rabin on the first 13
    prime bases, proven deterministic below ``MILLER_RABIN_BOUND``."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.integers(-3, 2 ** 40),
        # products of two primes, which no trial divisor removes
        st.tuples(st.integers(1000, 2 ** 20), st.integers(1000, 2 ** 20)).map(
            lambda ab: next_prime(ab[0]) * next_prime(ab[1]))))
    def test_matches_trial_division_below_2_40(self, n):
        assert is_prime(n) == trial_division_is_prime(n)

    def test_small_numbers(self):
        assert [n for n in range(-5, 2000) if is_prime(n)] == \
            [n for n in range(2000) if trial_division_is_prime(n)]

    @pytest.mark.parametrize("n", [
        2047,                        # strong pseudoprime to base 2
        3215031751,                  # ... to the bases 2, 3, 5, 7
        2152302898747,               # ... to the first 5 prime bases
        3474749660383,               # ... to the first 6
        341550071728321,             # ... to the first 7 and 8
        3825123056546413051,         # ... to the first 9, 10 and 11
        318665857834031151167461,    # ... to the first 12
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_primes_below_the_bound(self):
        assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
        # the ten largest primes below 2^64 (the table of primes just less
        # than a power of two)
        assert [k for k in range(1, 400) if is_prime(2 ** 64 - k)] == \
            [59, 83, 95, 179, 189, 257, 279, 323, 353, 363]
        assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))

    def test_no_answer_from_a_probable_prime_test(self):
        # the bound itself passes all 13 bases and is composite
        with pytest.raises(InputError, match=str(MILLER_RABIN_BOUND)):
            is_prime(MILLER_RABIN_BOUND)
        with pytest.raises(InputError, match="cannot prove"):
            is_prime(2 ** 89 - 1)
        # above the bound a witness still proves compositeness
        assert not is_prime(2 ** 89 + 1) and not is_prime((2 ** 61 - 1) ** 2)


class TestFinAb:
    def test_chain_enforced(self):
        with pytest.raises(InputError):
            FinAb((4, 2))
        with pytest.raises(InputError):
            FinAb((1, 2))

    def test_from_cyclic_orders(self):
        assert FinAb.from_cyclic_orders([2, 3]) == FinAb((6,))
        assert FinAb.from_cyclic_orders([2, 2, 4]) == FinAb((2, 2, 4))
        assert FinAb.from_cyclic_orders([6, 4]) == FinAb((2, 12))
        with pytest.raises(InputError, match="positive"):
            FinAb.from_cyclic_orders([2, 0])

    def test_from_cyclic_orders_matches_prime_bucketing(self):
        rng = random.Random(5)
        for _ in range(2000):
            # small orders, and orders with high powers of 2 and 3 shared
            orders = [rng.choice([rng.randint(1, 60),
                                  2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 4)])
                      for _ in range(rng.randint(0, 6))]
            assert list(FinAb.from_cyclic_orders(orders).invariant_factors) == \
                reference_cyclic_invariant_factors(orders), orders

    def test_str(self):
        assert str(FinAb()) == "0"
        assert str(FinAb((2, 4))) == "Z/2 + Z/4"

    def test_primes_factor_the_exponent_once(self, monkeypatch):
        # every invariant factor divides the exponent, so its primes are all
        factored = []
        original = lattice._factorint
        monkeypatch.setattr(lattice, "_factorint",
                            lambda n: factored.append(n) or original(n))
        rng = random.Random(13)
        for _ in range(300):
            orders = [rng.randint(1, 400) for _ in range(rng.randint(0, 5))]
            group = FinAb.from_cyclic_orders(orders)
            factored.clear()
            expected = sorted({p for n in orders for p in range(2, n + 1)
                               if n % p == 0 and is_prime(p)})
            assert list(group.primes()) == expected, orders
            assert factored == [group.exponent]


class TestEmptyShapes:
    def test_rank_zero_everywhere(self):
        zero_map = LatticeMap.zero(0, 0)
        assert smith_diagonal(zero_map) == ()
        assert cokernel(zero_map) == (FinAb(), 0)
        assert torsion_kernel_qz(zero_map) == (FinAb(), 0)
        assert kernel_saturated(zero_map).ncols == 0

    def test_zero_source(self):
        m = LatticeMap.zero(2, 0)
        group, free = cokernel(m)
        assert group.is_trivial and free == 2

    def test_zero_target(self):
        m = LatticeMap.zero(0, 2)
        assert torsion_kernel_qz(m) == (FinAb(), 2)
