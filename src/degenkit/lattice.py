"""Lattices, lattice maps, and finitely generated torsion invariants.

A ``Lattice`` is just a free abelian group of known rank; a ``LatticeMap`` is
an exact integer matrix between two of them.  ``FinAb`` stores a finite
abelian group by its invariant-factor chain d_1 | d_2 | ..., plus a divisible
rank so that kernels of maps tensored with Q/Z (finite torsion plus copies of
Q/Z) have a home.  Q/Z-modules are never represented elementwise.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from . import intmat
from .errors import InputError

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Lattice:
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InputError(f"lattice rank must be non-negative, got {self.rank}")

    def __repr__(self) -> str:
        return f"Z^{self.rank}"


def _freeze(rows: list[list[int]]) -> Rows:
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class LatticeMap:
    """Homomorphism source -> target as a (target.rank × source.rank) matrix."""

    source: Lattice
    target: Lattice
    entries: Rows

    def __post_init__(self) -> None:
        if len(self.entries) != self.target.rank:
            raise InputError(
                f"matrix has {len(self.entries)} rows, target rank is {self.target.rank}")
        for i, row in enumerate(self.entries):
            if len(row) != self.source.rank:
                raise InputError(
                    f"matrix row {i} has {len(row)} entries, source rank is {self.source.rank}")

    @classmethod
    def from_rows(cls, rows: list[list[int]], source_rank: int | None = None,
                  target_rank: int | None = None) -> "LatticeMap":
        tr = len(rows) if target_rank is None else target_rank
        if source_rank is None:
            if not rows:
                raise InputError("source rank of an empty matrix must be given explicitly")
            source_rank = len(rows[0])
        return cls(Lattice(source_rank), Lattice(tr), _freeze(rows))

    @classmethod
    def identity(cls, rank: int) -> "LatticeMap":
        return cls.diagonal([1] * rank)

    @classmethod
    def diagonal(cls, values: list[int]) -> "LatticeMap":
        n = len(values)
        rows = intmat.zeros(n, n)
        for i, v in enumerate(values):
            rows[i][i] = v
        return cls(Lattice(n), Lattice(n), _freeze(rows))

    @classmethod
    def zero(cls, source: Lattice, target: Lattice) -> "LatticeMap":
        return cls(source, target, _freeze(intmat.zeros(target.rank, source.rank)))

    @classmethod
    def stack(cls, maps: list["LatticeMap"]) -> "LatticeMap":
        """Vertical stack of maps with a common source."""
        if not maps:
            raise InputError("cannot stack zero maps without a source")
        src = maps[0].source
        for m in maps:
            if m.source != src:
                raise InputError("stacked maps must share their source")
        rows = tuple(r for m in maps for r in m.entries)
        return cls(src, Lattice(sum(m.target.rank for m in maps)), rows)

    @classmethod
    def block_diagonal(cls, maps: list["LatticeMap"]) -> "LatticeMap":
        sr = sum(m.source.rank for m in maps)
        tr = sum(m.target.rank for m in maps)
        out = intmat.zeros(tr, sr)
        i0 = j0 = 0
        for m in maps:
            for i, row in enumerate(m.entries):
                for j, v in enumerate(row):
                    out[i0 + i][j0 + j] = v
            i0 += m.target.rank
            j0 += m.source.rank
        return cls(Lattice(sr), Lattice(tr), _freeze(out))

    # -- plumbing -----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.target.rank

    @property
    def ncols(self) -> int:
        return self.source.rank

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self ∘ other (apply other first)."""
        if other.target != self.source:
            raise InputError("composition rank mismatch")
        m = intmat.matmul(self.entries, self.nrows, self.ncols,
                          other.entries, other.nrows, other.ncols)
        return LatticeMap(other.source, self.target, _freeze(m))

    def transpose(self) -> "LatticeMap":
        return LatticeMap(Lattice(self.target.rank), Lattice(self.source.rank),
                          _freeze(intmat.transpose(self.entries, self.nrows, self.ncols)))

    def scaled(self, c: int) -> "LatticeMap":
        return LatticeMap(self.source, self.target,
                          _freeze([[c * v for v in row] for row in self.entries]))

    def smith_diagonal(self) -> tuple[int, ...]:
        """The nonzero Smith diagonal, 1s included."""
        return tuple(intmat.invariant_factors(self.entries, self.nrows, self.ncols))

    def rank_of_image(self) -> int:
        return intmat.rank(self.entries, self.nrows, self.ncols)

    def is_injective(self) -> bool:
        return self.rank_of_image() == self.ncols

    def is_surjective(self) -> bool:
        # surjective over Z: nrows invariant factors, every one of them 1
        return self.smith_diagonal() == (1,) * self.nrows

    def adjugate(self) -> tuple[int, "LatticeMap"]:
        """(det, adj) of a nonsingular square map, from one fraction-free pass."""
        if self.nrows != self.ncols:
            raise InputError("adjugate of a non-square map")
        det, adj = intmat.det_adjugate(self.entries, self.nrows)
        return det, LatticeMap(self.source, self.target, _freeze(adj))

    def image_basis(self) -> "LatticeMap":
        """Canonical (Hermite) basis of the image: equal images iff equal bases."""
        h = intmat.hnf_columns(self.entries, self.nrows, self.ncols)
        return LatticeMap(Lattice(len(h[0]) if h else 0), self.target, _freeze(h))

    def solve(self, b: "LatticeMap") -> "LatticeMap | None":
        """The integral X with self ∘ X = b, or None when there is none.

        self must be injective, so X is unique when it exists: it is the
        rational solution on a basis of independent rows, and it is the
        answer when it is integral and satisfies the other rows too.
        """
        if b.target != self.target:
            raise InputError("solve needs a right-hand side with the same target")
        rows = intmat.independent_rows(self.entries, self.nrows, self.ncols)
        if len(rows) < self.ncols:
            raise InputError("solve needs an injective map")
        x = intmat.solve_rational([self.entries[i] for i in rows], self.ncols,
                                  [b.entries[i] for i in rows], b.ncols)
        if any(v.denominator != 1 for row in x for v in row):
            return None
        x = LatticeMap(b.source, self.source, tuple(tuple(v.numerator for v in row) for row in x))
        return x if self.compose(x).entries == b.entries else None


@dataclass(frozen=True)
class FinAb:
    """Finite abelian group (plus optional divisible Q/Z-rank).

    ``invariant_factors`` is the chain d_1 | d_2 | ... with every d_i >= 2.
    ``divisible_rank`` counts Q/Z summands, used for kernels of maps tensored
    with Q/Z; it is 0 for honestly finite groups.
    """

    invariant_factors: tuple[int, ...] = ()
    divisible_rank: int = 0

    def __post_init__(self) -> None:
        facs = self.invariant_factors
        if any(d < 2 for d in facs):
            raise InputError(f"invariant factors must be >= 2: {facs}")
        if any(facs[i + 1] % facs[i] for i in range(len(facs) - 1)):
            raise InputError(f"invariant factors must form a divisibility chain: {facs}")
        if self.divisible_rank < 0:
            raise InputError("divisible rank must be non-negative")

    @classmethod
    def from_cyclic_orders(cls, orders: list[int], divisible_rank: int = 0) -> "FinAb":
        """Canonicalize a direct sum of cyclic groups Z/orders[i].

        Z/d + Z/n = Z/gcd(d, n) + Z/lcm(d, n), so each order is inserted into
        the ascending chain by replacing (d, n) with (gcd, lcm) along it.  At
        each prime that is one pass of insertion sort on the exponents, so the
        chain stays one of invariant factors, and nothing is factored.
        """
        chain: list[int] = []
        for n in orders:
            if n <= 0:
                raise InputError(f"cyclic order must be positive, got {n}")
            for k, d in enumerate(chain):
                chain[k], n = gcd(d, n), lcm(d, n)
            chain.append(n)
        return cls(tuple(d for d in chain if d > 1), divisible_rank)

    @classmethod
    def direct_sum(cls, groups: list["FinAb"]) -> "FinAb":
        orders = [d for g in groups for d in g.invariant_factors]
        dr = sum(g.divisible_rank for g in groups)
        return cls.from_cyclic_orders(orders, dr)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.divisible_rank == 0

    @property
    def order(self) -> int:
        if self.divisible_rank:
            raise InputError("order of a group with divisible part")
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        if self.divisible_rank:
            raise InputError("exponent of a group with divisible part")
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def torsion(self) -> "FinAb":
        return FinAb(self.invariant_factors, 0)

    def primes(self) -> tuple[int, ...]:
        ps: set[int] = set()
        for d in self.invariant_factors:
            ps.update(_factorint(d))
        return tuple(sorted(ps))

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.divisible_rank:
            parts.append(f"(Q/Z)^{self.divisible_rank}")
        return " + ".join(parts) if parts else "0"


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# the first 13 primes: trial divisors, then Miller-Rabin bases, which decide
# primality below this bound (Sorenson-Webster 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Proven primality.  Above ``MILLER_RABIN_BOUND`` a witness still proves
    n composite, but an n that passes every base raises ``InputError``: a
    probable-prime test alone is no answer."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise InputError(f"cannot prove {n} prime: Miller-Rabin on the first 13 prime bases "
                         f"is proven only below {MILLER_RABIN_BOUND}")
    return True


def cokernel(m: LatticeMap) -> tuple[FinAb, int]:
    """(torsion of coker m, free rank of coker m)."""
    facs = m.smith_diagonal()
    torsion = [d for d in facs if d > 1]
    return FinAb(tuple(torsion)), m.nrows - len(facs)


def l_part(g: FinAb, l: int) -> FinAb:
    """l-primary component of a finite group."""
    if g.divisible_rank:
        raise InputError("l_part of a group with divisible part")
    if not is_prime(l):
        raise InputError(f"l_part needs a prime, got {l}")
    factors = []
    for d in g.invariant_factors:
        q = 1
        while d % l == 0:
            d //= l
            q *= l
        if q > 1:
            factors.append(q)
    return FinAb(tuple(factors))
