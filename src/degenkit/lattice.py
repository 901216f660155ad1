"""Lattices, lattice maps, and finite abelian groups.

A lattice is a free abelian group Z^r, known by its rank r alone; a
``LatticeMap`` Z^n -> Z^m is an exact m × n integer matrix, whose shape is
the two ranks.  ``FinAb`` stores a finite abelian group by its
invariant-factor chain d_1 | d_2 | ...; the cokernel of a map is that group
plus a free rank, and the map is onto exactly when both are trivial
(``is_onto``).

All values are immutable; every operation is a pure function on Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from . import intmat
from .errors import InputError

Rows = tuple[tuple[int, ...], ...]


def _freeze(rows: list[list[int]]) -> Rows:
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class LatticeMap:
    """Homomorphism Z^ncols -> Z^nrows as an exact (nrows × ncols) matrix,
    nrows = len(entries)."""

    entries: Rows
    ncols: int

    def __post_init__(self) -> None:
        for i, row in enumerate(self.entries):
            if len(row) != self.ncols:
                raise InputError(f"matrix row {i} has {len(row)} entries, expected {self.ncols}")

    @classmethod
    def from_rows(cls, rows: list[list[int]], ncols: int | None = None) -> "LatticeMap":
        if ncols is None:
            if not rows:
                raise InputError("the column count of an empty matrix must be given explicitly")
            ncols = len(rows[0])
        return cls(_freeze(rows), ncols)

    @classmethod
    def identity(cls, rank: int) -> "LatticeMap":
        return cls.diagonal([1] * rank)

    @classmethod
    def diagonal(cls, values: list[int]) -> "LatticeMap":
        n = len(values)
        rows = intmat.zeros(n, n)
        for i, v in enumerate(values):
            rows[i][i] = v
        return cls(_freeze(rows), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "LatticeMap":
        return cls(_freeze(intmat.zeros(nrows, ncols)), ncols)

    @classmethod
    def stack(cls, maps: list["LatticeMap"]) -> "LatticeMap":
        """Vertical stack of maps with a common source."""
        if not maps:
            raise InputError("cannot stack zero maps without a source")
        ncols = maps[0].ncols
        if any(m.ncols != ncols for m in maps):
            raise InputError("stacked maps must share their source")
        return cls(tuple(r for m in maps for r in m.entries), ncols)

    @classmethod
    def block_diagonal(cls, maps: list["LatticeMap"]) -> "LatticeMap":
        sr = sum(m.ncols for m in maps)
        out = intmat.zeros(sum(m.nrows for m in maps), sr)
        i0 = j0 = 0
        for m in maps:
            for i, row in enumerate(m.entries):
                for j, v in enumerate(row):
                    out[i0 + i][j0 + j] = v
            i0 += m.nrows
            j0 += m.ncols
        return cls(_freeze(out), sr)

    # -- plumbing -----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self ∘ other (apply other first)."""
        if other.nrows != self.ncols:
            raise InputError("composition rank mismatch")
        m = intmat.matmul(self.entries, self.nrows, self.ncols,
                          other.entries, other.nrows, other.ncols)
        return LatticeMap(_freeze(m), other.ncols)

    def transpose(self) -> "LatticeMap":
        return LatticeMap(_freeze(intmat.transpose(self.entries, self.nrows, self.ncols)),
                          self.nrows)

    def scaled(self, c: int) -> "LatticeMap":
        return LatticeMap(_freeze([[c * v for v in row] for row in self.entries]), self.ncols)

    def smith_diagonal(self) -> tuple[int, ...]:
        """The nonzero Smith diagonal, 1s included."""
        return tuple(intmat.invariant_factors(self.entries, self.nrows, self.ncols))

    def rank_of_image(self) -> int:
        return intmat.rank(self.entries, self.nrows, self.ncols)

    def is_injective(self) -> bool:
        # fewer rows than columns decide it without a pass
        return self.nrows >= self.ncols and self.rank_of_image() == self.ncols

    def is_surjective(self) -> bool:
        return is_onto(cokernel(self))

    def adjugate(self) -> tuple[int, "LatticeMap"]:
        """(det, adj) of a nonsingular square map, from one fraction-free pass."""
        if self.nrows != self.ncols:
            raise InputError("adjugate of a non-square map")
        det, adj = intmat.det_adjugate(self.entries, self.nrows)
        return det, LatticeMap(_freeze(adj), self.ncols)

    def image_basis(self) -> "LatticeMap":
        """Canonical (Hermite) basis of the image: equal images iff equal bases."""
        h = intmat.hnf_columns(self.entries, self.nrows, self.ncols)
        return LatticeMap(_freeze(h), len(h[0]) if h else 0)

    def solve(self, b: "LatticeMap") -> "LatticeMap | None":
        """The integral X with self ∘ X = b, or None when there is none.

        self must be injective, so X is unique when it exists: on a basis
        of independent rows the solver gives det·X, and X is the answer
        when det divides every entry and X satisfies the other rows too.
        """
        if b.nrows != self.nrows:
            raise InputError("solve needs a right-hand side with the same target")
        rows = intmat.independent_rows(self.entries, self.nrows, self.ncols)
        if len(rows) < self.ncols:
            raise InputError("solve needs an injective map")
        det, x = intmat.solve_rational([self.entries[i] for i in rows], self.ncols,
                                       [b.entries[i] for i in rows])
        if any(v % det for row in x for v in row):
            return None
        x = LatticeMap(tuple(tuple(v // det for v in row) for row in x), b.ncols)
        return x if self.compose(x).entries == b.entries else None


@dataclass(frozen=True)
class FinAb:
    """Finite abelian group by its invariant-factor chain d_1 | d_2 | ...,
    with every d_i >= 2."""

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        facs = self.invariant_factors
        if any(d < 2 for d in facs):
            raise InputError(f"invariant factors must be >= 2: {facs}")
        if any(facs[i + 1] % facs[i] for i in range(len(facs) - 1)):
            raise InputError(f"invariant factors must form a divisibility chain: {facs}")

    @classmethod
    def from_cyclic_orders(cls, orders: list[int]) -> "FinAb":
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
        return cls(tuple(d for d in chain if d > 1))

    @classmethod
    def direct_sum(cls, groups: list["FinAb"]) -> "FinAb":
        return cls.from_cyclic_orders([d for g in groups for d in g.invariant_factors])

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def primes(self) -> tuple[int, ...]:
        # every invariant factor divides the exponent, so it has their primes
        return tuple(sorted(_factorint(self.exponent)))

    def __str__(self) -> str:
        return " + ".join(f"Z/{d}" for d in self.invariant_factors) or "0"


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


def is_onto(coker: tuple[FinAb, int]) -> bool:
    """Whether a map with this (torsion, free rank) cokernel is onto."""
    torsion, free_rank = coker
    return torsion.is_trivial and free_rank == 0


def l_part(g: FinAb, l: int) -> FinAb:
    """l-primary component of a finite group."""
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
