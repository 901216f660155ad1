"""Independent brute-force oracles used to freeze expected test values.

Nothing here touches the package's normal-form code paths: invariant factors
come from gcds of minors or from a plain Smith elimination over the whole
trailing block, how many of them a prime divides from a rank mod p, their
exact p-parts from an elimination over Z/p^(v+1) (v the p-valuation of a
nonzero maximal minor from a plain Bareiss pass), and group structures
from literal element enumeration in (Z/N)^k, so an agreement is meaningful
evidence.

The last section keeps checks that the package now skips because a proven
identity decides them: the long form of ``degeneration.validate``, the
image-lattice comparison behind ``neron.converse_certificate``, the
precondition tests of that certificate on hand-made maps
(``converse_check``; on a datum validation proves all but the one that
``neron.converse_inputs_from_datum`` tests where it solves Q), every leading
principal minor, where ``intmat.positive_definite`` stops at the first one
<= 0, and the branchwise reassembly behind ``neron.rescaled_psi``.  They
do use the package's lattice maps; what they add is the work the identities
remove.  It ends with the prime-by-prime assembly of invariant factors that
``FinAb.from_cyclic_orders`` replaced by gcd/lcm insertion, and the
leave-one-out kernels behind the exclusive parts of a Galois representation,
with the closed form of their index from one adjugate and the star
condition from one determinant of the stacked row bases (with the
determinant and the row bases it takes), where ``galois.star_condition``
reads the dual purity cokernel.  They take the factors (sp_i, f_i) of each
psi_i from the datum (``branch_factors``) or as an argument.  The last
routines left the package with no caller there: the fixed lattice of a set
of generators, and the closed-point bound, which the oracle reads off
``galois.stack_torsion`` and which the tests compare; and the full
mu × mu comparison maps psi_i with the Hermite row lattice of their stack,
where the package reads every group off the factors (``psi_blocks``
multiplies them back).  With the products went the last caller of the sum
of two maps, and four lattice operations had no caller in the package at
all: the Q/Z-kernel, the saturated kernel, the index of a sum of images and
the column concatenation ``beside``.  They run the package's normal forms on
lattice maps, except the saturated kernel, which takes the columns of the
reference Smith V past the rank.  Then comes the Step-5 projection
Psi_J -> Upsilon, once ``neron.trait_surjectivity_check``, which reads it
off B^t between cokernels, and its reference on invariant-factor
presentations with rational representatives, built on that same V; the
package computes no Smith transform at all.  Then the restriction of a
datum to a branch subset over its derived stratum, and the dual datum, which
swaps the primal and dual sides; no command reached either.  Last are the
default polarizations, the transversality of a profile, the Kummer-rescaled
datum and the component group of a single pairing, whose refusal
``monodromy.trait_component_group`` makes on the cokernel it is given.
The purity maps over every branch are ``degeneration.restricted_purity``
over all of them, and the index of a column lattice, once an ``intmat``
entry point, is read off the package's invariant factors; the package now
asks only whether a map is onto (``LatticeMap.is_surjective``).  The
zero-padded block diagonal (``block_diagonal``) is the reference for the
products that the package forms from their blocks
(``LatticeMap.block_compose`` and ``LatticeMap.transpose_compose``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

from degenkit import intmat
from degenkit.degeneration import (
    Branch,
    DegenDatum,
    StratumOverride,
    Violation,
    analyze,
    pairing_violation,
    require_valid,
    restricted_purity,
)
from degenkit.errors import InputError
from degenkit.lattice import (
    FinAb,
    LatticeMap,
    cokernel,
    is_prime,
    l_part,
)
from degenkit.monodromy import (
    ComposedPairing,
    TraitProfile,
    compose_trait,
    stratum_lattice,
)
from degenkit.neron import ConverseCertificate, _tame_multipliers, converse_certificate


def minor_gcd_invariant_factors(rows: list[list[int]]) -> list[int]:
    """d_k = gcd(k-minors) / gcd((k-1)-minors), nonzero prefix only."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    prev = 1
    out = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                g = gcd(g, cofactor_det([[rows[i][j] for j in csel] for i in rsel]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def reference_smith_diagonal(m: list[list[int]], nrows: int, ncols: int,
                             v: list[list[int]] | None = None) -> list[int]:
    """Nonzero Smith diagonal by a plain elimination on the whole trailing block.

    Each round takes the smallest nonzero |entry| of the trailing block as
    the pivot (first in row-major order), moves it to (k, k), and reduces
    every entry of its column and row by floor division; a remainder forces
    another round.  A pivot that does not divide the block pulls the first
    offending row up.  m is not changed; each column operation is repeated
    on v (ncols×ncols, row-major) when it is given.
    """
    d = [list(row) for row in m]

    def swap_cols(a: list[list[int]], i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_sub(a: list[list[int]], j: int, k: int, q: int) -> None:
        for row in a:
            row[j] -= q * row[k]

    def row_sub(i: int, k: int, q: int) -> None:
        d[i] = [x - q * y for x, y in zip(d[i], d[k])]

    for k in range(min(nrows, ncols)):
        while True:
            entries = [(abs(d[i][j]), i, j) for i in range(k, nrows)
                       for j in range(k, ncols) if d[i][j]]
            if not entries:
                return [abs(d[t][t]) for t in range(k)]
            _, pi, pj = min(entries)
            d[k], d[pi] = d[pi], d[k]
            swap_cols(d, k, pj)
            if v is not None:
                swap_cols(v, k, pj)
            pivot = d[k][k]
            for i in range(k + 1, nrows):
                row_sub(i, k, d[i][k] // pivot)
            for j in range(k + 1, ncols):
                q = d[k][j] // pivot
                col_sub(d, j, k, q)
                if v is not None:
                    col_sub(v, j, k, q)
            if any(d[i][k] for i in range(k + 1, nrows)) or \
                    any(d[k][j] for j in range(k + 1, ncols)):
                continue
            bad = next((i for i in range(k + 1, nrows)
                        if any(d[i][j] % pivot for j in range(k + 1, ncols))), None)
            if bad is None:
                break
            row_sub(k, bad, -1)
    return [abs(d[t][t]) for t in range(min(nrows, ncols))]


def rank_mod_p(m: list[list[int]], nrows: int, ncols: int, p: int) -> int:
    """Rank of m over F_p by plain Gauss elimination with inverses mod p.

    Exactly the invariant factors not divisible by p survive reduction mod
    p, so the rank over Q minus this rank counts the d_i with p | d_i."""
    rows = [[x % p for x in row] for row in m]
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, nrows) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _rank_and_maximal_minor(m: list[list[int]], nrows: int, ncols: int) -> tuple[int, int]:
    """(r, D): the rank of m and a nonzero r×r minor, by a plain Bareiss pass
    with full pivoting; D = 1 when r = 0.  Each pivot is a leading minor of
    the permuted matrix, so the last one is ± an r×r minor."""
    a = [list(row) for row in m]
    prev, r = 1, 0
    while r < min(nrows, ncols):
        at = next(((i, j) for i in range(r, nrows) for j in range(r, ncols) if a[i][j]), None)
        if at is None:
            break
        a[r], a[at[0]] = a[at[0]], a[r]
        for row in a:
            row[r], row[at[1]] = row[at[1]], row[r]
        piv = a[r][r]
        for i in range(r + 1, nrows):
            a[i] = a[i][:r + 1] + [(a[i][j] * piv - a[i][r] * a[r][j]) // prev
                                   for j in range(r + 1, ncols)]
        prev, r = piv, r + 1
    return r, prev


def smith_p_valuations(m: list[list[int]], nrows: int, ncols: int, p: int) -> list[int]:
    """The p-adic valuations of the invariant factors of m, in chain order.

    Every invariant factor divides a nonzero r×r minor D, so with v = v_p(D)
    none is divisible by p^(v+1) = q: the Smith form of m mod q, in the local
    ring Z/q, has exactly r nonzero entries p^(e_i)·unit with e_i = v_p(d_i).
    It comes from an elimination that pivots on an entry of least valuation,
    which divides every other entry of its row and column; a block entry x
    has valuation log_p gcd(x, q)."""
    r, minor = _rank_and_maximal_minor(m, nrows, ncols)
    q = p * _p_part(minor, p)
    block = [[x % q for x in row] for row in m]
    out = []
    while True:
        g, i, j = min(((gcd(x, q), i, j) for i, row in enumerate(block)
                       for j, x in enumerate(row) if x), default=(0, 0, 0))
        if not g:
            break
        piv = block.pop(i)
        inv = pow(piv[j] // g, -1, q)     # the unit part of the pivot
        for k, row in enumerate(block):
            if row[j]:
                c = row[j] // g * inv
                block[k] = [(x - c * y) % q for x, y in zip(row, piv)]
        # column j is clear off the pivot row, so clearing the pivot row by
        # column operations changes it alone
        for row in block:
            del row[j]
        out.append(_log_p(g, p))
    assert len(out) == r
    return out


def cofactor_det(m: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(sub)
    return total


def structure_from_elements(elements: set[tuple[int, ...]], modulus: int) -> list[int]:
    """Invariant factors of a finite subgroup of (Z/modulus)^k by torsion counting.

    For each prime p dividing the order, the count of elements killed by p^j
    recovers the multiset of p-exponents; primewise exponents are then merged
    into the ascending invariant-factor chain.
    """
    order = len(elements)
    exps_by_prime: dict[int, list[int]] = {}
    for p in _prime_divisors(order):
        counts = []
        j = 1
        while True:
            pj = p ** j
            killed = sum(1 for e in elements
                         if all((v * pj) % modulus == 0 for v in e))
            counts.append(killed)
            if killed == _p_part(order, p):
                break
            j += 1
        exps_by_prime[p] = _exponents_from_counts(counts, p)
    return _merge_prime_exponents(exps_by_prime)


def _exponents_from_counts(counts: list[int], p: int) -> list[int]:
    """Multiset of cyclic p-exponents from |G[p^j]| counts (descending)."""
    layers = []
    prev = 1
    for killed in counts:
        layers.append(_log_p(killed // prev, p))
        prev = killed
    # layers[j] = number of cyclic p-factors with exponent > j
    by_factor: list[int] = []
    for j, layer in enumerate(layers):
        while len(by_factor) < layer:
            by_factor.append(0)
        for t in range(layer):
            by_factor[t] = j + 1
    return sorted(by_factor, reverse=True)


def _merge_prime_exponents(exps_by_prime: dict[int, list[int]]) -> list[int]:
    width = max((len(v) for v in exps_by_prime.values()), default=0)
    chain = []
    for k in range(width):
        d = 1
        for p, exps in exps_by_prime.items():
            if k < len(exps):
                d *= p ** exps[k]
        chain.append(d)
    return sorted(d for d in chain if d > 1)


def _prime_divisors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _log_p(n: int, p: int) -> int:
    out = 0
    while n > 1:
        n //= p
        out += 1
    return out


def enumerate_cokernel(rows: list[list[int]], box: int) -> list[int]:
    """Invariant factors of Z^t / im(M) when box kills the cokernel.

    With box a multiple of the group exponent, Z^t/im(M) is (Z/box)^t modulo
    the span of the reduced columns; cosets are enumerated literally.
    """
    t = len(rows)
    cols = [tuple(rows[i][j] % box for i in range(t)) for j in range(len(rows[0]))]
    subgroup = _span(cols, box, t)
    reps = {_coset_key(point, subgroup, box) for point in product(range(box), repeat=t)}
    assert len(reps) == box ** t // len(subgroup)
    return _quotient_structure(reps, subgroup, box, t)


def _coset_key(point: tuple[int, ...], subgroup: set[tuple[int, ...]],
               box: int) -> tuple[int, ...]:
    return min(tuple((p + s) % box for p, s in zip(point, sub)) for sub in subgroup)


def _span(generators: list[tuple[int, ...]], box: int, width: int) -> set[tuple[int, ...]]:
    zero = tuple([0] * width)
    out = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = tuple((c + v) % box for c, v in zip(cur, g))
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


def _quotient_structure(reps: set[tuple[int, ...]], subgroup: set[tuple[int, ...]],
                        box: int, width: int) -> list[int]:
    zero_key = _coset_key(tuple([0] * width), subgroup, box)
    order = len(reps)
    exps_by_prime: dict[int, list[int]] = {}
    for p in _prime_divisors(order):
        counts = []
        j = 1
        while True:
            pj = p ** j
            killed = sum(1 for r in reps
                         if _coset_key(tuple((v * pj) % box for v in r), subgroup, box)
                         == zero_key)
            counts.append(killed)
            if killed == _p_part(order, p):
                break
            j += 1
        exps_by_prime[p] = _exponents_from_counts(counts, p)
    return _merge_prime_exponents(exps_by_prime)


def enumerate_qz_kernel(rows: list[list[int]], denominator: int) -> list[int]:
    """Invariant factors of the (1/denominator)-torsion of ker(M ⊗ Q/Z).

    Enumerates x in the grid (1/denominator)Z^s / Z^s with M·x integral; the
    denominator must be a multiple of the torsion exponent for the answer to
    be the full torsion subgroup.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    elements = set()
    for point in product(range(denominator), repeat=nc):
        if all(sum(rows[i][j] * point[j] for j in range(nc)) % denominator == 0
               for i in range(nr)):
            elements.add(point)
    return structure_from_elements(elements, denominator)


def reference_hnf(rows: list[list[int]], nrows: int, ncols: int) -> tuple[list[list[int]], int]:
    """(Hermite basis as an nrows×r matrix, r) by plain column xgcd elimination.

    No modular reduction and no minors: each row's entries right of the last
    pivot column are folded into the next pivot by extended gcds, and earlier
    columns are reduced into [0, pivot) in every pivot row.  This is the
    canonical form the package's modular HNF must reproduce.
    """
    h = [list(row) for row in rows]
    c = 0  # next pivot column
    for row in range(nrows):
        if c >= ncols:
            break
        pivot_col = next((j for j in range(c, ncols) if h[row][j]), -1)
        if pivot_col < 0:
            continue
        for r in h:
            r[c], r[pivot_col] = r[pivot_col], r[c]
        for j in range(c + 1, ncols):
            if h[row][j] == 0:
                continue
            a, b = h[row][c], h[row][j]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            for r in h:
                vc, vj = r[c], r[j]
                r[c] = x * vc + y * vj
                r[j] = -bg * vc + ag * vj
        if h[row][c] < 0:
            for r in h:
                r[c] = -r[c]
        pivot = h[row][c]
        for j in range(c):
            q = h[row][j] // pivot  # floor: reduces into [0, pivot)
            for r in h:
                r[j] -= q * r[c]
        c += 1
    return [r[:c] for r in h], c


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


# -- checks that proven identities decide --------------------------------------

def image_lattices_equal(a: LatticeMap, b: LatticeMap) -> bool:
    """Equal column lattices, by comparing canonical Hermite bases."""
    if a.nrows != b.nrows:
        return False
    return a.image_basis() == b.image_basis()


def converse_check(p_map: LatticeMap, q_map: LatticeMap,
                   psi1: LatticeMap, psi2: LatticeMap) -> ConverseCertificate:
    """Converse certificate from the two specializations and block pairings,
    after testing its preconditions: P and Q onto with a shared source, and
    Psi1 and Psi2 square of ranks rank P and rank Q, symmetric and positive
    definite."""
    if p_map.ncols != q_map.ncols:
        raise InputError("P and Q must share their source")
    if not p_map.is_surjective() or not q_map.is_surjective():
        raise InputError("P and Q must be surjective")
    for name, psi, rk in (("Psi1", psi1, p_map.nrows), ("Psi2", psi2, q_map.nrows)):
        if psi.nrows != rk or psi.ncols != rk:
            raise InputError(f"{name} must be square of rank {rk}")
        reason = pairing_violation(psi)
        if reason is not None:
            raise InputError(f"{name} is {reason}")
    return converse_certificate(p_map, q_map, psi1, psi2)


def leading_principal_minors(m: list[list[int]], n: int) -> list[int]:
    """Minors of the leading k×k blocks, k = 1..n, one determinant each."""
    return [intmat.bareiss_det([row[:k] for row in m[:k]], k) for k in range(1, n + 1)]


def reference_pairing_violation(phi: LatticeMap, lam: LatticeMap) -> str | None:
    """phi∘lam symmetric positive definite, always composing with lam."""
    if phi.ncols != lam.nrows:
        return "polarization target does not match pairing source"
    m = phi.compose(lam)
    if m.nrows != m.ncols:
        return "composed pairing is not square"
    rows = m.entries
    n = m.nrows
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return "not symmetric"
    minors = leading_principal_minors(rows, n)
    if any(d <= 0 for d in minors):
        return "not positive definite"
    return None


def purity_matrix(datum: DegenDatum) -> LatticeMap:
    """The purity map X -> ⊕X_i: restricted purity over every branch."""
    return restricted_purity(datum, range(datum.n))


def dual_purity_matrix(datum: DegenDatum) -> LatticeMap:
    """The dual purity map X' -> ⊕X'_i."""
    return restricted_purity(datum, range(datum.n), dual=True)


def column_lattice_index(m: list[list[int]], nrows: int, ncols: int) -> int | None:
    """Index of the column span in Z^nrows, off the package's invariant
    factors; None when the span has lower rank."""
    facs = intmat.invariant_factors(m, nrows, ncols)
    return prod(facs) if len(facs) == nrows else None


def reference_validate(datum: DegenDatum) -> list[Violation]:
    """Every invariant tested on its own: each injectivity by a rank, each
    default polarization as an explicit identity matrix."""
    out: list[Violation] = []
    p = datum.residue_char
    if p != 0 and not is_prime(p):
        out.append(Violation("residue characteristic not 0 or prime", detail=str(p)))
    for i, b in enumerate(datum.branches):
        if not b.specialization.is_surjective():
            out.append(Violation("specialization not surjective", i))
        if datum.dual_specializations is not None and not datum.dual_sp(i).is_surjective():
            out.append(Violation("dual specialization not surjective", i))
        if b.dual_rank != b.rank:
            out.append(Violation("branch dual rank mismatch", i,
                                 f"rank X'_i = {b.dual_rank}, rank X_i = {b.rank}"))
        if not b.pairing.is_injective():
            out.append(Violation("pairing not injective", i))
        lam = branch_polarization(datum, i)
        if lam is not None:
            if not lam.is_injective():
                out.append(Violation("polarization not injective", i))
            else:
                reason = reference_pairing_violation(b.pairing, lam)
                if reason is not None:
                    out.append(Violation(f"pairing {reason}", i))
    if datum.mu_prime != datum.mu:
        out.append(Violation("dual rank mismatch",
                             detail=f"rank X' = {datum.mu_prime}, rank X = {datum.mu}"))
    if not purity_matrix(datum).is_injective():
        out.append(Violation("purity map not injective"))
    if datum.dual_specializations is not None and not dual_purity_matrix(datum).is_injective():
        out.append(Violation("dual purity map not injective"))
    if datum.mu > sum(datum.branch_mus):
        out.append(Violation("toric rank inequality violated",
                             detail=f"mu = {datum.mu} > sum mu_i = {sum(datum.branch_mus)}"))
    lam0 = closed_polarization(datum)
    if lam0 is not None and datum.polarization is not None:
        if not lam0.is_injective():
            out.append(Violation("polarization not injective"))
    if lam0 is not None:
        for i in range(datum.n):
            lam_i = branch_polarization(datum, i)
            if lam_i is None:
                continue
            left = datum.dual_sp(i).compose(lam0)
            right = lam_i.compose(datum.branches[i].specialization)
            if left.entries != right.entries:
                out.append(Violation("polarization incompatible with specializations", i))
    for ov in datum.strata:
        out.extend(_reference_override_violations(datum, ov))
    return out


def _reference_override_violations(datum: DegenDatum, ov: StratumOverride) -> list[Violation]:
    out: list[Violation] = []
    amb = sum(datum.branches[j].rank for j in ov.branches)
    if ov.inclusion.nrows != amb:
        out.append(Violation("stratum override invalid",
                             detail=f"inclusion targets rank {ov.inclusion.nrows}, "
                                    f"ambient rank is {amb}"))
        return out
    if not ov.inclusion.is_injective():
        out.append(Violation("stratum override invalid", detail="inclusion not injective"))
        return out
    rows = [r for j in ov.branches for r in datum.branches[j].specialization.entries]
    restricted = LatticeMap.from_rows(rows, datum.mu)
    if ov.inclusion.solve(restricted) is None:
        out.append(Violation("stratum override invalid",
                             detail="restricted purity does not factor through the override"))
    elif ov.inclusion.ncols != restricted.rank_of_image():
        out.append(Violation("stratum override invalid",
                             detail="override rank differs from restricted purity rank"))
    dual = ov.dual_inclusion
    if dual is None:
        # only a principal datum lets the primal inclusion serve the dual side
        if not datum.is_principal:
            out.append(Violation("stratum override invalid",
                                 detail="no dual inclusion on a non-principal datum"))
        return out
    damb = sum(datum.branches[j].dual_rank for j in ov.branches)
    if dual.nrows != damb or not dual.is_injective():
        out.append(Violation("stratum override invalid", detail="bad dual inclusion"))
    else:
        rows = [r for j in ov.branches for r in datum.dual_sp(j).entries]
        restricted = LatticeMap.from_rows(rows, datum.mu_prime)
        if dual.solve(restricted) is None:
            out.append(Violation("stratum override invalid",
                                 detail="restricted dual purity does not factor through "
                                        "the dual override"))
        elif dual.ncols != restricted.rank_of_image():
            out.append(Violation("stratum override invalid",
                                 detail="dual override rank differs from restricted dual "
                                        "purity rank"))
    return out


def reference_psi_fixed_points(datum: DegenDatum, multipliers: list[int]) -> FinAb:
    """Psi'^G assembled branchwise over the primes q of each rescaled group
    Psi'_i: the q-part of Psi'_i when q is the residue characteristic (the
    covering action on it is trivial), else the q-part of Psi_i."""
    p = datum.residue_char
    parts = []
    for b, m in zip(datum.branches, multipliers):
        small = component_group(b.pairing)
        big = component_group(b.pairing.scaled(m))
        parts.extend(l_part(big if q == p else small, q) for q in _prime_divisors(big.order))
    return FinAb.direct_sum(parts)


def reference_cyclic_invariant_factors(orders: list[int]) -> list[int]:
    """Invariant factors of the direct sum of the Z/orders[i], prime by prime:
    the k-th largest exponent of each prime goes into the k-th largest factor."""
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p in _prime_divisors(n):
            by_prime.setdefault(p, []).append(_log_p(_p_part(n, p), p))
    return _merge_prime_exponents({p: sorted(es, reverse=True) for p, es in by_prime.items()})


def determinant(m: LatticeMap) -> int:
    """Fraction-free determinant of a square map."""
    if m.nrows != m.ncols:
        raise InputError("determinant of a non-square map")
    return intmat.bareiss_det(m.entries, m.nrows)


def adjugate(m: LatticeMap) -> tuple[int, LatticeMap]:
    """(det, adj) of a nonsingular square map: the solver against the identity."""
    if m.nrows != m.ncols:
        raise InputError("adjugate of a non-square map")
    det, adj = intmat.solve_rational(m.entries, m.nrows, intmat.identity(m.nrows))
    return det, LatticeMap.from_rows(adj, m.ncols)


def row_basis(m: LatticeMap) -> LatticeMap:
    """Rows of the matrix, in order, that form a basis of its rational row
    space: at most ncols of them, with the same kernel."""
    rows = sorted(intmat._bareiss(m.entries, m.nrows, m.ncols)[1])
    if len(rows) == m.nrows:
        return m
    return LatticeMap(tuple(m.entries[i] for i in rows), m.ncols)


# (sp_i, f_i) per branch, f_i = phi_i·sp'_i: the two factors of each psi_i = sp_i^t·f_i
Factors = tuple[tuple[LatticeMap, LatticeMap], ...]


def branch_factors(datum: DegenDatum) -> Factors:
    """The factors (sp_i, f_i) of each comparison map psi_i of the datum."""
    return tuple((b.specialization, b.pairing.compose(datum.dual_sp(i)))
                 for i, b in enumerate(datum.branches))


def _toric_rank(factors: Factors) -> int:
    """mu, the rank of X'; 0 without branches, as on every valid datum."""
    return factors[0][1].ncols if factors else 0


def exclusive_parts(factors: Factors) -> tuple[LatticeMap, ...]:
    """For each i, the X' part of the lattice fixed by every sigma_j with j != i.

    That is the saturated kernel of the psi_j with j != i, which depends only
    on their rational row space: the kernel of a row basis of
    psi_1..psi_{i-1} stacked on one of psi_{i+1}..psi_n, at most 2·mu rows.
    """
    psi = psi_blocks(factors)
    mu = _toric_rank(factors)
    prefix = _running_row_bases(psi, mu)
    suffix = _running_row_bases(psi[::-1], mu)[::-1]
    return tuple(kernel_saturated(LatticeMap.stack([prefix[i], suffix[i + 1]]))
                 for i in range(len(factors)))


def _running_row_bases(maps: tuple[LatticeMap, ...], rank: int) -> list[LatticeMap]:
    """Row bases of the stacks of maps[:k], k = 0..len(maps); at most rank rows each."""
    bases = [LatticeMap.zero(0, rank)]
    for m in maps:
        last = bases[-1]
        bases.append(last if last.nrows == rank else row_basis(LatticeMap.stack([last, m])))
    return bases


def exclusive_index(factors: Factors) -> int | None:
    """Index in X' of the sum of the exclusive parts; None when infinite.

    The closed form from one adjugate of the stack B of the row bases B_i
    of the f_i (r_i rows each), where ``reference_star_condition`` needs
    only det B.  With R = sum r_i = mu and D = det B, the index is
    prod_i (|D|^r_i / c_i) / |D|, with c_i the product of the invariant
    factors of the block-i columns A_i of adj B (mu × r_i).  B·adj B = D·1,
    so every B_j with j != i kills A_i and B_i·A_i = D·1: A_i lies in V_i,
    which has rank r_i and is the saturation of the span of A_i, of index
    c_i in it.  B maps sum V_i injectively onto ⊕ B_i(V_i), so
    [X' : sum V_i]·|D| = prod_i [Z^r_i : B_i(V_i)], and applying the
    injective B_i, D·Z^r_i has index c_i in B_i(V_i) and |D|^r_i in
    Z^r_i.  R > mu gives an infinite index (``galois`` module docstring).
    """
    bases = [row_basis(f) for _, f in factors]
    if sum(b.nrows for b in bases) > _toric_rank(factors):
        return None
    det, adj = adjugate(LatticeMap.stack(bases))
    d = abs(det)
    index, start = 1, 0
    for b in bases:
        stop = start + b.nrows
        block = LatticeMap(tuple(row[start:stop] for row in adj.entries), b.nrows)
        index *= d ** b.nrows // cokernel(block)[0].order
        start = stop
    return index // d


def reference_star_condition(factors: Factors, l: int) -> bool:
    """The star condition on the factors: R = mu and l does not divide
    |det B| / prod h_i, with B the stack of the row bases B_i of the f_i and
    h_i the product of the invariant factors of B_i (the index lemma of the
    ``galois`` module docstring).  ``galois.star_condition`` reads it off the
    dual purity cokernel, which this takes no account of, so it also decides
    hand-made factors that come from no datum.

    The determinant comes first: when the f_i have mu rows in all and their
    stack has a nonzero determinant, every row of every f_i is independent,
    so each f_i is its own row basis and that determinant is det B.
    Otherwise the row bases are found."""
    if not factors:
        return True
    mu = _toric_rank(factors)
    bases = [f for _, f in factors]
    det = 0
    if sum(f.nrows for f in bases) == mu:
        det = determinant(LatticeMap.stack(bases))
    if not det:
        bases = [row_basis(f) for f in bases]
        if sum(b.nrows for b in bases) != mu:
            return False
        det = determinant(LatticeMap.stack(bases))
    return abs(det) // prod(cokernel(b)[0].order for b in bases) % l != 0


def decomposition_check(factors: Factors, l: int) -> bool:
    """The block decomposition of T/T^G = X' into the exclusive parts: they
    are independent, and their sum has finite index coprime to l.

    Independence makes this the star condition (``galois`` module
    docstring): the ranks of the parts sum to mu exactly when the index is
    finite.  Here both are taken from the leave-one-out kernels.
    """
    if not factors:
        return True
    parts = list(exclusive_parts(factors))
    index = sum_index(parts)
    return sum(p.ncols for p in parts) == _toric_rank(factors) and index is not None \
        and index % l != 0


def fixed_lattice(factors: Factors, generators: tuple[int, ...]) -> LatticeMap:
    """X' part of the saturated lattice fixed by the listed sigma generators.

    The whole fixed lattice is X^dual ⊕ C ⊕ this part.
    """
    maps = [psi_blocks(factors)[i] for i in generators]
    if not maps:
        return LatticeMap.identity(_toric_rank(factors))
    return kernel_saturated(LatticeMap.stack(maps))


def closed_point_bound(datum: DegenDatum, l: int) -> tuple[FinAb, int]:
    """Upper bound for the l-part of the closed-point component group, and
    the Q/Z rank of the kernel it is read off.

    The bound is the l-part of the torsion of ker(stack(psi_1..psi_n) ⊗ Q/Z);
    it contains the true l-part, with equality when n <= 1.  For n = 1, sp_1
    and sp'_1 are unimodular, so the bound is the l-part of coker(phi_1).
    """
    if not is_prime(l):
        raise InputError(f"l must be prime, got {l}")
    if l == datum.residue_char:
        raise InputError("prime equals residue characteristic")
    require_valid(datum)
    if datum.n == 0:
        return FinAb(), 0
    stacked = LatticeMap.stack(psi_maps(datum))
    torsion, qz_rank = torsion_kernel_qz(row_lattice(stacked))
    return l_part(torsion, l), qz_rank


def psi_maps(datum: DegenDatum) -> list[LatticeMap]:
    """The closed-point comparison maps psi_i = sp_i^dual ∘ phi_i ∘ sp'_i : X' -> X^dual."""
    return [
        b.specialization.transpose().compose(b.pairing).compose(datum.dual_sp(i))
        for i, b in enumerate(datum.branches)
    ]


def psi_blocks(factors: Factors) -> tuple[LatticeMap, ...]:
    """The products psi_i = sp_i^t·f_i of the factors."""
    return tuple(sp.transpose().compose(f) for sp, f in factors)


def row_lattice(m: LatticeMap) -> LatticeMap:
    """A map with the same row lattice, so the same source, kernel and
    invariant factors, and at most ncols rows: the Hermite basis of the
    rows of a taller matrix."""
    if m.nrows <= m.ncols:
        return m
    return m.transpose().image_basis().transpose()


def beside(maps: list[LatticeMap]) -> LatticeMap:
    """Column concatenation of maps with a common target: (m_1 | m_2 | ...)."""
    if not maps:
        raise InputError("cannot concatenate zero maps without a target")
    nrows = maps[0].nrows
    for m in maps:
        if m.nrows != nrows:
            raise InputError("concatenated maps must share their target")
    rows = tuple(tuple(v for m in maps for v in m.entries[i]) for i in range(nrows))
    return LatticeMap(rows, sum(m.ncols for m in maps))


def block_diagonal(maps: list[LatticeMap]) -> LatticeMap:
    """diag(maps), zero-padded: the reference for the products that the
    package forms from their blocks."""
    out = intmat.zeros(sum(m.nrows for m in maps), sum(m.ncols for m in maps))
    i0 = j0 = 0
    for m in maps:
        for i, row in enumerate(m.entries):
            out[i0 + i][j0:j0 + m.ncols] = row
        i0 += m.nrows
        j0 += m.ncols
    return LatticeMap.from_rows(out, j0)


def add_maps(a: LatticeMap, b: LatticeMap) -> LatticeMap:
    """a + b, for maps with equal source and target."""
    if a.ncols != b.ncols or a.nrows != b.nrows:
        raise InputError("sum of maps needs equal source and target")
    rows = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries))
    return LatticeMap(rows, a.ncols)


def torsion_kernel_qz(m: LatticeMap) -> tuple[FinAb, int]:
    """ker(m ⊗ Q/Z) as (its torsion, its Q/Z rank = nullity(m))."""
    facs = intmat.invariant_factors(m.entries, m.nrows, m.ncols)
    return FinAb(tuple(d for d in facs if d > 1)), m.ncols - len(facs)


def kernel_saturated(m: LatticeMap) -> LatticeMap:
    """Injective map with image {x : m·x = 0}; the quotient is torsion-free.

    Its columns are those of the reference Smith V past the rank: m·V is
    zero there, and V is unimodular.
    """
    v = intmat.identity(m.ncols)
    rank = len(reference_smith_diagonal(m.entries, m.nrows, m.ncols, v))
    k = tuple(tuple(row[rank:]) for row in v)
    return LatticeMap(k, m.ncols - rank)


def sum_index(maps: list[LatticeMap]) -> int | None:
    """Index of im(maps[0]) + im(maps[1]) + ... in the common target.

    None when the sum has strictly smaller rank (infinite index).
    """
    m = beside(maps)
    return column_lattice_index(m.entries, m.nrows, m.ncols)


@dataclass(frozen=True)
class TraitSurjectivity:
    upsilon: FinAb
    psi_active: FinAb
    map_matrix: tuple[tuple[int, ...], ...]   # B^t: coker Phi_J -> coker phi_f
    surjective: bool
    composed: ComposedPairing


def trait_surjectivity_check(datum: DegenDatum, profile: TraitProfile) -> TraitSurjectivity:
    """The projection Psi_J -> Upsilon of Step 5 and whether it is onto.

    Requires a toric-additive datum and a transversal profile, so
    phi_f = B^t·Phi_J·B' with Phi_J = diag(phi_j, j in J).  B' must be
    unimodular: otherwise ⊕X'_j does not map into Y' and there is no
    projection.  For square nonsingular A, x ↦ A·x maps ker(A ⊗ Q/Z) onto
    coker A, so the transport g ↦ B'^-1·g from Psi_J = ker(Phi_J ⊗ Q/Z) to
    Upsilon = ker(phi_f ⊗ Q/Z) is z ↦ B^t·z from coker Phi_J to coker phi_f.
    It is onto exactly when B^t is, because im phi_f ⊆ im B^t.  On a
    toric-additive datum every valid B is unimodular, so the projection is
    an isomorphism and upsilon equals psi_active.
    """
    verdict = analyze(datum)
    if not verdict.toric_additive:
        raise InputError("Step 5 requires toric additivity")
    if not is_transversal(profile):
        raise InputError("profile is not transversal")
    composed = compose_trait(datum, profile)
    bprime = composed.dual_basis
    if bprime.nrows != bprime.ncols or abs(determinant(bprime)) != 1:
        raise InputError("dual stratum basis is not unimodular; "
                         "cannot transport the Psi generators")
    upsilon = component_group(composed.matrix)
    psi_active = FinAb.direct_sum([component_group(datum.branches[j].pairing)
                                   for j in composed.active])
    bt = composed.basis.transpose()
    return TraitSurjectivity(upsilon, psi_active, bt.entries, bt.is_surjective(), composed)


def _presentation(phi: LatticeMap) -> tuple[list[int], LatticeMap]:
    """The reference Smith diagonal d and V of a square nondegenerate
    pairing: the V·e_k/d_k generate ker(phi ⊗ Q/Z)."""
    v = intmat.identity(phi.ncols)
    facs = reference_smith_diagonal(phi.entries, phi.nrows, phi.ncols, v)
    if phi.nrows != phi.ncols or len(facs) < phi.ncols:
        raise InputError("degenerate pairing")
    return facs, LatticeMap.from_rows(v, phi.ncols)


def _solve_fractions(a: LatticeMap, vec: list[Fraction]) -> list[Fraction]:
    """a^-1·vec for square nonsingular a and a rational vector."""
    den = lcm(*(x.denominator for x in vec))
    det, x = intmat.solve_rational(a.entries, a.nrows, [[int(v * den)] for v in vec])
    return [Fraction(row[0], det * den) for row in x]


def reference_trait_surjectivity(datum: DegenDatum,
                                 profile: TraitProfile) -> tuple[FinAb, FinAb, bool]:
    """(Upsilon, Psi_J, surjective) with the projection Psi_J -> Upsilon built
    on invariant-factor presentations, where ``trait_surjectivity_check``
    reads it off B^t between cokernels.

    Each generator V_j·e_k/d_k of ker(phi_j ⊗ Q/Z) is carried into
    Y' ⊗ Q/Z by B'^-1 and written in the generators of ker(phi_f ⊗ Q/Z);
    the map is onto iff those coordinates and the relations diag(d) span.
    A square B' that is not unimodular is not refused here.
    """
    composed = compose_trait(datum, profile)
    ups_facs, ups_v = _presentation(composed.matrix)
    ups_orders = [d for d in ups_facs if d > 1]
    bprime = composed.dual_basis
    if bprime.nrows != bprime.ncols:
        raise InputError("dual stratum is not full; cannot transport the Psi generators")
    psi_orders: list[int] = []
    columns: list[list[int]] = []
    offset = 0
    for j in composed.active:
        facs, v = _presentation(datum.branches[j].pairing)
        for k, d in enumerate(facs):
            if d == 1:
                continue
            vec = [Fraction(0)] * bprime.nrows
            vec[offset:offset + v.nrows] = [Fraction(row[k], d) for row in v.entries]
            t = _solve_fractions(ups_v, _solve_fractions(bprime, vec))
            coords = [x * f for x, f in zip(t, ups_facs)]
            assert all(c.denominator == 1 for c in coords), "not in the Q/Z-kernel"
            columns.append([int(c) % f for c, f in zip(coords, ups_facs) if f > 1])
            psi_orders.append(d)
        offset += v.nrows
    images = LatticeMap.from_rows(columns, len(ups_orders)).transpose()
    surjective = beside([images, LatticeMap.diagonal(ups_orders)]).is_surjective()
    return FinAb(tuple(ups_orders)), FinAb.from_cyclic_orders(psi_orders), surjective


def sub_datum(datum: DegenDatum, active: tuple[int, ...] | list[int]) -> DegenDatum:
    """Restriction of the datum to a branch subset, over the derived stratum."""
    require_valid(datum)
    active = tuple(sorted(set(active)))
    basis = stratum_lattice(datum, active, dual=False)
    offsets = []
    pos = 0
    for j in active:
        offsets.append(pos)
        pos += datum.branches[j].rank
    def block(inc: LatticeMap, start: int, size: int) -> LatticeMap:
        rows = [list(inc.entries[start + k]) for k in range(size)]
        return LatticeMap.from_rows(rows, inc.ncols)

    branches = []
    for off, j in zip(offsets, active):
        b = datum.branches[j]
        branches.append(Branch(b.name, b.pairing, block(basis, off, b.rank)))
    if datum.is_principal:
        return DegenDatum(
            name=f"{datum.name}|{','.join(datum.branches[j].name for j in active)}",
            abelian_rank=datum.abelian_rank,
            residue_char=datum.residue_char,
            mu=basis.ncols,
            branches=tuple(branches),
        )
    dual_basis = stratum_lattice(datum, active, dual=True)
    d_offsets = []
    pos = 0
    for j in active:
        d_offsets.append(pos)
        pos += datum.branches[j].dual_rank
    dual_sps = tuple(
        block(dual_basis, off, datum.branches[j].dual_rank)
        for off, j in zip(d_offsets, active))
    branch_pols = None
    if datum.branch_polarizations is not None:
        branch_pols = tuple(datum.branch_polarizations[j] for j in active)
    return DegenDatum(
        name=f"{datum.name}|{','.join(datum.branches[j].name for j in active)}",
        abelian_rank=datum.abelian_rank,
        residue_char=datum.residue_char,
        mu=basis.ncols,
        branches=tuple(branches),
        dual_mu=dual_basis.ncols,
        dual_specializations=dual_sps,
        branch_polarizations=branch_pols,
    )


def dual_datum(datum: DegenDatum) -> DegenDatum:
    """Swap the primal and dual sides; pairings are transposed.

    The principal default always supplies an identity polarization, so the
    precondition (dual data or polarization present) holds for every datum
    this package can represent.  For a non-unimodular polarization the dual
    polarization is e·lambda^{-1} with one common multiplier e, keeping the
    swapped datum's polarization squares commutative.
    """
    require_valid(datum)
    if datum.is_principal and datum.polarization is None and datum.branch_polarizations is None:
        # X' = X, sp' = sp, phi symmetric: the swap only transposes pairings
        branches = tuple(
            Branch(b.name, b.pairing.transpose(), b.specialization)
            for b in datum.branches)
        return DegenDatum(datum.name, datum.abelian_rank, datum.residue_char,
                          datum.mu, branches, strata=_swapped_strata(datum))
    branches = tuple(
        Branch(b.name, b.pairing.transpose(), datum.dual_sp(i))
        for i, b in enumerate(datum.branches))
    new_dual_sps = tuple(b.specialization for b in datum.branches)
    lam0 = closed_polarization(datum)
    new_pol = None
    new_branch_pols = None
    if lam0 is not None:
        lams = [lam0] + [branch_polarization(datum, i) for i in range(datum.n)]
        if any(l is None for l in lams):
            raise InputError("dual datum needs polarizations on every branch or none")
        # lambda^-1 = adj/det; e clears every denominator of every inverse
        inverses = [adjugate(l) for l in lams]
        e = lcm(*[abs(det) // gcd(det, *(x for row in adj.entries for x in row))
                  for det, adj in inverses])
        scaled = [[[x * e // det for x in row] for row in adj.entries] for det, adj in inverses]
        new_pol = LatticeMap.from_rows(scaled[0], datum.mu_prime)
        new_branch_pols = tuple(
            LatticeMap.from_rows(scaled[i + 1], datum.branches[i].dual_rank)
            for i in range(datum.n))
    return DegenDatum(
        name=datum.name,
        abelian_rank=datum.abelian_rank,
        residue_char=datum.residue_char,
        mu=datum.mu_prime,
        branches=branches,
        dual_mu=datum.mu,
        dual_specializations=new_dual_sps,
        polarization=new_pol,
        branch_polarizations=new_branch_pols,
        strata=_swapped_strata(datum),
    )


def _swapped_strata(datum: DegenDatum) -> tuple[StratumOverride, ...]:
    out = []
    for ov in datum.strata:
        if datum.is_principal and ov.dual_inclusion is None:
            out.append(ov)
        elif ov.dual_inclusion is not None:
            out.append(StratumOverride(ov.branches, ov.dual_inclusion, ov.inclusion))
        else:
            raise InputError("stratum override lacks a dual inclusion; cannot dualize")
    return tuple(out)


def closed_polarization(datum: DegenDatum) -> LatticeMap | None:
    """lambda : X -> X', the identity by default on a principal datum."""
    if datum.polarization is not None:
        return datum.polarization
    if datum.is_principal:
        return LatticeMap.identity(datum.mu)
    return None


def branch_polarization(datum: DegenDatum, i: int) -> LatticeMap | None:
    """lambda_i : X_i -> X'_i, the identity by default on a principal datum."""
    if datum.branch_polarizations is not None:
        return datum.branch_polarizations[i]
    if datum.is_principal:
        return LatticeMap.identity(datum.branches[i].rank)
    return None


def is_transversal(profile: TraitProfile) -> bool:
    return all(a in (0, 1) for a in profile.multiplicities)


def component_group(phi: LatticeMap) -> FinAb:
    """Component group of a nondegenerate pairing: coker(phi) = ker(phi ⊗ Q/Z),
    with the refusal of ``monodromy.trait_component_group``."""
    coker, free_rank = cokernel(phi)
    if free_rank or phi.nrows != phi.ncols:
        raise InputError("degenerate pairing")
    return coker


def kummer_rescale(datum: DegenDatum, multipliers: tuple[int, ...] | list[int]) -> DegenDatum:
    """Rescale the i-th pairing by m_i (each m_i tame: coprime to p when p > 0)."""
    ms = _tame_multipliers(datum, multipliers)
    branches = tuple(
        Branch(b.name, b.pairing.scaled(m), b.specialization)
        for b, m in zip(datum.branches, ms))
    return DegenDatum(
        name=datum.name,
        abelian_rank=datum.abelian_rank,
        residue_char=datum.residue_char,
        mu=datum.mu,
        branches=branches,
        dual_mu=datum.dual_mu,
        dual_specializations=datum.dual_specializations,
        polarization=datum.polarization,
        branch_polarizations=datum.branch_polarizations,
        strata=datum.strata,
    )
