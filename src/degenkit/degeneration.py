"""Degeneration data and the three toric-additivity verdicts.

A ``DegenDatum`` is the strictly local picture of a semiabelian degeneration:
the rank mu of the character lattice X of the maximal torus at the closed
point, one branch record per boundary divisor (monodromy pairing
phi_i : X'_i -> X_i^dual, specialization sp_i : X -> X_i), and optionally an
explicit dual side (rank X', sp'_i) plus polarization maps.  Every lattice is
a free Z-module known by its rank, and every rank but mu and rank X' is a
shape of these maps: rank X_i is the row count of phi_i and sp_i, and
rank X'_i the column count of phi_i.  When the dual side is omitted the
datum is taken principally polarized: X' = X, sp' = sp, and every pairing
must be symmetric positive definite.

The stacked specializations form the purity matrix X -> ⊕X_i.  Toric
additivity asks that it be an isomorphism; the l-adic variant asks that no
invariant factor be divisible by l; the weak variant only compares ranks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from . import intmat
from .errors import InputError
from .lattice import (
    FinAb,
    LatticeMap,
    cokernel,
    is_onto,
    is_prime,
)


@dataclass(frozen=True)
class Branch:
    """One boundary-divisor branch: pairing and specialization, whose shared
    row count is rank X_i."""

    name: str
    pairing: LatticeMap             # phi_i : X'_i -> X_i^dual
    specialization: LatticeMap      # sp_i : X -> X_i

    def __post_init__(self) -> None:
        if self.pairing.nrows != self.specialization.nrows:
            raise InputError(
                f"branch '{self.name}': pairing has {self.pairing.nrows} rows, "
                f"specialization has {self.specialization.nrows}")

    @property
    def rank(self) -> int:
        return self.pairing.nrows

    @property
    def dual_rank(self) -> int:
        return self.pairing.ncols


@dataclass(frozen=True)
class StratumOverride:
    """User-supplied stratum lattice for a branch subset, as an inclusion basis."""

    branches: tuple[int, ...]             # 0-based, strictly increasing
    inclusion: LatticeMap                 # Y -> ⊕_{j in J} X_j
    dual_inclusion: LatticeMap | None = None


@dataclass(frozen=True)
class DegenDatum:
    name: str
    abelian_rank: int
    residue_char: int
    mu: int                                                 # rank X
    branches: tuple[Branch, ...]
    dual_mu: int | None = None                              # rank X'
    dual_specializations: tuple[LatticeMap, ...] | None = None  # sp'_i : X' -> X'_i
    polarization: LatticeMap | None = None                  # lambda : X -> X'
    branch_polarizations: tuple[LatticeMap, ...] | None = None  # lambda_i : X_i -> X'_i
    strata: tuple[StratumOverride, ...] = ()

    def __post_init__(self) -> None:
        if self.abelian_rank < 0:
            raise InputError("abelian rank must be non-negative")
        if self.residue_char < 0:
            raise InputError("residue characteristic must be 0 or a prime")
        if self.mu < 0:
            raise InputError(f"closed-point rank must be non-negative, got {self.mu}")
        if self.dual_mu is not None and self.dual_mu < 0:
            raise InputError(f"dual closed-point rank must be non-negative, got {self.dual_mu}")
        for b in self.branches:
            if b.specialization.ncols != self.mu:
                raise InputError(
                    f"branch '{b.name}': specialization source rank "
                    f"{b.specialization.ncols} != closed-point rank {self.mu}")
        if (self.dual_mu is None) != (self.dual_specializations is None):
            raise InputError("dual side needs both its rank and its specializations")
        if self.dual_specializations is not None:
            if len(self.dual_specializations) != self.n:
                raise InputError("one dual specialization per branch required")
            for b, sp in zip(self.branches, self.dual_specializations):
                if sp.ncols != self.dual_mu:
                    raise InputError(
                        f"branch '{b.name}': dual specialization source rank mismatch")
                if sp.nrows != b.dual_rank:
                    raise InputError(
                        f"branch '{b.name}': dual specialization targets rank "
                        f"{sp.nrows}, pairing source rank is {b.dual_rank}")
        else:
            for b in self.branches:
                if b.dual_rank != b.rank:
                    raise InputError(
                        f"branch '{b.name}': non-square pairing needs an explicit dual side")
        if self.polarization is not None:
            if self.polarization.ncols != self.mu or self.polarization.nrows != self.mu_prime:
                raise InputError("polarization must map X to X'")
        if self.branch_polarizations is not None:
            if len(self.branch_polarizations) != self.n:
                raise InputError("one branch polarization per branch required")
            for b, lam in zip(self.branches, self.branch_polarizations):
                if lam.ncols != b.rank or lam.nrows != b.dual_rank:
                    raise InputError(f"branch '{b.name}': polarization must map X_i to X'_i")
        seen: set[tuple[int, ...]] = set()
        for ov in self.strata:
            if ov.branches != tuple(sorted(set(ov.branches))):
                raise InputError("stratum override branches must be strictly increasing")
            if any(j < 0 or j >= self.n for j in ov.branches):
                raise InputError("stratum override names a missing branch")
            if ov.branches in seen:
                raise InputError("duplicate stratum override")
            seen.add(ov.branches)

    # -- conveniences ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.branches)

    @property
    def branch_mus(self) -> tuple[int, ...]:
        return tuple(b.rank for b in self.branches)

    @property
    def is_principal(self) -> bool:
        return self.dual_mu is None

    @property
    def mu_prime(self) -> int:
        """rank X', which is mu on a principal datum."""
        return self.mu if self.dual_mu is None else self.dual_mu

    def dual_sp(self, i: int) -> LatticeMap:
        if self.dual_specializations is not None:
            return self.dual_specializations[i]
        return self.branches[i].specialization

    def stratum_override(self, active: tuple[int, ...]) -> StratumOverride | None:
        for ov in self.strata:
            if ov.branches == active:
                return ov
        return None

    # -- memos: the datum is immutable, so neither can go stale -----------------

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(validate(self))

    @cached_property
    def purity_cokernel(self) -> tuple[FinAb, int]:
        """(torsion, free rank) of coker(purity): the one purity SNF of the datum."""
        return cokernel(restricted_purity(self, range(self.n)))

    @cached_property
    def dual_purity_cokernel(self) -> tuple[FinAb, int]:
        """(torsion, free rank) of coker(dual purity): the purity one on a
        principal datum, where sp' = sp."""
        if self.is_principal:
            return self.purity_cokernel
        return cokernel(restricted_purity(self, range(self.n), dual=True))

    @cached_property
    def pairing_diagonals(self) -> tuple[tuple[int, ...], ...]:
        """The Smith diagonal of each branch pairing phi_i, 1s included: the
        one Smith form per pairing."""
        return tuple(b.pairing.smith_diagonal() for b in self.branches)

    def pairing_cokernel(self, i: int, a: int = 1) -> FinAb:
        """coker(a·phi_i) for a >= 1, off the cached diagonal of phi_i: the
        Smith form of a·M is a times that of M, and a times a divisibility
        chain is one.  On a valid datum phi_i is square and injective, so the
        cokernel is finite."""
        return FinAb(tuple(a * d for d in self.pairing_diagonals[i] if a * d > 1))

    @cached_property
    def verdict(self) -> Verdict:
        """All three toric-additivity verdicts from one purity SNF."""
        torsion, free_rank = self.purity_cokernel
        weakly = free_rank == 0
        failing = tuple(q for q in torsion.primes() if q != self.residue_char)
        return Verdict(weakly and torsion.is_trivial, weakly, failing)


@dataclass(frozen=True)
class Violation:
    invariant: str
    branch: int | None = None   # 0-based branch index, None for datum-level
    detail: str = ""

    def __str__(self) -> str:
        where = f" [branch {self.branch + 1}]" if self.branch is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.invariant}{where}{tail}"


@dataclass(frozen=True)
class Verdict:
    toric_additive: bool
    weakly_toric_additive: bool
    failing_primes: tuple[int, ...]       # primes l != p dividing a purity invariant factor


def pairing_violation(m: LatticeMap) -> str | None:
    """Check that a polarized pairing phi∘lam is symmetric positive definite;
    None when it is.  Positivity is decided by exact leading principal minors,
    no floats.
    """
    if m.nrows != m.ncols:
        return "composed pairing is not square"
    if not m.is_symmetric():
        return "not symmetric"
    if not intmat.positive_definite(m.entries, m.nrows):
        return "not positive definite"
    return None


def restricted_purity(datum: DegenDatum, active: Iterable[int],
                      dual: bool = False) -> LatticeMap:
    """Stack of sp_j (sp'_j when dual) over the branch subset J: the
    restricted purity map X -> ⊕_{j in J} X_j, the purity map when J is every
    branch.  The one place a purity stack is built."""
    if dual:
        maps = [datum.dual_sp(j) for j in active]
    else:
        maps = [datum.branches[j].specialization for j in active]
    if not maps:
        return LatticeMap.zero(0, datum.mu_prime if dual else datum.mu)
    return LatticeMap.stack(maps)


def validate(datum: DegenDatum) -> list[Violation]:
    """Check every semantic invariant; returns violations instead of raising.

    Four identities spare checks without changing the list.  A default
    polarization is the identity: injective, phi_i∘1 = phi_i, and two defaults
    make a commuting square.  A positive definite phi_i∘lambda_i makes
    lambda_i injective, and phi_i too when it is square (its rank is at least
    rank X_i = rank X'_i).  The purity rank is nrows minus the free rank of
    the purity cokernel, the SNF that the verdict reads, and the explicit
    dual purity rank is read off the dual cokernel, which the star condition
    reads.  A purity map with trivial cokernel is onto, and so is each
    sp_i = pi_i ∘ P, as the projection pi_i onto X_i is: then no sp_i is
    tested on its own, and likewise on the dual side.
    """
    out: list[Violation] = []
    p = datum.residue_char
    if p != 0 and not is_prime(p):
        out.append(Violation("residue characteristic not 0 or prime", detail=str(p)))
    explicit = datum.branch_polarizations
    dual = datum.dual_specializations is not None
    onto = is_onto(datum.purity_cokernel)
    dual_onto = dual and is_onto(datum.dual_purity_cokernel)
    for i, b in enumerate(datum.branches):
        if not onto and not b.specialization.is_surjective():
            out.append(Violation("specialization not surjective", i))
        if dual and not dual_onto and not datum.dual_sp(i).is_surjective():
            out.append(Violation("dual specialization not surjective", i))
        square = b.dual_rank == b.rank
        if not square:
            out.append(Violation("branch dual rank mismatch", i,
                                 f"rank X'_i = {b.dual_rank}, rank X_i = {b.rank}"))
        lam = explicit[i] if explicit is not None else None
        polarized = lam is not None or datum.is_principal    # by lam, or by the identity
        reason = None
        if polarized:
            reason = pairing_violation(b.pairing if lam is None else b.pairing.compose(lam))
        definite = polarized and reason is None
        if not (definite and square) and not b.pairing.is_injective():
            out.append(Violation("pairing not injective", i))
        if polarized and not definite:
            if lam is not None and not lam.is_injective():
                out.append(Violation("polarization not injective", i))
            else:
                out.append(Violation(f"pairing {reason}", i))
    if datum.mu_prime != datum.mu:
        out.append(Violation("dual rank mismatch",
                             detail=f"rank X' = {datum.mu_prime}, rank X = {datum.mu}"))
    if datum.purity_cokernel[1] != sum(datum.branch_mus) - datum.mu:
        out.append(Violation("purity map not injective"))
    if dual and datum.dual_purity_cokernel[1] != \
            sum(b.dual_rank for b in datum.branches) - datum.mu_prime:
        out.append(Violation("dual purity map not injective"))
    if datum.mu > sum(datum.branch_mus):
        out.append(Violation("toric rank inequality violated",
                             detail=f"mu = {datum.mu} > sum mu_i = {sum(datum.branch_mus)}"))
    lam0 = datum.polarization
    if lam0 is not None and not lam0.is_injective():
        out.append(Violation("polarization not injective"))
    for i in range(datum.n):
        lam_i = explicit[i] if explicit is not None else None
        if datum.is_principal:
            if lam0 is None and lam_i is None:
                continue   # two default identities commute
        elif lam0 is None or lam_i is None:
            continue   # an unpolarized side has no square
        # sp'_i ∘ lambda must agree with lambda_i ∘ sp_i for the dual
        # verdicts to transport (the purity squares must commute)
        sp = datum.branches[i].specialization
        left = datum.dual_sp(i) if lam0 is None else datum.dual_sp(i).compose(lam0)
        right = sp if lam_i is None else lam_i.compose(sp)
        if left.entries != right.entries:
            out.append(Violation("polarization incompatible with specializations", i))
    for ov in datum.strata:
        out.extend(_override_violations(datum, ov))
    return out


def _override_violations(datum: DegenDatum, ov: StratumOverride) -> list[Violation]:
    def invalid(detail: str) -> list[Violation]:
        return [Violation("stratum override invalid", detail=detail)]

    amb = sum(datum.branches[j].rank for j in ov.branches)
    if ov.inclusion.nrows != amb:
        return invalid(f"inclusion targets rank {ov.inclusion.nrows}, "
                       f"ambient rank is {amb}")
    if not ov.inclusion.is_injective():
        return invalid("inclusion not injective")
    restricted = restricted_purity(datum, ov.branches)
    out: list[Violation] = []
    if ov.inclusion.solve(restricted) is None:
        out = invalid("restricted purity does not factor through the override")
    elif ov.inclusion.ncols != restricted.rank_of_image():
        out = invalid("override rank differs from restricted purity rank")
    dual = ov.dual_inclusion
    if dual is None:
        # only on a principal datum does the primal inclusion serve the dual side
        return out if datum.is_principal else out + invalid(
            "no dual inclusion on a non-principal datum")
    damb = sum(datum.branches[j].dual_rank for j in ov.branches)
    if dual.nrows != damb or not dual.is_injective():
        return out + invalid("bad dual inclusion")
    dual_restricted = restricted_purity(datum, ov.branches, dual=True)
    if dual.solve(dual_restricted) is None:
        out += invalid("restricted dual purity does not factor through the dual override")
    elif dual.ncols != dual_restricted.rank_of_image():
        out += invalid("dual override rank differs from restricted dual purity rank")
    return out


def require_valid(datum: DegenDatum) -> None:
    if datum.violations:
        raise InputError("invalid degeneration datum: "
                         + "; ".join(str(v) for v in datum.violations))


def analyze(datum: DegenDatum) -> Verdict:
    """All three toric-additivity verdicts from one purity SNF."""
    require_valid(datum)
    return datum.verdict


def require_prime_l(datum: DegenDatum, l: int) -> None:
    """Refuse an l that is not a prime other than the residue characteristic."""
    if not is_prime(l):
        raise InputError(f"l must be prime, got {l}")
    if l == datum.residue_char:
        raise InputError("prime equals residue characteristic")


def is_l_toric_additive(datum: DegenDatum, l: int) -> bool:
    """Verdict for one prime l != p: purity square and l-torsion-free."""
    require_prime_l(datum, l)
    require_valid(datum)
    torsion, free_rank = datum.purity_cokernel
    # the purity map is injective, so a zero free rank means it is square
    return free_rank == 0 and all(d % l for d in torsion.invariant_factors)
