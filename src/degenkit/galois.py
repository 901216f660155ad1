"""Synthesized monodromy action on an integer model of the Tate module.

The representation lives on T = X^dual ⊕ C ⊕ X' with C of rank twice the
abelian rank.  Each boundary branch contributes a nilpotent N_i sending the
X' block into the X^dual block through psi_i = sp_i^dual ∘ phi_i ∘ sp'_i and
killing everything else, so the generators sigma_i = 1 + N_i commute and are
unipotent of level 2.  A ``GaloisRep`` stores only those psi_i blocks: every
N_i kills X^dual ⊕ C and lands in X^dual, so each fixed lattice is
X^dual ⊕ C plus a sublattice of X', each finite-level group is read off X'
alone, and the C block never reaches a matrix.  Everything is built over Z:
fixed parts are exact integer kernels and l-adic statements become "index
coprime to l" statements.  Finite-level arithmetic mod l^r appears only in
the component-group torsion formula, where the statement itself is finite
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import intmat
from .degeneration import DegenDatum, require_valid
from .errors import FalsificationError, InputError
from .lattice import FinAb, Lattice, LatticeMap, cokernel, is_prime, kernel_saturated, sum_index
from .monodromy import TraitProfile, psi_maps


@dataclass(frozen=True)
class GaloisRep:
    l: int
    toric_rank: int              # mu
    abelian_rank: int            # alpha
    psi: tuple[LatticeMap, ...]  # the X' -> X^dual block of each N_i

    @property
    def lattice(self) -> Lattice:
        """T, of rank 2d with d = mu + alpha."""
        return Lattice(2 * (self.toric_rank + self.abelian_rank))

    @property
    def n(self) -> int:
        return len(self.psi)

    @cached_property
    def exclusive_parts(self) -> tuple[LatticeMap, ...]:
        """For each i, the X' part of the lattice fixed by every sigma_j with j != i."""
        return tuple(fixed_lattice(self, tuple(j for j in range(self.n) if j != i))
                     for i in range(self.n))


def build_rep(datum: DegenDatum, l: int) -> GaloisRep:
    """Integer model of the l-adic representation attached to the datum."""
    if not is_prime(l):
        raise InputError(f"l must be prime, got {l}")
    if l == datum.residue_char:
        raise InputError("prime equals residue characteristic")
    require_valid(datum)
    rep = GaloisRep(l, datum.mu, datum.abelian_rank, tuple(psi_maps(datum)))
    # T^G = X^dual ⊕ C ⊕ (its X' part), and T^G must be T^f = X^dual ⊕ C
    escaped = fixed_lattice(rep, tuple(range(rep.n))).ncols
    if escaped:
        expected = rep.lattice.rank - rep.toric_rank
        raise FalsificationError(
            f"rank T^G = {expected + escaped}, expected 2d - mu = {expected}")
    return rep


def fixed_lattice(rep: GaloisRep, generators: tuple[int, ...]) -> LatticeMap:
    """X' part of the saturated lattice fixed by the listed sigma generators.

    The whole fixed lattice is X^dual ⊕ C ⊕ this part.
    """
    maps = [rep.psi[i] for i in generators]
    if not maps:
        return LatticeMap.identity(rep.toric_rank)
    return kernel_saturated(LatticeMap.stack(maps))


def _index_prime_to_l(rep: GaloisRep) -> bool:
    index = sum_index(list(rep.exclusive_parts))
    return index is not None and index % rep.l != 0


def star_condition(rep: GaloisRep) -> bool:
    """T is the sum over i of the parts fixed by all generators except sigma_i,
    up to index coprime to l."""
    return rep.n == 0 or _index_prime_to_l(rep)


def decomposition_check(rep: GaloisRep) -> bool:
    """Attempt the block decomposition of T/T^G into generator-exclusive parts.

    V_i is the image in T/T^G = X' of the sublattice fixed by every sigma_j
    with j != i.  Such a sublattice is fixed by the other generators by
    definition and invariant under its own, since N_i lands in X^dual.
    Success means the V_i are independent and their sum has finite index
    coprime to l.
    """
    if rep.n == 0:
        return True
    # direct and of finite index: the combined basis columns number rank T/T^G
    # and span a full-rank sublattice, so they are independent
    return (sum(p.ncols for p in rep.exclusive_parts) == rep.toric_rank
            and _index_prime_to_l(rep))


def _mod_lr_quotient(action: LatticeMap, fixed: LatticeMap, modulus: int) -> FinAb:
    """Invariants of ker(action mod m) modulo the image of the fixed lattice.

    Both subgroups of (Z/m)^N are lifted to full-rank sublattices of Z^N
    containing m·Z^N (the scaled columns of V already contain it); the
    quotient is the cokernel of one integral solve.
    """
    total = action.ncols
    diag, v = intmat.smith_columns(action.entries, action.nrows, action.ncols)
    scales = [modulus // gcd(diag[k], modulus) if k < len(diag) else 1 for k in range(total)]
    kernel = LatticeMap.from_rows([[x * c for x, c in zip(row, scales)] for row in v],
                                  source_rank=total, target_rank=total)
    relations = LatticeMap.identity(total).scaled(modulus)
    change = kernel.solve(LatticeMap.beside([fixed, relations]))
    if change is None:
        raise FalsificationError("fixed vectors escaped the finite-level kernel")
    return cokernel(change)[0]


def torsion_phi_group(rep: GaloisRep, profile: TraitProfile, r: int) -> FinAb:
    """Finite-level component-group torsion of the trait pulled back along the profile.

    The trait generator acts by sigma = 1 + sum a_i·N_i; the group is
    ker(sigma - 1 on T ⊗ Z/l^r) modulo the image of the sigma-fixed lattice,
    stable in r once l^r exceeds the group exponent.  X^dual ⊕ C lies in both,
    so only the X' block, where sigma - 1 is sum a_i·psi_i, is computed.
    """
    if r < 1:
        raise InputError("level r must be >= 1")
    if len(profile.multiplicities) != rep.n:
        raise InputError(f"profile has {len(profile.multiplicities)} entries, rep has {rep.n}")
    x_prime = Lattice(rep.toric_rank)
    action = LatticeMap.zero(x_prime, x_prime)
    for a, psi in zip(profile.multiplicities, rep.psi):
        if a:
            action = action.add(psi.scaled(a))
    return _mod_lr_quotient(action, kernel_saturated(action), rep.l ** r)


def closed_point_torsion(rep: GaloisRep, r: int) -> FinAb:
    """Exact l^r-torsion of the closed-point component group from the full action.

    ``build_rep`` has certified that T^G has no X' part, so the fixed lattice
    contributes nothing on X'.
    """
    if r < 1:
        raise InputError("level r must be >= 1")
    if rep.n == 0:
        return FinAb.trivial()
    no_fixed_part = LatticeMap.zero(Lattice(0), Lattice(rep.toric_rank))
    return _mod_lr_quotient(LatticeMap.stack(list(rep.psi)), no_fixed_part, rep.l ** r)
