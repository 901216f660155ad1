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
coprime to l" statements.

On a valid datum T^G = T^f = X^dual ⊕ C, that is, the stacked psi_i are
injective.  If psi_i·x = 0 for every i, then sp'_i·x = 0 for every i, since
each phi_i is injective and so is each sp_i^dual (sp_i is surjective); and
then x = 0, since the dual purity map is injective.  So ``build_rep`` checks
nothing beyond the datum's validity: a rank comparison of T^G with 2d - mu
could never fail.

Finite levels.  Let A act on X' with nonzero invariant factors d_k, U·A·V = D.
In the coordinates y = V^-1·x, x lies in ker(A mod m) exactly when
d_k·y_k ≡ 0 mod m for every k, and ker_Z A is spanned by the coordinates past
the rank.  So ker(A mod m) modulo the image of ker_Z A is ⊕_k Z/gcd(d_k, m),
read off the cokernel torsion of A.  Both finite-level groups are computed
this way, from torsion invariants found once per rep and matrix; nothing is
solved modulo l^r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .degeneration import DegenDatum, require_valid
from .errors import InputError
from .lattice import FinAb, Lattice, LatticeMap, cokernel, is_prime, kernel_saturated, sum_index
from .monodromy import TraitProfile, psi_maps


@dataclass(frozen=True)
class GaloisRep:
    l: int
    toric_rank: int              # mu
    abelian_rank: int            # alpha
    psi: tuple[LatticeMap, ...]  # the X' -> X^dual block of each N_i
    # cokernel torsion of sum a_i·psi_i, by multiplicities (a_1, ..., a_n)
    _action_torsion: dict[tuple[int, ...], FinAb] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def lattice(self) -> Lattice:
        """T, of rank 2d with d = mu + alpha."""
        return Lattice(2 * (self.toric_rank + self.abelian_rank))

    @property
    def n(self) -> int:
        return len(self.psi)

    @cached_property
    def exclusive_parts(self) -> tuple[LatticeMap, ...]:
        """For each i, the X' part of the lattice fixed by every sigma_j with j != i.

        That is the saturated kernel of the psi_j with j != i, which depends
        only on their rational row space: the kernel of a row basis of
        psi_1..psi_{i-1} stacked on one of psi_{i+1}..psi_n, at most 2·mu rows.
        """
        prefix = _running_row_bases(self.psi, self.toric_rank)
        suffix = _running_row_bases(self.psi[::-1], self.toric_rank)[::-1]
        return tuple(kernel_saturated(LatticeMap.stack([prefix[i], suffix[i + 1]]))
                     for i in range(self.n))

    @cached_property
    def exclusive_index(self) -> int | None:
        """Index in X' of the sum of the exclusive parts; None when infinite."""
        return sum_index(list(self.exclusive_parts))

    @cached_property
    def stack_torsion(self) -> FinAb:
        """Cokernel torsion of the stacked psi_i, from the Hermite basis of
        their row lattice (at most mu rows).  Its l-part is the closed-point
        bound, which the oracle reads off here rather than factoring twice."""
        if self.n == 0:
            return FinAb.trivial()
        return cokernel(LatticeMap.stack(list(self.psi)).row_lattice())[0]

    def action_torsion(self, multiplicities: tuple[int, ...]) -> FinAb:
        """Cokernel torsion of sum a_i·psi_i, computed once per profile."""
        torsion = self._action_torsion.get(multiplicities)
        if torsion is None:
            x_prime = Lattice(self.toric_rank)
            action = LatticeMap.zero(x_prime, x_prime)
            for a, psi in zip(multiplicities, self.psi):
                if a:
                    action = action.add(psi.scaled(a))
            torsion = self._action_torsion[multiplicities] = cokernel(action)[0]
        return torsion


def _running_row_bases(maps: tuple[LatticeMap, ...], rank: int) -> list[LatticeMap]:
    """Row bases of the stacks of maps[:k], k = 0..len(maps); at most rank rows each."""
    bases = [LatticeMap.zero(Lattice(rank), Lattice(0))]
    for m in maps:
        last = bases[-1]
        bases.append(last if last.nrows == rank else LatticeMap.stack([last, m]).row_basis())
    return bases


def build_rep(datum: DegenDatum, l: int) -> GaloisRep:
    """Integer model of the l-adic representation attached to the datum."""
    if not is_prime(l):
        raise InputError(f"l must be prime, got {l}")
    if l == datum.residue_char:
        raise InputError("prime equals residue characteristic")
    require_valid(datum)
    return GaloisRep(l, datum.mu, datum.abelian_rank, tuple(psi_maps(datum)))


def fixed_lattice(rep: GaloisRep, generators: tuple[int, ...]) -> LatticeMap:
    """X' part of the saturated lattice fixed by the listed sigma generators.

    The whole fixed lattice is X^dual ⊕ C ⊕ this part.
    """
    maps = [rep.psi[i] for i in generators]
    if not maps:
        return LatticeMap.identity(rep.toric_rank)
    return kernel_saturated(LatticeMap.stack(maps))


def star_condition(rep: GaloisRep) -> bool:
    """T is the sum over i of the parts fixed by all generators except sigma_i,
    up to index coprime to l."""
    if rep.n == 0:
        return True
    index = rep.exclusive_index
    return index is not None and index % rep.l != 0


def decomposition_check(rep: GaloisRep) -> bool:
    """Attempt the block decomposition of T/T^G into generator-exclusive parts.

    V_i is the image in T/T^G = X' of the sublattice fixed by every sigma_j
    with j != i.  Such a sublattice is fixed by the other generators by
    definition and invariant under its own, since N_i lands in X^dual.
    Success means the V_i are independent and their sum has finite index
    coprime to l.

    This always equals ``star_condition``.  The V_i are independent: if
    sum k_i = 0 with k_i in V_i, applying psi_m leaves psi_m(k_m) = 0, so k_m
    is killed by every psi_j and is 0.  So their ranks sum to mu exactly when
    the index of their sum is finite.
    """
    return rep.n == 0 or (sum(p.ncols for p in rep.exclusive_parts) == rep.toric_rank
                          and star_condition(rep))


def _at_level(torsion: FinAb, modulus: int) -> FinAb:
    """ker(A mod m) modulo the image of ker_Z A, for A with this cokernel torsion."""
    return FinAb(tuple(g for g in (gcd(d, modulus) for d in torsion.invariant_factors) if g > 1))


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
    return _at_level(rep.action_torsion(profile.multiplicities), rep.l ** r)


def closed_point_torsion(rep: GaloisRep, r: int) -> FinAb:
    """Exact l^r-torsion of the closed-point component group from the full action.

    The fixed lattice T^G has no X' part (see the module docstring), so the
    group is the finite-level kernel of the stacked psi_i.  At a level with
    l^r at least the exponent of ``monodromy.closed_point_bound``, this is
    that bound's torsion: both are the l-part of the stack's invariant
    factors.  So the oracle reports the bound as the exact torsion, and its
    ``bound_is_strict`` is always false.
    """
    if r < 1:
        raise InputError("level r must be >= 1")
    return _at_level(rep.stack_torsion, rep.l ** r)
