"""Synthesized monodromy action on an integer model of the Tate module.

The representation lives on T = X^dual ⊕ C ⊕ X' with C of rank twice the
abelian rank.  Each boundary branch contributes a nilpotent N_i sending the
X' block into the X^dual block through sp_i^dual ∘ phi_i ∘ sp'_i and killing
everything else, so the generators sigma_i = 1 + N_i commute and are
unipotent of level 2.  Everything is built over Z: fixed parts are exact
integer kernels and l-adic statements become "index coprime to l" statements.
Finite-level arithmetic mod l^r appears only in the component-group torsion
formula, where the statement itself is finite level.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import intmat
from .degeneration import DegenDatum, require_valid
from .errors import FalsificationError, InputError
from .lattice import (
    FinAb,
    Lattice,
    LatticeMap,
    cokernel,
    image_lattices_equal,
    is_prime,
    kernel_saturated,
    sum_index,
)
from .monodromy import TraitProfile, psi_maps


@dataclass(frozen=True)
class GaloisRep:
    l: int
    toric_rank: int              # mu
    abelian_rank: int            # alpha
    lattice: Lattice             # T of rank 2d, d = mu + alpha
    nilpotents: tuple[LatticeMap, ...]

    @property
    def d(self) -> int:
        return self.toric_rank + self.abelian_rank

    @property
    def n(self) -> int:
        return len(self.nilpotents)

    def sigma(self, i: int) -> LatticeMap:
        return LatticeMap.identity(self.lattice.rank).add(self.nilpotents[i])

    def toric_part(self) -> LatticeMap:
        """Inclusion of T^t = the X^dual block, rank mu."""
        return _block_inclusion(self.lattice.rank, 0, self.toric_rank)

    def fixed_part(self) -> LatticeMap:
        """Inclusion of T^f = X^dual ⊕ C, rank 2d - mu."""
        return _block_inclusion(self.lattice.rank, 0, self.lattice.rank - self.toric_rank)

    def char_block_projection(self) -> LatticeMap:
        """Projection T -> T/T^f identified with the X' block."""
        return _block_inclusion(self.lattice.rank, self.lattice.rank - self.toric_rank,
                                self.toric_rank).transpose()


def _block_inclusion(total: int, start: int, size: int) -> LatticeMap:
    rows = []
    for i in range(total):
        row = [0] * size
        if start <= i < start + size:
            row[i - start] = 1
        rows.append(row)
    return LatticeMap.from_rows(rows, source_rank=size, target_rank=total)


def build_rep(datum: DegenDatum, l: int) -> GaloisRep:
    """Integer model of the l-adic representation attached to the datum."""
    if not is_prime(l):
        raise InputError(f"l must be prime, got {l}")
    if l == datum.residue_char:
        raise InputError("prime equals residue characteristic")
    require_valid(datum)
    mu = datum.mu
    alpha = datum.abelian_rank
    total = 2 * (mu + alpha)
    # N_i = ι_{X^dual} ∘ psi_i ∘ π_{X'}
    inclusion = _block_inclusion(total, 0, mu)
    projection = _block_inclusion(total, total - mu, mu).transpose()
    nilpotents = tuple(inclusion.compose(psi).compose(projection) for psi in psi_maps(datum))
    rep = GaloisRep(l, mu, alpha, Lattice(total), nilpotents)
    _verify_rep(rep)
    return rep


def _verify_rep(rep: GaloisRep) -> None:
    for i, ni in enumerate(rep.nilpotents):
        for j, nj in enumerate(rep.nilpotents):
            if not ni.compose(nj).is_zero():
                raise FalsificationError(f"N_{i + 1}·N_{j + 1} != 0 in the synthesized action")
    fixed = fixed_lattice(rep, tuple(range(rep.n)))
    expected = rep.lattice.rank - rep.toric_rank
    if fixed.ncols != expected:
        raise FalsificationError(
            f"rank T^G = {fixed.ncols}, expected 2d - mu = {expected}")
    if not image_lattices_equal(fixed, rep.fixed_part()):
        raise FalsificationError("T^G differs from T^f as a saturated sublattice")


def fixed_lattice(rep: GaloisRep, generators: tuple[int, ...]) -> LatticeMap:
    """Saturated lattice of vectors fixed by the listed sigma generators."""
    maps = [rep.nilpotents[i] for i in generators]
    if not maps:
        return LatticeMap.identity(rep.lattice.rank)
    return kernel_saturated(LatticeMap.stack(maps))


def star_condition(rep: GaloisRep) -> bool:
    """T is the sum over i of the parts fixed by all generators except sigma_i,
    up to index coprime to l."""
    if rep.n == 0:
        return True
    parts = []
    for i in range(rep.n):
        others = tuple(j for j in range(rep.n) if j != i)
        parts.append(fixed_lattice(rep, others))
    index = sum_index(parts)
    return index is not None and index % rep.l != 0


def decomposition_check(rep: GaloisRep) -> bool:
    """Attempt the block decomposition of T/T^G into generator-exclusive parts.

    V_i is the image in T/T^G of the sublattice fixed by every sigma_j with
    j != i.  Success means: each such sublattice really is fixed by the other
    generators and invariant under its own, the V_i are independent, and their
    sum has finite index coprime to l.
    """
    if rep.n == 0:
        return True
    proj = rep.char_block_projection()
    parts: list[LatticeMap] = []
    for i in range(rep.n):
        others = tuple(j for j in range(rep.n) if j != i)
        w = fixed_lattice(rep, others)
        for j in others:
            if not rep.nilpotents[j].compose(w).is_zero():
                return False
        if w.solve(rep.sigma(i).compose(w)) is None:
            return False
        parts.append(proj.compose(w).image_basis())
    # direct and of finite index: the combined basis columns number rank T/T^G
    # and span a full-rank sublattice, so they are independent
    index = sum_index(parts)
    return (sum(p.ncols for p in parts) == rep.toric_rank
            and index is not None and index % rep.l != 0)


def _mod_lr_quotient(action: LatticeMap, fixed: LatticeMap, modulus: int) -> FinAb:
    """Invariants of ker(action mod m) modulo the image of the fixed lattice.

    Both subgroups of (Z/m)^N are lifted to full-rank sublattices of Z^N
    containing m·Z^N; the quotient is read off one integral change of basis.
    """
    total = action.ncols
    # the raw Smith form: U is never read, so it is not frozen into a map
    _, d, v = intmat.smith(action.entries, action.nrows, action.ncols)
    diag = intmat.diagonal_of(d, action.nrows, action.ncols)
    scales = [modulus // gcd(diag[k], modulus) if k < len(diag) else 1 for k in range(total)]
    kernel = LatticeMap.from_rows([[x * c for x, c in zip(row, scales)] for row in v],
                                  source_rank=total, target_rank=total)
    relations = LatticeMap.identity(total).scaled(modulus)
    kernel_basis = LatticeMap.beside([kernel, relations]).image_basis()
    change = kernel_basis.solve(LatticeMap.beside([fixed, relations]).image_basis())
    if change is None:
        raise FalsificationError("fixed vectors escaped the finite-level kernel")
    return cokernel(change)[0]


def torsion_phi_group(rep: GaloisRep, profile: TraitProfile, r: int) -> FinAb:
    """Finite-level component-group torsion of the trait pulled back along the profile.

    The trait generator acts by sigma = 1 + sum a_i·N_i; the group is
    ker(sigma - 1 on T ⊗ Z/l^r) modulo the image of the sigma-fixed lattice,
    stable in r once l^r exceeds the group exponent.
    """
    if r < 1:
        raise InputError("level r must be >= 1")
    if len(profile.multiplicities) != rep.n:
        raise InputError(f"profile has {len(profile.multiplicities)} entries, rep has {rep.n}")
    total = rep.lattice.rank
    action = LatticeMap.zero(rep.lattice, rep.lattice)
    for a, nil in zip(profile.multiplicities, rep.nilpotents):
        if a:
            action = action.add(nil.scaled(a))
    fixed = kernel_saturated(action)
    return _mod_lr_quotient(action, fixed, rep.l ** r)


def closed_point_torsion(rep: GaloisRep, r: int) -> FinAb:
    """Exact l^r-torsion of the closed-point component group from the full action."""
    if r < 1:
        raise InputError("level r must be >= 1")
    if rep.n == 0:
        return FinAb.trivial()
    stacked = LatticeMap.stack(list(rep.nilpotents))
    fixed = fixed_lattice(rep, tuple(range(rep.n)))
    return _mod_lr_quotient(stacked, fixed, rep.l ** r)
