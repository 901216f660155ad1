"""Reference model of the monodromy action on the whole Tate-module lattice.

``degenkit.galois`` stores only the X' -> X^dual block psi_i of each
nilpotent.  This module builds the full 2d×2d matrices
N_i = ι_{X^dual} ∘ psi_i ∘ π_{X'} on T = X^dual ⊕ C ⊕ X' and computes the
fixed lattices, the star and decomposition conditions and both finite-level
groups on all of T, without using the block layout, so tests can compare
the block form against it.  The finite-level groups are taken from the
explicit kernel of x -> N·x mod l^r, not from the closed form that
``degenkit.galois`` reads off the invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from degenkit.lattice import FinAb, LatticeMap, cokernel
from degenkit.monodromy import TraitProfile

from oracles import add_maps, beside, kernel_saturated, psi_maps, sum_index


def mod_lr_quotient(action: LatticeMap, fixed: LatticeMap, modulus: int) -> FinAb:
    """Invariants of ker(action mod m) modulo the image of the fixed lattice.

    The kernel mod m is lifted to the lattice {x : action·x ∈ m·Z^M}, the
    projection of the integer kernel of (action | -m·I) to its x part; that
    projection is injective, so it is a basis.  The quotient by the fixed
    lattice and m·Z^N is the cokernel of one integral solve.
    """
    total = action.ncols
    lifted = beside([action, LatticeMap.identity(action.nrows).scaled(-modulus)])
    pairs = kernel_saturated(lifted)
    kernel = LatticeMap(pairs.entries[:total], pairs.ncols)
    relations = LatticeMap.identity(total).scaled(modulus)
    change = kernel.solve(beside([fixed, relations]))
    assert change is not None, "fixed vectors outside the finite-level kernel"
    return cokernel(change)[0]


def block_inclusion(total: int, start: int, size: int) -> LatticeMap:
    rows = [[1 if i - start == j else 0 for j in range(size)] for i in range(total)]
    return LatticeMap.from_rows(rows, size)


@dataclass(frozen=True)
class FullRep:
    l: int
    toric_rank: int                      # mu
    total: int                           # 2d, d = mu + alpha
    nilpotents: tuple[LatticeMap, ...]

    @property
    def n(self) -> int:
        return len(self.nilpotents)

    def sigma(self, i: int) -> LatticeMap:
        return add_maps(LatticeMap.identity(self.total), self.nilpotents[i])

    def fixed_part(self) -> LatticeMap:
        """Inclusion of T^f = X^dual ⊕ C, rank 2d - mu."""
        return block_inclusion(self.total, 0, self.total - self.toric_rank)

    def char_block_projection(self) -> LatticeMap:
        """Projection T -> T/T^f identified with the X' block."""
        return block_inclusion(self.total, self.total - self.toric_rank,
                               self.toric_rank).transpose()


def full_rep(datum, l: int) -> FullRep:
    mu = datum.mu
    total = 2 * (mu + datum.abelian_rank)
    inclusion = block_inclusion(total, 0, mu)
    projection = block_inclusion(total, total - mu, mu).transpose()
    nilpotents = tuple(inclusion.compose(psi).compose(projection) for psi in psi_maps(datum))
    return FullRep(l, mu, total, nilpotents)


def is_zero(m: LatticeMap) -> bool:
    return all(v == 0 for row in m.entries for v in row)


def fixed_lattice(rep: FullRep, generators: tuple[int, ...]) -> LatticeMap:
    maps = [rep.nilpotents[i] for i in generators]
    if not maps:
        return LatticeMap.identity(rep.total)
    return kernel_saturated(LatticeMap.stack(maps))


def _others(rep: FullRep, i: int) -> tuple[int, ...]:
    return tuple(j for j in range(rep.n) if j != i)


def star_condition(rep: FullRep) -> bool:
    if rep.n == 0:
        return True
    index = sum_index([fixed_lattice(rep, _others(rep, i)) for i in range(rep.n)])
    return index is not None and index % rep.l != 0


def decomposition_check(rep: FullRep) -> bool:
    """Every check of the decomposition, including the ones the block form
    makes automatic: each W_i is fixed by the other generators and invariant
    under its own."""
    if rep.n == 0:
        return True
    proj = rep.char_block_projection()
    parts = []
    for i in range(rep.n):
        w = fixed_lattice(rep, _others(rep, i))
        if not all(is_zero(rep.nilpotents[j].compose(w)) for j in _others(rep, i)):
            return False
        if w.solve(rep.sigma(i).compose(w)) is None:
            return False
        parts.append(proj.compose(w).image_basis())
    index = sum_index(parts)
    return (sum(p.ncols for p in parts) == rep.toric_rank
            and index is not None and index % rep.l != 0)


def torsion_phi_group(rep: FullRep, profile: TraitProfile, r: int) -> FinAb:
    action = LatticeMap.zero(rep.total, rep.total)
    for a, nil in zip(profile.multiplicities, rep.nilpotents):
        if a:
            action = add_maps(action, nil.scaled(a))
    return mod_lr_quotient(action, kernel_saturated(action), rep.l ** r)


def closed_point_torsion(rep: FullRep, r: int) -> FinAb:
    if rep.n == 0:
        return FinAb()
    stacked = LatticeMap.stack(list(rep.nilpotents))
    return mod_lr_quotient(stacked, fixed_lattice(rep, tuple(range(rep.n))), rep.l ** r)
