"""Synthesized monodromy action on an integer model of the Tate module.

The representation lives on T = X^dual ⊕ C ⊕ X' with C of rank twice the
abelian rank.  Each boundary branch contributes a nilpotent N_i sending the
X' block into the X^dual block through psi_i = sp_i^dual ∘ phi_i ∘ sp'_i and
killing everything else, so the generators sigma_i = 1 + N_i commute and are
unipotent of level 2.  Every N_i kills X^dual ⊕ C and lands in X^dual, so
each fixed lattice is X^dual ⊕ C plus a sublattice of X', each finite-level
group is read off X' alone, and the C block never reaches a matrix.
Everything is built over Z: fixed parts are exact integer kernels and l-adic
statements become "index coprime to l" statements.

Factors.  psi_i = sp_i^t·f_i with sp_i and f_i = phi_i ∘ sp'_i mu_i × mu
each.  A ``GaloisRep`` keeps sp_i, phi_i and sp'_i, multiplies out the f_i
only when the action or the stack below needs them, and never forms the
mu × mu product psi_i:

- ker psi_i = ker f_i, as sp_i is onto Z^mu_i, so sp_i^t is injective.
- psi_i and f_i have the same row lattice: its vectors (sp_i·y)^t·f_i,
  y in Z^mu, are all z^t·f_i, z in Z^mu_i.  So the stacks of the psi_i and
  of the f_i have one row lattice L, hence one set of nonzero invariant
  factors d_k: Z^mu / L ≅ ⊕ Z/d_k ⊕ Z^(mu - rank L) (Smith form).
- sum a_i·psi_i = S^t·(a_1·f_1; ...; a_n·f_n) with S = (sp_1; ...; sp_n).
- Where both strata of a trait keep closed-point coordinates (the flag
  ``StratumData.closed_point_coordinates``), their bases are the stacks of
  the sp_j and of the sp'_j over the active j, so the composed pairing
  (sp_j)^t·diag(a_j·phi_j)·(sp'_j) is sum a_i·psi_i: ``share_cokernel``
  takes that pairing's component group for the action's cokernel torsion
  on the two flags alone, with no product and no comparison.

Block reduction of the stack.  The stacked f_i are diag(phi_i)·P', with P'
the dual purity map (sp'_1; ...; sp'_n).  When P' is unimodular, that is,
when coker P' is 0 (``DegenDatum.dual_purity_cokernel``: P' is onto, and
validation found it injective), P' is an automorphism of Z^mu, so
diag(phi_i)·P'·Z^mu = diag(phi_i)·Z^mu: the stack has the image, hence the
cokernel, of diag(phi_i), which is ⊕ coker phi_i.  ``build_rep`` reads that
sum off the datum's one Smith diagonal per branch pairing, and the stack is
factored only where P' is not unimodular.  This covers every principal
toric-additive datum (P' = P) and every toric-additive explicit-dual one
with unimodular polarizations (P'·lambda = diag(lambda_i)·P).

On a valid datum T^G = T^f = X^dual ⊕ C, that is, the stacked f_i are
injective: if f_i·x = 0 for every i, then sp'_i·x = 0 for every i, since
each phi_i is injective, and then x = 0, since the dual purity map is
injective.  So ``build_rep`` checks nothing beyond the datum's validity: a
rank comparison of T^G with 2d - mu could never fail.

Star condition.  The star condition asks that the exclusive parts V_i have
a sum of index prime to l in X'.  V_i is the X' part of the lattice fixed by
every sigma_j with j != i, that is, the kernel of the psi_j with j != i (a
kernel in Z^mu is saturated), which is the kernel of the f_j with j != i.
Such a lattice is also invariant under sigma_i, since N_i lands in X^dual.
The V_i are independent: if sum k_i = 0 with k_i in V_i, applying psi_m
leaves psi_m·k_m = 0, so k_m is killed by every psi_j and is 0.  On a valid
datum the condition is that the dual purity map P' is l-toric additive:

- Index lemma.  Let B_i be a row basis of f_i, with r_i rows.  A kernel
  depends only on the rational row space, so V_i = ker(B_j, j != i), and
  the stack B of the B_i has the kernel of the stacked f_i, which is 0.
  So R = sum r_i >= mu.
- Case R > mu: the index is infinite.  If it were finite, the V_i would
  span X' ⊗ Q.  B_j kills every V_i with i != j, so B_j(X' ⊗ Q) is
  B_j(V_j ⊗ Q), and r_j <= rank V_j.  By independence,
  R <= sum rank V_j <= mu.
- Case R = mu: B is square and injective, so D = det B != 0, and B maps
  Z^mu onto L = B·Z^mu, of index |D| in Z^R = ⊕ Z^r_i.  The x in Z^mu
  with B·x in Z^r_i are those killed by every B_j with j != i, that is
  V_i; so B maps sum V_i onto ⊕ (L ∩ Z^r_i), and the index of sum V_i in
  X' is [L : ⊕ (L ∩ Z^r_i)].  Let pi_i project onto Z^r_i, so that
  pi_i(L) = B_i·Z^mu, of index h_i in Z^r_i, the product of the invariant
  factors of B_i.  Then ⊕ (L ∩ Z^r_i) ⊆ L ⊆ ⊕ pi_i(L), and over Z_(l)
  L equals the first exactly when it equals the last: each equality gives
  pi_i(L) ⊆ L, hence pi_i(L) = L ∩ Z^r_i.  L has index |D| and ⊕ pi_i(L)
  index prod h_i in Z^R, so [⊕ pi_i(L) : L] = |D| / prod h_i, and the star
  condition holds exactly when R = mu and l does not divide |D| / prod h_i.
- Reduction to P'.  Validation proves each phi_i square and injective,
  each sp'_i onto and P' injective.  So f_i has rank mu_i and r_i = mu_i:
  R = sum mu_i, and R = mu exactly when P' is square.  Then each f_i is its
  own row basis, B = diag(phi_i)·P' and h_i = |det phi_i|, so
  |D| / prod h_i = |det P'|: the star condition is that coker P' has free
  rank 0 and no invariant factor divisible by l.

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

from .degeneration import DegenDatum, is_onto, require_prime_l, require_valid
from .errors import InputError
from .lattice import FinAb, Lattice, LatticeMap, cokernel
from .monodromy import ComposedPairing, TraitProfile


@dataclass(frozen=True)
class GaloisRep:
    l: int
    toric_rank: int              # mu
    abelian_rank: int            # alpha
    # (sp_i, phi_i, sp'_i) for each N_i, whose X' -> X^dual block is
    # psi_i = sp_i^t·phi_i·sp'_i
    branches: tuple[tuple[LatticeMap, LatticeMap, LatticeMap], ...]
    # ⊕ coker phi_i, the stack torsion where the dual purity map is unimodular
    block_torsion: FinAb | None = None
    # cokernel torsion of sum a_i·psi_i, by multiplicities (a_1, ..., a_n)
    _action_torsion: dict[tuple[int, ...], FinAb] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def lattice(self) -> Lattice:
        """T, of rank 2d with d = mu + alpha."""
        return Lattice(2 * (self.toric_rank + self.abelian_rank))

    @property
    def n(self) -> int:
        return len(self.branches)

    @cached_property
    def factors(self) -> tuple[tuple[LatticeMap, LatticeMap], ...]:
        """(sp_i, f_i) with f_i = phi_i·sp'_i, multiplied out on first use."""
        return tuple((sp, phi.compose(sp_dual)) for sp, phi, sp_dual in self.branches)

    @cached_property
    def stack_torsion(self) -> FinAb:
        """Cokernel torsion of the stacked psi_i, read off the stacked f_i,
        which have the same row lattice, or off ``block_torsion`` where it
        is given (module docstring).

        Its l-part is the closed-point bound, the l-part of the torsion of
        ker(stack ⊗ Q/Z), with divisible rank 0 as the stack is injective.
        T^G has no X' part, so the exact closed-point group at level l^r is
        ⊕ Z/gcd(d_k, l^r) over these invariant factors d_k: the bound itself
        once l^r reaches its exponent.  So the oracle reports the bound as
        the exact torsion, and ``bound_is_strict`` is always false."""
        if self.block_torsion is not None:
            return self.block_torsion
        return cokernel(LatticeMap.stack([f for _, f in self.factors]))[0]

    def action(self, multiplicities: tuple[int, ...]) -> LatticeMap:
        """sum a_i·psi_i, as one product S^t·(a_i·f_i) over the branches
        with a_i != 0 (module docstring)."""
        active = [(a, sp, f) for a, (sp, f) in zip(multiplicities, self.factors) if a]
        if not active:
            x_prime = Lattice(self.toric_rank)
            return LatticeMap.zero(x_prime, x_prime)
        sp_t = LatticeMap.stack([sp for _, sp, _ in active]).transpose()
        return sp_t.compose(LatticeMap.stack([f.scaled(a) for a, _, f in active]))

    def action_torsion(self, multiplicities: tuple[int, ...]) -> FinAb:
        """Cokernel torsion of sum a_i·psi_i, computed once per profile."""
        torsion = self._action_torsion.get(multiplicities)
        if torsion is None:
            torsion = cokernel(self.action(multiplicities))[0]
            self._action_torsion[multiplicities] = torsion
        return torsion

    def share_cokernel(self, composed: ComposedPairing, group: FinAb) -> None:
        """Take the component group of a composed pairing as the cokernel
        torsion of sum a_i·psi_i, which the pairing is when both its strata
        keep closed-point coordinates (module docstring)."""
        if composed.stratum.closed_point_coordinates and \
                composed.dual_stratum.closed_point_coordinates:
            self._action_torsion[composed.profile.multiplicities] = group


def build_rep(datum: DegenDatum, l: int) -> GaloisRep:
    """Integer model of the l-adic representation attached to the datum."""
    require_prime_l(datum, l)
    require_valid(datum)
    branches = tuple((b.specialization, b.pairing, datum.dual_sp(i))
                     for i, b in enumerate(datum.branches))
    # P' is injective on a valid datum, so onto makes it unimodular
    block = FinAb.direct_sum([datum.pairing_cokernel(i) for i in range(datum.n)]) \
        if is_onto(datum.dual_purity_cokernel) else None
    return GaloisRep(l, datum.mu, datum.abelian_rank, branches, block)


def star_condition(datum: DegenDatum, l: int) -> bool:
    """T is the sum over i of the parts fixed by all generators except sigma_i,
    up to index coprime to l: the dual purity map is l-toric additive
    (module docstring)."""
    require_prime_l(datum, l)
    require_valid(datum)
    torsion, free_rank = datum.dual_purity_cokernel
    return free_rank == 0 and all(d % l for d in torsion.invariant_factors)


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
