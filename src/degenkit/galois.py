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
each.  Every group is read off the datum's maps, with no representation
object and never the mu × mu product psi_i:

- ker psi_i = ker f_i, as sp_i is onto Z^mu_i, so sp_i^t is injective.
- psi_i and f_i have the same row lattice: its vectors (sp_i·y)^t·f_i,
  y in Z^mu, are all z^t·f_i, z in Z^mu_i.  So the stacks of the psi_i and
  of the f_i have one row lattice L, hence one set of nonzero invariant
  factors d_k: Z^mu / L ≅ ⊕ Z/d_k ⊕ Z^(mu - rank L) (Smith form).
- sum a_i·psi_i = R^t·diag(a_j·phi_j)·R' over the j with a_j != 0, where
  R and R' stack the sp_j and sp'_j (restricted purity): the trait's
  composed pairing on R and R' (``monodromy.closed_point_pairing``), whose
  cokernel ``monodromy.composed_cokernel`` takes.  Where R' = R and every
  phi_j is symmetric (as on a principal datum without branch polarizations),
  so is the sum, and only its upper triangle is computed (``monodromy``
  module docstring).

Derived strata.  A stratum basis B that the code derives factors R = B·Q
with Q onto: Q = 1 where B is R itself, and B is a basis of im R where it
is R's Hermite basis.  So, with R' = B'·Q' likewise, sum a_i·psi_i =
Q^t·phi_f·Q' with phi_f = B^t·diag(a_j·phi_j)·B', and its torsion is that
of coker phi_f, the trait group:

- Q' onto gives im(phi_f·Q') = im phi_f.
- Q onto has a right inverse S, so S^t·Q^t = 1 and Q^t is split
  injective: Z^mu = Q^t(Z^r) ⊕ C with C = ker S^t free.
- So coker(sum a_i·psi_i) = Q^t(Z^r) / Q^t(im phi_f) ⊕ C ≅ coker phi_f ⊕ C.

The oracle therefore computes the action's torsion only under an override,
whose inclusion contains the image of R but may strictly contain it: there
Q need not be onto, the sides can differ, and exit 1 stays reachable.

Block reduction of the stack.  The stacked f_i are diag(phi_i)·P', with P'
the dual purity map (sp'_1; ...; sp'_n).  When P' is unimodular, that is,
when coker P' is 0 (``DegenDatum.dual_purity_cokernel``: P' is onto, and
validation found it injective), P' is an automorphism of Z^mu, so
diag(phi_i)·P'·Z^mu = diag(phi_i)·Z^mu: the stack has the image, hence the
cokernel, of diag(phi_i), which is ⊕ coker phi_i.  ``stack_torsion`` reads
that sum off the datum's one Smith diagonal per branch pairing, and the
stack is factored only where P' is not unimodular.  This covers every
principal toric-additive datum (P' = P) and every toric-additive
explicit-dual one with unimodular polarizations (P'·lambda = diag(lambda_i)·P).

On a valid datum T^G = T^f = X^dual ⊕ C, that is, the stacked f_i are
injective: if f_i·x = 0 for every i, then sp'_i·x = 0 for every i, since
each phi_i is injective, and then x = 0, since the dual purity map is
injective.  So the Galois side checks nothing beyond the datum's validity:
a rank comparison of T^G with 2d - mu could never fail.

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
this way (``torsion_phi_group``), from cokernel torsion taken once per
matrix; nothing is solved modulo l^r.
"""

from __future__ import annotations

from math import gcd

from .degeneration import (
    DegenDatum,
    require_prime_l,
    require_valid,
    restricted_purity,
)
from .errors import InputError
from .lattice import FinAb, LatticeMap, cokernel, is_onto
from .monodromy import TraitProfile, closed_point_pairing, composed_cokernel


def stack_torsion(datum: DegenDatum) -> FinAb:
    """Cokernel torsion of the stacked psi_i: ⊕ coker phi_i where the dual
    purity map is unimodular, else that of the stacked f_i = phi_i·sp'_i,
    which have the same row lattice (module docstring): diag(phi_i)·P',
    formed as the stack of the products phi_i·sp'_i.

    Its l-part is the closed-point bound, the l-part of the torsion of
    ker(stack ⊗ Q/Z), which has no Q/Z summand as the stack is injective.
    T^G has no X' part, so the exact closed-point group at level l^r is
    ⊕ Z/gcd(d_k, l^r) over these invariant factors d_k: the bound itself
    once l^r reaches its exponent.  So the oracle reports the bound as the
    exact torsion, and ``bound_is_strict`` is always false."""
    require_valid(datum)
    # P' is injective on a valid datum, so onto makes it unimodular
    if is_onto(datum.dual_purity_cokernel):
        return FinAb.direct_sum([datum.pairing_cokernel(i) for i in range(datum.n)])
    stacked = LatticeMap.block_compose([b.pairing for b in datum.branches],
                                       restricted_purity(datum, range(datum.n), dual=True))
    return cokernel(stacked)[0]


def action_torsion(datum: DegenDatum, profile: TraitProfile) -> FinAb:
    """Cokernel torsion of sum a_i·psi_i (module docstring)."""
    require_valid(datum)
    return composed_cokernel(datum, closed_point_pairing(datum, profile))[0]


def star_condition(datum: DegenDatum, l: int) -> bool:
    """T is the sum over i of the parts fixed by all generators except sigma_i,
    up to index coprime to l: the dual purity map is l-toric additive
    (module docstring).

    An explicit dual side needs both polarizations: only their squares tie
    P', which the Galois side reads, to P, which the lattice side reads."""
    require_prime_l(datum, l)
    require_valid(datum)
    if not datum.is_principal and \
            (datum.polarization is None or datum.branch_polarizations is None):
        raise InputError("an explicit dual side needs the closed-point and branch polarizations")
    torsion, free_rank = datum.dual_purity_cokernel
    return free_rank == 0 and all(d % l for d in torsion.invariant_factors)


def torsion_phi_group(torsion: FinAb, l: int, r: int) -> FinAb:
    """Finite-level component-group torsion of the trait pulled back along a
    profile, from the cokernel torsion of its action sum a_i·psi_i.

    The trait generator acts by sigma = 1 + sum a_i·N_i; the group is
    ker(sigma - 1 on T ⊗ Z/l^r) modulo the image of the sigma-fixed lattice,
    stable in r once l^r exceeds the group exponent.  X^dual ⊕ C lies in both,
    so only the X' block, where sigma - 1 is sum a_i·psi_i, counts: the group
    is ⊕ Z/gcd(d_k, l^r) over the invariant factors d_k of the torsion
    (module docstring).
    """
    if r < 1:
        raise InputError("level r must be >= 1")
    # v_l(d) < d.bit_length() as l >= 2, so the power past it changes no gcd
    return FinAb(tuple(g for g in (gcd(d, l ** min(r, d.bit_length()))
                                   for d in torsion.invariant_factors) if g > 1))
