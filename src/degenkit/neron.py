"""Test-Neron bookkeeping: the Psi group, Kummer rescaling, and certificates.

Psi is the direct sum of the branch component groups.  Rescaling multiplies
the i-th pairing by a tame integer m_i; the invariants of the rescaled group
under the covering group action are Psi, a proven identity (l-parts away from
the residue characteristic come from the unrescaled pairing, the p-part is
acted on trivially and is the same in both groups).  The converse
certificate compares the cokernels of A^t·Psi and A^t·Psi·A.  Equal
cokernels are the hypothesis, which is also the integrality of the
splitting theta; under it, the one check left is that A is an isomorphism,
and theta, the idempotents and the kernel decomposition follow from A^-1.

Both products come from the blocks of Psi = diag(Psi1, Psi2), with no zero
block formed: Psi·A is the stack of Psi1·P and Psi2·Q.  Psi is symmetric,
so A^t·Psi = (Psi·A)^t, and only the upper triangle of the symmetric
A^t·Psi·A = A^t·(Psi·A) is computed; so too for Psi2, a congruence of the
symmetric diag(phi_j∘lambda_j).  Validation proves each phi_j∘lambda_j
symmetric; on hand-made maps the symmetry is a precondition.

On a datum, validation and construction prove every precondition of the
certificate but one: P = sp_1 is onto; Psi1 = phi_1∘lambda_1 is square and
positive definite; Psi2 = B^t·diag(phi_j∘lambda_j)·B is too, as B is
injective; P and Q share their source; and Q is onto where it is the
identity or is solved against a Hermite basis B of im R, as R = B·Q for the
restricted purity map R.  Only an override's inclusion may strictly contain
im R, and then Q is onto exactly when the two images are equal, so
``converse_inputs_from_datum`` tests that one precondition where it solves
Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .degeneration import (
    DegenDatum,
    require_valid,
    restricted_purity,
)
from .errors import FalsificationError, InputError
from .lattice import (
    FinAb,
    LatticeMap,
    Rows,
    cokernel,
)
from .monodromy import stratum_lattice


@dataclass(frozen=True)
class PsiGroup:
    branch_components: tuple[FinAb, ...]
    group: FinAb


@dataclass(frozen=True)
class ConverseCertificate:
    hypothesis_holds: bool
    coker_at_psi: FinAb
    coker_at_psi_a: FinAb
    theta: Rows | None = None
    chi1: LatticeMap | None = None
    chi2: LatticeMap | None = None


def psi_group(datum: DegenDatum) -> PsiGroup:
    """Per-branch component groups and their direct sum."""
    require_valid(datum)
    components = tuple(datum.pairing_cokernel(i) for i in range(datum.n))
    return PsiGroup(components, FinAb.direct_sum(list(components)))


def _tame_multipliers(datum: DegenDatum,
                      multipliers: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """The multipliers m_i, refused unless one per branch, positive and tame
    (coprime to p when p > 0)."""
    ms = tuple(int(m) for m in multipliers)
    if len(ms) != datum.n:
        raise InputError(f"expected {datum.n} multipliers, got {len(ms)}")
    if any(m < 1 for m in ms):
        raise InputError("Kummer multipliers must be positive")
    p = datum.residue_char
    if p > 0:
        for i, m in enumerate(ms):
            if gcd(m, p) != 1:
                raise InputError(
                    f"multiplier {m} on branch {i + 1} is not coprime to the residue characteristic {p}")
    return ms


def rescaled_psi(datum: DegenDatum,
                 multipliers: tuple[int, ...] | list[int]) -> FinAb:
    """The rescaled group Psi' = ⊕ coker(m_i·phi_i), whose invariants under
    the covering action are Psi, branchwise.

    The l-part of the invariants for l != p is ker(phi_i ⊗ Q_l/Z_l) of the
    unrescaled pairing; the p-part (p > 0) is copied from Psi' since the
    action on it is trivial.  Reassembled over the primes of Psi'_i, this is
    Psi_i: every prime of Psi_i divides the rescaled order (coker(m_i·phi_i)
    maps onto coker(phi_i)), and m_i is a unit at p, so the p-parts of Psi'_i
    and Psi_i agree.  So the fixed points are ``psi_group(datum).group``.

    The rescaled datum is valid by construction, as ``datum`` is:
    m_i·phi_i∘lambda_i is symmetric positive definite for m_i > 0 and nothing
    else changes.  So its groups coker(m_i·phi_i) are read off the datum's
    Smith diagonal of phi_i, scaled by m_i, with no validation and no second
    Smith form.
    """
    ms = _tame_multipliers(datum, multipliers)
    return FinAb.direct_sum([datum.pairing_cokernel(i, m) for i, m in enumerate(ms)])


def converse_certificate(p_map: LatticeMap, q_map: LatticeMap,
                         psi1: LatticeMap, psi2: LatticeMap) -> ConverseCertificate:
    """The converse certificate, on inputs that meet its preconditions
    (module docstring).

    Tests the hypothesis im(A^t·Psi) = im(A^t·Psi·A) for A = (P; Q); when it
    holds, certifies that A is an isomorphism and reads the splitting off it.

    Psi is positive definite, so A is injective exactly when coker(A^t·Psi·A)
    has free rank 0, and injectivity is read off that cokernel.  The
    hypothesis is then decided by cokernels: im(A^t·Psi·A) ⊆ im(A^t·Psi),
    both of finite index, and nested lattices of equal index are equal.

    The hypothesis is also the integrality test: the splitting theta solving
    A^t·Psi·A·theta = A^t·Psi is integral exactly when every column of
    A^t·Psi lies in im(A^t·Psi·A).  The theorem left to check is that A is
    an isomorphism.  A is injective, so A·theta = 1 has an integral
    solution exactly when it is; the one solve finds it and checks it on
    every row.  Everything else follows:

    - theta = A^-1, the unique solution;
    - chi1 + chi2 = theta_1∘P + theta_2∘Q = theta·A = 1;
    - chi1 and chi2 are complementary idempotents, as A·theta = 1 gives
      P·theta_1 = 1, Q·theta_2 = 1 and P·theta_2 = Q·theta_1 = 0;
    - X = ker P ⊕ ker Q, the images of chi2 and chi1;
    - P restricted to ker Q is unimodular, with inverse theta_1.
    """
    a = LatticeMap.stack([p_map, q_map])
    psi_a = LatticeMap.block_compose([psi1, psi2], a)
    coker2, free = cokernel(a.transpose_compose(psi_a, symmetric=True))
    if free:
        raise InputError("stacked specializations are not injective")
    # A^t·Psi = (Psi·A)^t, as Psi is symmetric; of free rank 0 too, as A^t
    # is onto over Q
    coker1 = cokernel(psi_a.transpose())[0]
    if coker1 != coker2:
        return ConverseCertificate(False, coker1, coker2)

    inverse = a.solve(LatticeMap.identity(a.nrows))
    if inverse is None:
        raise FalsificationError("certified decomposition failed the isomorphism checks")
    theta, r1 = inverse.entries, p_map.nrows
    theta1 = LatticeMap.from_rows([row[:r1] for row in theta], r1)
    theta2 = LatticeMap.from_rows([row[r1:] for row in theta], q_map.nrows)
    return ConverseCertificate(True, coker1, coker2, theta=theta,
                               chi1=theta1.compose(p_map), chi2=theta2.compose(q_map))


def converse_inputs_from_datum(datum: DegenDatum) -> tuple[LatticeMap, LatticeMap,
                                                           LatticeMap, LatticeMap]:
    """Split a datum into (P, Q, Psi1, Psi2): branch 1 against the rest.

    P is the first specialization; Q is the stratum surjection onto the
    remaining branches with Psi2 the composed pairing there (direct sum of the
    branch pairings whenever the restricted purity is surjective).  Q is the
    identity where the stratum basis is the restricted purity map itself,
    the unique solution as the basis is injective, and otherwise the one
    solve basis ∘ Q = restricted purity, the one projection any command
    needs; a Q solved against an override is refused unless it is onto.
    The principal default polarizations are identities and are not
    multiplied in.  With one branch the rest is empty, its stratum has rank
    0, and Q is 0 × mu with Psi2 empty.
    """
    require_valid(datum)
    if datum.n == 0:
        zero = LatticeMap.zero(0, datum.mu)
        empty = LatticeMap.zero(0, 0)
        return zero, zero, empty, empty
    lams = datum.branch_polarizations
    if lams is None and not datum.is_principal:
        raise InputError("converse inputs need branch polarizations (or the principal default)")
    p_map = datum.branches[0].specialization
    psi1 = datum.branches[0].pairing
    if lams is not None:
        psi1 = psi1.compose(lams[0])
    rest = tuple(range(1, datum.n))
    basis = stratum_lattice(datum, rest)
    restricted = restricted_purity(datum, rest)
    if basis == restricted:
        q_map = LatticeMap.identity(datum.mu)
    else:
        q_map = basis.solve(restricted)
        if q_map is None:
            raise FalsificationError("restricted purity does not factor through its stratum")
        if datum.stratum_override(rest) is not None and not q_map.is_surjective():
            raise InputError("P and Q must be surjective")
    # pairing on the stratum, polarized: B^t · diag(phi_j∘lambda_j) · B, each
    # phi_j∘lambda_j symmetric by validation
    blocks = [datum.branches[j].pairing for j in rest]
    if lams is not None:
        blocks = [phi.compose(lams[j]) for phi, j in zip(blocks, rest)]
    psi2 = basis.transpose_compose(LatticeMap.block_compose(blocks, basis), symmetric=True)
    return p_map, q_map, psi1, psi2
