"""Monodromy pairings: composition along traits and component groups.

A trait hitting the boundary with multiplicities (a_1..a_n) picks out the
active branch set J and a stratum whose character lattice Y is the image of
the J-restricted purity map.  The composed pairing is

    phi_f = B^t · diag(a_j · phi_j) · B'

where B and B' are bases of the primal and dual stratum images.  A stratum
is its basis (``stratum_lattice``): an override's inclusion as given, else
the restricted purity map R itself where the subset is every branch or R is
injective, else a canonical Hermite basis of the image.  A derived basis
factors R = B·Q with Q onto (Q = 1 on R itself), so the Galois action on the
stratum is Q^t·phi_f·Q' and has the torsion of coker phi_f (``galois``
module docstring); only an override can make the two differ.  The
projection Q is solved only by ``converse``, which prints it.  The
component group of a nondegenerate pairing is its cokernel.

Block lemma: coker(U^t·M·V) ≅ coker M for unimodular U and V, since
U^t and V are automorphisms of the two lattices.  A trait through every
branch has bases B and B' that are injective and contain the images of the
purity maps P and P': they are P and P' themselves, or an override's
inclusions, which validation found injective and containing those images.
Where P and P' are onto, those images are all of ⊕X_j and ⊕X'_j, so B and
B' are square and unimodular, and coker phi_f is ⊕_j coker(a_j·phi_j), the
paper's Psi_J ≅ Upsilon.  ``composed_cokernel`` alone decides between these
blocks and phi_f, for the trait group and the Galois action alike.

Scaling identity: if U·M·V = D is a Smith form of M, then U·(a·M)·V = a·D,
and a·d_1 | a·d_2 | ... is again a divisibility chain, so SNF(a·M) =
a·SNF(M) for a >= 1.  So coker(a_j·phi_j) is read off the Smith diagonal
of phi_j, 1s included (``DegenDatum.pairing_cokernel``): one Smith form per
branch pairing serves every profile.  phi_f itself is multiplied out only
when it is read (``ComposedPairing.matrix``): ``trait`` prints it and the
dense path factors it, while the block path never forms it.

Products from blocks: diag(a_j·phi_j)·B' is the stack of the a_j·phi_j·B'_j,
B'_j the rows of B' in X'_j, so no zero block is formed, and B^t times that
stack is a table of column dot products, with no transpose formed.  Where
B' = B and every phi_j is symmetric, phi_f = B^t·diag(a_j·phi_j)·B is
symmetric, so only its upper triangle is computed.  The test is made on the
phi_j themselves: on a principal datum validation proves phi_j∘lambda_j
symmetric, which is phi_j only where lambda_j is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .degeneration import (
    DegenDatum,
    require_valid,
    restricted_purity,
)
from .errors import InputError
from .lattice import (
    FinAb,
    LatticeMap,
    cokernel,
    is_onto,
)

HEURISTIC_STRATUM = "derived stratum - heuristic"
TRAIT_MISSES_DIVISOR = "trait misses the divisor"


@dataclass(frozen=True)
class TraitProfile:
    """Branch multiplicities (a_1..a_n) of a trait through the boundary."""

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a < 0 for a in self.multiplicities):
            raise InputError("trait multiplicities must be non-negative")

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.multiplicities) if a > 0)


@dataclass(frozen=True)
class ComposedPairing:
    profile: TraitProfile
    basis: LatticeMap          # Y -> ⊕_{j in J} X_j, the stratum's basis
    dual_basis: LatticeMap     # Y' -> ⊕_{j in J} X'_j
    pairings: tuple[LatticeMap, ...]    # phi_j over the active j
    warnings: tuple[str, ...] = ()

    @property
    def active(self) -> tuple[int, ...]:
        return self.profile.active

    @cached_property
    def matrix(self) -> LatticeMap:
        """phi_f : Y' -> Y^dual, multiplied out from its blocks on first use
        (module docstring)."""
        blocks = [phi.scaled(self.profile.multiplicities[j])
                  for j, phi in zip(self.active, self.pairings)]
        symmetric = self.dual_basis == self.basis and all(phi.is_symmetric()
                                                          for phi in self.pairings)
        return self.basis.transpose_compose(LatticeMap.block_compose(blocks, self.dual_basis),
                                            symmetric=symmetric)


def stratum_lattice(datum: DegenDatum, active: tuple[int, ...] | list[int],
                    dual: bool = False) -> LatticeMap:
    """Basis of the stratum lattice over the branch subset J (the image of
    restricted purity), as a map into ⊕_{j in J} X_j (X'_j when dual).

    For a toric-additive datum the stratum is exactly ⊕_{j in J} X_j; for J
    equal to the whole branch set it is the closed-point lattice X carried by
    the purity map.  Explicit overrides from the input file win.

    Validation decided every override rule: an override has its dual
    inclusion where the dual side needs one, and each inclusion contains the
    restricted (dual) purity image.  Over the whole branch set the restricted
    map is the (dual) purity map, which validation found injective.  So an
    override's inclusion is taken as given, and a derived stratum is its
    basis, with nothing solved.
    """
    require_valid(datum)
    active = tuple(sorted(set(active)))
    if any(j < 0 or j >= datum.n for j in active):
        raise InputError("stratum subset names a missing branch")
    override = datum.stratum_override(active)
    if override is not None:
        return override.dual_inclusion if dual and override.dual_inclusion is not None \
            else override.inclusion
    restricted = restricted_purity(datum, active, dual)
    if len(active) == datum.n or restricted.is_injective():
        # Y is the source lattice itself, in its own basis
        return restricted
    return restricted.image_basis()


def compose_trait(datum: DegenDatum, profile: TraitProfile) -> ComposedPairing:
    """Monodromy pairing of the trait with the given multiplicity tuple.

    Where the dual stratum is the primal one, on a principal datum with no
    dual inclusion given, the primal basis is reused.  An intermediate
    stratum of a non-toric-additive datum that no override gives is
    derived, and flagged heuristic.
    """
    require_valid(datum)
    if len(profile.multiplicities) != datum.n:
        raise InputError(
            f"profile has {len(profile.multiplicities)} entries, datum has {datum.n} branches")
    warnings: list[str] = []
    active = profile.active
    if datum.n > 0 and not active:
        warnings.append(TRAIT_MISSES_DIVISOR)
    override = datum.stratum_override(active)
    basis = stratum_lattice(datum, active)
    dual_is_primal = datum.is_principal and (override is None or override.dual_inclusion is None)
    dual_basis = basis if dual_is_primal else stratum_lattice(datum, active, dual=True)
    if override is None and len(active) != datum.n and not datum.verdict.toric_additive:
        warnings.append(HEURISTIC_STRATUM)
    pairings = tuple(datum.branches[j].pairing for j in active)
    return ComposedPairing(profile, basis, dual_basis, pairings, tuple(warnings))


def closed_point_pairing(datum: DegenDatum, profile: TraitProfile) -> ComposedPairing:
    """The composed pairing on the restricted purity maps, overrides or not:
    the Galois action sum a_i·psi_i (``galois`` module docstring)."""
    if len(profile.multiplicities) != datum.n:
        raise InputError(
            f"profile has {len(profile.multiplicities)} entries, datum has {datum.n} branches")
    active = profile.active
    return ComposedPairing(profile, restricted_purity(datum, active),
                           restricted_purity(datum, active, dual=True),
                           tuple(datum.branches[j].pairing for j in active))


def composed_cokernel(datum: DegenDatum, composed: ComposedPairing) -> tuple[FinAb, int]:
    """(torsion, free rank) of coker phi_f: ⊕_j coker(a_j·phi_j) off the
    pairing diagonals where every branch is active and P and P' are onto,
    which makes both strata bases unimodular (block lemma, module
    docstring), else phi_f factored."""
    if len(composed.active) == datum.n and \
            is_onto(datum.purity_cokernel) and is_onto(datum.dual_purity_cokernel):
        return FinAb.direct_sum([datum.pairing_cokernel(j, a)
                                 for j, a in enumerate(composed.profile.multiplicities)]), 0
    return cokernel(composed.matrix)


def trait_component_group(datum: DegenDatum, composed: ComposedPairing) -> FinAb:
    """Component group coker phi_f = ker(phi_f ⊗ Q/Z) of a trait, refused
    unless phi_f is square and nondegenerate."""
    torsion, free_rank = composed_cokernel(datum, composed)
    if free_rank or composed.basis.ncols != composed.dual_basis.ncols:
        raise InputError("degenerate pairing")
    return torsion
