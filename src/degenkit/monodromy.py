"""Monodromy pairings: composition along traits and component groups.

A trait hitting the boundary with multiplicities (a_1..a_n) picks out the
active branch set J and a stratum whose character lattice Y is the image of
the J-restricted purity map.  The composed pairing is

    phi_f = B^t · diag(a_j · phi_j) · B'

where B and B' are bases of the primal and dual stratum images.  A stratum
is its basis: an override's inclusion as given, else, when the restricted
purity map is injective, the closed-point coordinates (B = restricted purity
itself), which reproduce the closed-point pairing matrices exactly, else a
canonical Hermite basis of the image.  The projection X -> Y is solved only
by ``converse``, which prints it.  The component group of a nondegenerate
pairing is its cokernel.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .degeneration import (
    DegenDatum,
    StratumOverride,
    is_onto,
    require_valid,
    restricted_purity,
)
from .errors import InputError
from .lattice import (
    FinAb,
    Lattice,
    LatticeMap,
    cokernel,
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
class StratumData:
    """Stratum lattice Y for a branch subset J, as its basis in ⊕_{j in J} X_j."""

    inclusion: LatticeMap    # Y -> ⊕_{j in J} X_j, columns span the stratum image
    active: tuple[int, ...]
    heuristic: bool = False
    # the basis is the restricted (dual) purity map itself
    closed_point_coordinates: bool = False


@dataclass(frozen=True)
class ComposedPairing:
    profile: TraitProfile
    stratum: StratumData
    dual_stratum: StratumData
    pairings: tuple[LatticeMap, ...]    # phi_j over the active j
    warnings: tuple[str, ...] = ()

    @property
    def active(self) -> tuple[int, ...]:
        return self.stratum.active

    @property
    def closed_point_coordinates(self) -> bool:
        """Both strata bases are the restricted (dual) purity maps, so phi_f
        is the Galois action sum a_i·psi_i (``galois`` module docstring)."""
        return self.stratum.closed_point_coordinates and \
            self.dual_stratum.closed_point_coordinates

    @cached_property
    def matrix(self) -> LatticeMap:
        """phi_f : Y' -> Y^dual, multiplied out on first use."""
        blocks = [phi.scaled(self.profile.multiplicities[j])
                  for j, phi in zip(self.active, self.pairings)]
        middle = LatticeMap.block_diagonal(blocks) if blocks \
            else LatticeMap.zero(Lattice(0), Lattice(0))
        return self.stratum.inclusion.transpose().compose(middle).compose(
            self.dual_stratum.inclusion)


def _dual_is_primal(datum: DegenDatum, override: StratumOverride | None) -> bool:
    """Whether the dual stratum over a subset is the primal one.

    On a principal datum sp'_j = sp_j, and an override without a dual
    inclusion serves both sides with its primal one.
    """
    return datum.is_principal and (override is None or override.dual_inclusion is None)


def stratum_lattice(datum: DegenDatum, active: tuple[int, ...] | list[int],
                    dual: bool = False) -> StratumData:
    """Stratum lattice over the branch subset J (the image of restricted purity).

    For a toric-additive datum this is exactly ⊕_{j in J} X_j; for J equal to
    the whole branch set it is the closed-point lattice X carried by the
    purity map.  Intermediate strata of a non-toric-additive datum are derived
    and flagged heuristic; explicit overrides from the input file win.

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
        inc = override.dual_inclusion if dual and not _dual_is_primal(datum, override) \
            else override.inclusion
        return StratumData(inc, active)
    restricted = restricted_purity(datum, active, dual)
    whole = len(active) == datum.n
    heuristic = not whole and not datum.verdict.toric_additive
    if whole or restricted.is_injective():
        # Y is the source lattice itself, in its own basis
        return StratumData(restricted, active, heuristic, closed_point_coordinates=True)
    return StratumData(restricted.image_basis(), active, heuristic)


def compose_trait(datum: DegenDatum, profile: TraitProfile) -> ComposedPairing:
    """Monodromy pairing of the trait with the given multiplicity tuple.

    Where the dual stratum is the primal one (``_dual_is_primal``), the
    primal stratum is reused.
    """
    require_valid(datum)
    if len(profile.multiplicities) != datum.n:
        raise InputError(
            f"profile has {len(profile.multiplicities)} entries, datum has {datum.n} branches")
    warnings: list[str] = []
    active = profile.active
    if datum.n > 0 and not active:
        warnings.append(TRAIT_MISSES_DIVISOR)
    stratum = stratum_lattice(datum, active, dual=False)
    if _dual_is_primal(datum, datum.stratum_override(active)):
        dual_stratum = stratum
    else:
        dual_stratum = stratum_lattice(datum, active, dual=True)
    if stratum.heuristic or dual_stratum.heuristic:
        warnings.append(HEURISTIC_STRATUM)
    pairings = tuple(datum.branches[j].pairing for j in active)
    return ComposedPairing(profile, stratum, dual_stratum, pairings, tuple(warnings))


def closed_point_pairing(datum: DegenDatum, profile: TraitProfile) -> ComposedPairing:
    """The composed pairing in closed-point coordinates, overrides or not:
    the Galois action sum a_i·psi_i (``galois`` module docstring)."""
    if len(profile.multiplicities) != datum.n:
        raise InputError(
            f"profile has {len(profile.multiplicities)} entries, datum has {datum.n} branches")
    active = profile.active
    strata = [StratumData(restricted_purity(datum, active, dual), active,
                          closed_point_coordinates=True) for dual in (False, True)]
    return ComposedPairing(profile, *strata, tuple(datum.branches[j].pairing for j in active))


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
    if free_rank or composed.stratum.inclusion.ncols != composed.dual_stratum.inclusion.ncols:
        raise InputError("degenerate pairing")
    return torsion
