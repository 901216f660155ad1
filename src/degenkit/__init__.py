"""degenkit: exact integer-lattice analysis of semiabelian degenerations."""

from .curves import CurveReport, DualGraph, GraphEdge, GraphVertex, curve_equivalences, graph_to_datum
from .degeneration import (
    Branch,
    DegenDatum,
    StratumOverride,
    Verdict,
    Violation,
    analyze,
    is_l_toric_additive,
    restricted_purity,
    toric_rank_profile,
    validate,
)
from .errors import DegenkitError, FalsificationError, InputError
from .galois import (
    GaloisRep,
    build_rep,
    star_condition,
    torsion_phi_group,
)
from .lattice import (
    FinAb,
    Lattice,
    LatticeMap,
    cokernel,
    l_part,
)
from .monodromy import (
    ComposedPairing,
    StratumData,
    TraitProfile,
    compose_trait,
    composed_cokernel,
    stratum_lattice,
    trait_component_group,
)
from .neron import (
    ConverseCertificate,
    PsiFixedPoints,
    PsiGroup,
    converse_check,
    converse_inputs_from_datum,
    psi_fixed_points,
    psi_group,
)

__version__ = "0.1.0"
