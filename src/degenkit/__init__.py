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
    action_torsion,
    stack_torsion,
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
    PsiGroup,
    converse_check,
    converse_inputs_from_datum,
    psi_group,
    rescaled_psi,
)

__version__ = "0.1.0"
