"""Simulation-universality classification and protocol compilation for
many-qudit Hamiltonians with local unitary control."""

from .isolation import (
    CanonicalTarget,
    IsolationResult,
    NegligibleTermError,
    StageReport,
    TermNotFoundError,
    isolate_term,
    precondition,
    stage_cartan_filter,
    stage_depolarize,
    stage_full_support_filter,
    stage_ladder,
    stage_permutation_filter,
)
from .majorization import (
    MajorizationError,
    Spectrum,
    UhlmannDecomposition,
    birkhoff,
    retarget_term,
    scale_factor,
    spectrum,
    transfer_matrix,
    uhlmann_decompose,
)
from .model import (
    EPS_ZERO,
    Connectivity,
    CouplingTerm,
    Expansion,
    QuditSystem,
    Verdict,
    VerdictKind,
    classify,
    expand,
    is_entangling,
    reconstruct,
)
from .operators import (
    GellMannLabel,
    LocalUnitary,
    embed,
    gellmann_basis,
    gellmann_matrix,
    heisenberg_weyl,
    hermitian_exp,
    level_permutation,
    level_sign_flip,
)
from .program import (
    BranchCapExceeded,
    Commutator,
    Conjugate,
    Local,
    Native,
    SimulationProgram,
    Sum,
    VerificationReport,
    effective_hamiltonian,
    graft,
    negate_isolated_term,
    trotter_compile,
    verify,
)
from .universality import (
    DropResult,
    Edge,
    NotConstructiveError,
    NotEntanglingError,
    UniversalityCertificate,
    ZeroCommutatorError,
    commutator_expansion,
    connect_all,
    drop_isolated,
    drop_qudit,
    partner_term,
    reduce_to_two_body,
)

__version__ = "0.1.0"
