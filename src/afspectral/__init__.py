"""Numerical laboratory for truncated filtered operator algebras.

Builds graded reference-state representations with grade-weighted Dirac
operators, computes state-space distances by spectral-norm-constrained
maximization, classifies automorphisms by unitary implementability, and
lifts rigid automorphisms to group-window extensions.
"""

from .algebra import (
    AlgebraElement,
    BasisIndex,
    CharacterState,
    Filtration,
    ProductState,
    State,
    TraceState,
    UniformState,
    VectorState,
    basis_element,
    canonical_basis,
    cantor,
    conditional_expectation,
    from_matrix,
    from_values,
    identity_element,
    multiply,
    shift_embed,
    uhf,
)
from .crossed import (
    Cocycle,
    CrossedElement,
    GroupWindow,
    IsoPowerAction,
    LiftedTriple,
    OdometerAction,
    TrivialAction,
    build_lifted,
    covariance_check,
    crossed_commutator_stability,
    lift_commutation_check,
    lifted_unitary,
    represent_crossed,
)
from .isometry import (
    IsoVerdict,
    LeafPermutation,
    SlotAutomorphism,
    TreePortrait,
    apply_automorphism,
    cantor_coincidence,
    enumerate_cantor_iso,
    filtration_check,
    flip_demo,
    implementing_unitary,
    iso_check,
    odometer_portrait,
    shift_inequality_check,
    switch,
    switch_iso_violation,
)
from .linalg import TOL, Tolerances, operator_norm
from .metric import (
    DistanceProblem,
    DistanceResult,
    SolverConfig,
    car_certified_upper_bound,
    car_golden_case,
    car_vector,
    distance,
    reduce_search_level,
    solve,
)
from .triple import (
    DiracSpec,
    GNSSpace,
    TruncatedTriple,
    build_triple,
    dirac_explicit,
    dirac_geometric,
    dirac_power,
)

__version__ = "0.1.0"
