"""Envariance witnesses, group completion, and unitary measurement models."""

from .tolerances import DEFAULT_TOL, DIM_BUDGET, Tolerances
from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    Operator,
    StateVector,
    basis_state,
    distance,
    entropy,
    fidelity,
    haar_unitary,
    identity,
    partial_trace,
    random_state,
    schmidt,
    tensor,
)
from .grothendieck import (
    NATURALS_ADD,
    POSITIVES_MUL,
    CommutativeMonoid,
    GroupElement,
    MonoidPair,
    UndecidedEquivalenceError,
    canonicalize,
    element,
    group_add,
    group_neg,
    group_zero,
)
from .envariance import (
    EquivalenceVerdict,
    JointPairState,
    NotEnvariantError,
    PairLink,
    WitnessSet,
    composability_monoid,
    link_product_pairs,
    sample_chain,
    symmetry_witness,
    synthesize_envariant,
    transitivity_witness,
    undo_on_n,
)
from .collapse import (
    BornOutcome,
    BranchingState,
    BudgetError,
    MutualInformationCurve,
    RationalWeights,
    bleach,
    born_from_envariance,
    darwinism_curve,
    global_entropy,
    premeasure,
    recover,
    redundancy,
)

__version__ = "0.1.0"
