"""Two-player linear games: exact classical values, spectral quantum bounds,
and no-signaling boxes, including distributed-computation games over Z_d."""

from .algebra import (
    FieldAdditiveGroup,
    FieldElement,
    FiniteAbelianGroup,
    FiniteField,
    Group,
    GroupElement,
    is_prime,
)
from .bounds import (
    ChainViolationError,
    ClassicalOptimum,
    EnumerationBudgetError,
    GameReport,
    HypothesisViolationError,
    analyze,
    bound_from_norms,
    classical_value,
    game_matrix,
    lemma1_bound,
    ns_winning_box,
    phi_norms,
    pseudo_telepathy_check,
    quantum_bound,
)
from .games import (
    Box,
    CorrelatorTable,
    GameFormatError,
    GameValidationError,
    LinearGame,
    box_from_correlators,
    chsh_closed_form,
    chsh_d,
    correlators_from_box,
    evaluate_box,
    game_from_json,
    game_from_tables,
    game_to_json,
    random_xor_game,
    strategy_box,
    uniform_box,
    win_prob_from_correlators,
)
from .nlc import (
    BlockCirculantReport,
    BlockStructureError,
    LambdaProfile,
    NlcSpec,
    NlcStrategy,
    NlcValidationError,
    Theorem3Report,
    TheoremVerificationError,
    building_block_matrix,
    fourier_vector,
    lambda_profile,
    nlc_classical_strategy,
    nlc_game,
    nlc_quantum_bound,
    nlc_spec,
    nlc_spec_from_json,
    nlc_spec_to_json,
    verify_theorem3,
)
from .numerics import (
    matmul_adjoint,
    numerical_rank,
    singular_value_rank,
    singular_values,
    spectral_norm,
)
from .rng import SplitMix64

__version__ = "0.1.0"
