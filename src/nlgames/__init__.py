"""Two-player linear games: exact classical values, spectral quantum bounds,
and no-signaling values, including distributed-computation games over Z_d."""

from .algebra import (
    FiniteAbelianGroup,
    FiniteField,
    Group,
    is_prime,
)
from .bounds import (
    ChainViolationError,
    ClassicalOptimum,
    EnumerationBudgetError,
    GameReport,
    analyze,
    bound_from_norms,
    classical_value,
    lemma1_bound,
    phi_norms,
)
from .games import (
    GameFormatError,
    GameValidationError,
    LinearGame,
    chsh_closed_form,
    chsh_d,
    game_from_json,
    game_from_tables,
    game_to_json,
    random_xor_game,
)
from .nlc import (
    BlockStructureError,
    LambdaProfile,
    NlcSpec,
    NlcStrategy,
    NlcValidationError,
    Theorem3Report,
    TheoremVerificationError,
    lambda_profile,
    nlc_classical_strategy,
    nlc_game,
    nlc_spec,
    nlc_spec_from_json,
    verify_theorem3,
)
from .numerics import singular_value_rank
from .rng import SplitMix64

__version__ = "0.1.0"
