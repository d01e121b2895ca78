"""Game matrices, the spectral quantum bound, exact classical optima, and
the no-signaling winning box.

For each nonidentity group element x the game matrix Phi_x has entries
q(u, v) * chi_x(f(u, v)).  The quantum value is bounded by

    (1/|G|) * (1 + sqrt(mA * mB) * sum_{x != e} ||Phi_x||),

where ||.|| is the spectral norm.  The identity character contributes
exactly 1 through normalization, so Phi_e is never materialized.  The
classical value is the exact maximum over deterministic assignments,
found by enumerating Alice's assignments with Bob best-responding per
question (optimal because the objective separates over Bob's questions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .games import Box, LinearGame, evaluate_box
from .numerics import DEFAULT_RANK_TOL, numerical_rank, singular_value_rank, singular_values

__all__ = [
    "EnumerationBudgetError",
    "HypothesisViolationError",
    "ChainViolationError",
    "ClassicalOptimum",
    "GameReport",
    "game_matrix",
    "phi_norms",
    "bound_from_norms",
    "quantum_bound",
    "classical_value",
    "lemma1_bound",
    "ns_winning_box",
    "pseudo_telepathy_check",
    "analyze",
]

DEFAULT_ENUMERATION_BUDGET = 10**6
DEFAULT_CHUNK_SIZE = 4096

# Slack applied when comparing the float classical value against the clamped
# quantum bound in the report invariant chain.
CHAIN_SLACK = 1e-9


class EnumerationBudgetError(RuntimeError):
    """The deterministic-strategy enumeration would exceed its budget."""


class HypothesisViolationError(ValueError):
    """An operation was asked to run outside its stated hypotheses."""


class ChainViolationError(RuntimeError):
    """The value ordering lemma1 <= classical <= bound <= ns failed."""


def _game_matrices(game: LinearGame):
    """Yield Phi_x for x = 1..|G|-1 in canonical order, one at a time, from a
    single character table."""
    chars = game.group.character_table()
    for row in chars[1:]:
        yield game.q * row[game.f_idx]


def _phi_spectra(game: LinearGame):
    """Yield (Phi_x, singular values of Phi_x) for x = 1..|G|-1 in canonical
    order.

    q is real, so Phi_{-x} = conj(Phi_x), and `singular_values` gives the same
    bits on a conjugated matrix: each pair {x, -x} is solved once, at its
    first member.  Only the current Phi_x is alive at a time.
    """
    negation = game.group.negation_table()
    spectra = {}
    for x, phi in enumerate(_game_matrices(game), start=1):
        s = spectra.get(int(negation[x]))
        if s is None:
            s = spectra[x] = singular_values(phi)
        yield phi, s


def game_matrix(game: LinearGame, x) -> np.ndarray:
    """Game matrix Phi_x with entries q(u, v) * chi_x(f(u, v)), x nonidentity.

    `x` may be a group element or its canonical index.
    """
    group = game.group
    ix = group.index(group.element(x))
    if ix == 0:
        raise ValueError(
            "the identity element has no game matrix; its contribution is the "
            "normalization term 1"
        )
    return next(islice(_game_matrices(game), ix - 1, None))


def phi_norms(game: LinearGame) -> list[float]:
    """Spectral norms ||Phi_x|| for each nonidentity x, in canonical element order."""
    return [float(s[0]) for _, s in _phi_spectra(game)]


def bound_from_norms(game: LinearGame, norms) -> float:
    """The quantum bound expression evaluated on the norms ||Phi_x||, x != e."""
    return (1.0 + float(np.sqrt(game.mA * game.mB)) * sum(norms)) / game.order


def quantum_bound(game: LinearGame) -> float:
    """Upper bound on the quantum value; may exceed 1 (callers clamp for reports)."""
    return bound_from_norms(game, phi_norms(game))


def lemma1_bound(game: LinearGame) -> float:
    """Shared-randomness lower bound (1/|G|) * (1 + (|G| - 1)/min(mA, mB))."""
    m = min(game.mA, game.mB)
    n = game.order
    return (1.0 + (n - 1) / m) / n


@dataclass(frozen=True)
class ClassicalOptimum:
    """Optimal deterministic strategy pair and its value.

    `exact` is present whenever the game carries exact input weights.
    `alice`/`bob` map question index to answer element.
    """

    value: float
    exact: Fraction | None
    alice: tuple
    bob: tuple


def _assignment_digits(ids: np.ndarray, n: int, m_a: int) -> np.ndarray:
    """Decode assignment ids into answer indices; question 0 varies fastest."""
    powers = n ** np.arange(m_a, dtype=np.int64)
    return (ids[:, None] // powers[None, :]) % n


def classical_value(
    game: LinearGame,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ClassicalOptimum:
    """Exact maximum over deterministic strategies.

    Enumerates all |G|^mA assignments for Alice in chunks; for each, Bob's
    best response at question v maximizes sum_u q(u, v) [a(u) + b = f(u, v)],
    with ties broken toward the smallest group element in canonical order.
    Among equally good Alice assignments the one with the smallest
    enumeration id wins, so the result does not depend on the chunking.
    """
    n = game.order
    total = n**game.mA
    if total > budget:
        raise EnumerationBudgetError(
            f"classical enumeration needs {total} Alice assignments, over the "
            f"budget of {budget}"
        )
    exact = game.has_exact_q
    weights = game.q_num if exact else game.q
    winning = game.winning_answers()
    u_ix = np.arange(game.mA)[None, :, None]
    v_ix = np.arange(game.mB)[None, None, :]
    targets = np.arange(n)

    def bob_scores(ids):
        """Alice's assignments for `ids`, and per (id, v, b) the weight Bob wins."""
        assign = _assignment_digits(ids, n, game.mA)
        diff = winning[u_ix, v_ix, assign[:, :, None]]
        onehot = (diff[..., None] == targets).astype(weights.dtype)
        return assign, np.einsum("uv,cuvg->cvg", weights, onehot)

    best_val = None
    best_id = -1
    for start in range(0, total, chunk_size):
        ids = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        _, per_question = bob_scores(ids)
        vals = per_question.max(axis=2).sum(axis=1)
        i = int(np.argmax(vals))
        if best_val is None or vals[i] > best_val:
            best_val = vals[i]
            best_id = start + i

    assign, per_question = bob_scores(np.array([best_id], dtype=np.int64))
    bob_idx = per_question[0].argmax(axis=1)

    alice = tuple(game.group.elements[i] for i in assign[0])
    bob = tuple(game.group.elements[i] for i in bob_idx)
    if exact:
        exact_value = Fraction(int(best_val), game.q_den)
        return ClassicalOptimum(float(exact_value), exact_value, alice, bob)
    return ClassicalOptimum(float(best_val), None, alice, bob)


def ns_winning_box(game: LinearGame) -> Box:
    """No-signaling box that wins the game with certainty.

    P(a, b | u, v) = 1/|G| when a + b = f(u, v), else 0.  Both marginals are
    uniform for every input, so nothing can be signaled.
    """
    n = game.order
    table = np.zeros((game.mA, game.mB, n, n))
    u_ix = np.arange(game.mA)[:, None, None]
    v_ix = np.arange(game.mB)[None, :, None]
    a_ix = np.arange(n)[None, None, :]
    table[u_ix, v_ix, a_ix, game.winning_answers()] = 1.0 / n
    return Box(table)


def _require_uniform_total(game: LinearGame) -> LinearGame:
    """Check the uniform-input hypothesis; return a game with exact uniform q."""
    if not game.is_uniform_q():
        raise HypothesisViolationError(
            "this criterion only applies to games with uniform input distribution"
        )
    if game.has_exact_q:
        return game
    return LinearGame(game.group, game.f_idx, q_num=np.ones_like(game.f_idx), q_den=game.f_idx.size)


def pseudo_telepathy_check(
    game: LinearGame,
    rank_tol: float = DEFAULT_RANK_TOL,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[bool, bool]:
    """Rank-1 criterion for perfect play on uniform total cyclic-group games.

    Returns (rank1, classical_win) where rank1 tests rank(Phi_1) == 1 and
    classical_win tests an exact classical value of 1.  The two must agree:
    for uniform inputs over Z_d a perfect quantum strategy exists exactly
    when a perfect classical one does, i.e. when the columns of Phi_1 are
    proportional.  Raises when the hypotheses (cyclic answer group, uniform
    q) do not hold.
    """
    desc = game.group.describe()
    cyclic = ("factors" in desc and len(desc["factors"]) == 1) or (
        "field" in desc and desc["field"]["r"] == 1
    )
    if not cyclic:
        # The criterion reads rank off Phi_1, which needs the character of
        # element 1 to be faithful; that fails for non-cyclic answer groups.
        raise HypothesisViolationError(
            "the rank-1 criterion applies to games over a single cyclic group Z_d"
        )
    exact_game = _require_uniform_total(game)
    rank1 = numerical_rank(game_matrix(game, 1), rank_tol) == 1
    optimum = classical_value(exact_game, budget=budget)
    classical_win = optimum.exact == 1
    if rank1 != classical_win:
        raise ChainViolationError(
            f"rank-1 criterion disagrees with the exact classical optimum: "
            f"rank1={rank1}, classical value={optimum.exact}"
        )
    return rank1, classical_win


@dataclass(frozen=True)
class GameReport:
    """All computed values for one game; serializes to a versioned JSON schema."""

    group: dict
    mA: int
    mB: int
    order: int
    lemma1_bound: float
    classical_value: float
    classical_value_exact: Fraction | None
    alice_strategy: tuple
    bob_strategy: tuple
    quantum_bound_raw: float
    quantum_bound: float
    norms: tuple[float, ...]
    ns_value: float
    rank_phi1: int
    pseudo_telepathy_possible: bool

    SCHEMA = "nlgames/game-report/v1"

    def to_json_dict(self) -> dict:
        def element_json(el):
            coords = getattr(el, "coords", None)
            if coords is None:
                coords = el.coeffs
            return list(coords)

        exact = self.classical_value_exact
        return {
            "schema": self.SCHEMA,
            "group": self.group,
            "mA": self.mA,
            "mB": self.mB,
            "order": self.order,
            "lemma1_bound": self.lemma1_bound,
            "classical_value": self.classical_value,
            "classical_value_exact": None
            if exact is None
            else f"{exact.numerator}/{exact.denominator}",
            "classical_strategy": {
                "alice": [element_json(el) for el in self.alice_strategy],
                "bob": [element_json(el) for el in self.bob_strategy],
            },
            "quantum_bound_raw": self.quantum_bound_raw,
            "quantum_bound": self.quantum_bound,
            "norms": list(self.norms),
            "ns_value": self.ns_value,
            "rank_phi1": self.rank_phi1,
            "pseudo_telepathy_possible": self.pseudo_telepathy_possible,
        }


def analyze(
    game: LinearGame,
    rank_tol: float = DEFAULT_RANK_TOL,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> GameReport:
    """Full report: classical optimum, spectral bound, no-signaling value.

    Enforces the ordering chain lemma1 <= classical <= min(1, bound) and the
    unit no-signaling value; a violation means an internal defect and raises.
    The enumeration budget is checked before any spectral solve.
    """
    optimum = classical_value(game, budget=budget)
    spectra = [s for _, s in _phi_spectra(game)]
    rank1 = singular_value_rank(spectra[0], rank_tol)
    norms = [float(s[0]) for s in spectra]
    raw = bound_from_norms(game, norms)
    clamped = min(1.0, raw)
    lemma1 = lemma1_bound(game)
    ns_value = evaluate_box(game, ns_winning_box(game))

    if optimum.value < lemma1 - 1e-12:
        raise ChainViolationError(
            f"classical value {optimum.value} fell below the shared-randomness "
            f"bound {lemma1}"
        )
    if optimum.value > clamped + CHAIN_SLACK:
        raise ChainViolationError(
            f"classical value {optimum.value} exceeds the quantum bound {clamped}"
        )
    if abs(ns_value - 1.0) > 1e-12:
        raise ChainViolationError(f"no-signaling winning box scored {ns_value}, not 1")

    return GameReport(
        group=game.group.describe(),
        mA=game.mA,
        mB=game.mB,
        order=game.order,
        lemma1_bound=lemma1,
        classical_value=optimum.value,
        classical_value_exact=optimum.exact,
        alice_strategy=optimum.alice,
        bob_strategy=optimum.bob,
        quantum_bound_raw=raw,
        quantum_bound=clamped,
        norms=tuple(norms),
        ns_value=ns_value,
        rank_phi1=rank1,
        pseudo_telepathy_possible=raw >= 1.0 - 1e-9,
    )
