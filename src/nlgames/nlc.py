"""Distributed-computation games over Z_d and their no-quantum-advantage check.

An NLC game shares n input dits additively between the players: Alice gets
x, Bob gets y, and the hidden input is z = x (+) y componentwise mod d.
They must output dits with a + b = g(z_1, ..., z_{n-1}) * z_n, where g maps
(n-1)-dit strings to Z_d and d is prime.  Inputs are drawn with weight
p(z_1, ..., z_{n-1}) / d^(n+1).

Each d x d block of the game matrix, indexed by the prefix strings, is one
of d building-block games a + b = t * (x_n (+) y_n), and Phi_k^dagger Phi_k
is block-circulant, hence diagonal in the tensor Fourier basis.  The
multiplicity profile of the building blocks therefore determines the
spectral bound exactly, and the ignore-the-prefix strategy a = mu * x_n,
b = mu * y_n attains it: these games have no quantum advantage.

Input indices encode digit strings big-endian with the last dit fastest,
so index = prefix_index * d + last_dit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .algebra import FiniteAbelianGroup, is_prime
from .bounds import _phi_spectra, bound_from_norms, classical_value
from .games import GameFormatError, GameValidationError, LinearGame, _parse_weight
from .numerics import matmul_adjoint

__all__ = [
    "NlcValidationError",
    "TheoremVerificationError",
    "BlockStructureError",
    "NlcSpec",
    "LambdaProfile",
    "Theorem3Report",
    "BlockCirculantReport",
    "nlc_spec",
    "nlc_spec_from_json",
    "nlc_spec_to_json",
    "nlc_game",
    "lambda_profile",
    "nlc_quantum_bound",
    "nlc_classical_strategy",
    "NlcStrategy",
    "building_block_matrix",
    "fourier_vector",
    "verify_theorem3",
]

MAX_QUESTIONS = 729  # d^n cap for building the full game
MAX_STRUCTURE_QUESTIONS = 81  # d^n cap for the eigenstructure verification


class NlcValidationError(ValueError):
    """An NLC specification violates its structural constraints."""


class TheoremVerificationError(RuntimeError):
    """A no-quantum-advantage verification leg failed."""


class BlockStructureError(RuntimeError):
    """A block-circulant structure check failed."""


@dataclass(frozen=True)
class NlcSpec:
    """Parameters of one NLC game: prime d, n input dits, target table g,
    and the prefix distribution p (both indexed by big-endian prefix)."""

    d: int
    n: int
    g: tuple[int, ...]
    p: tuple[Fraction, ...]

    @property
    def prefix_count(self) -> int:
        return self.d ** (self.n - 1)

    @property
    def uniform(self) -> bool:
        return all(w == Fraction(1, self.prefix_count) for w in self.p)


def nlc_spec(d: int, n: int, g, p="uniform") -> NlcSpec:
    """Validate and build an NLC specification."""
    d = int(d)
    n = int(n)
    if not is_prime(d):
        raise NlcValidationError(f"d must be prime, got {d}")
    if n < 1:
        raise NlcValidationError(f"n must be at least 1, got {n}")
    if d**n > MAX_QUESTIONS:
        raise NlcValidationError(
            f"d^n = {d**n} exceeds the supported cap {MAX_QUESTIONS}"
        )
    size = d ** (n - 1)
    g = tuple(int(t) for t in g)
    if len(g) != size:
        raise NlcValidationError(
            f"g must assign a target dit to each of the {size} prefix strings, "
            f"got {len(g)} entries"
        )
    if any(not 0 <= t < d for t in g):
        raise NlcValidationError(f"g values must lie in [0, {d}), got {g}")
    if isinstance(p, str):
        if p != "uniform":
            raise NlcValidationError(f"unknown distribution keyword {p!r}")
        probs = tuple(Fraction(1, size) for _ in range(size))
    else:
        try:
            probs = tuple(_parse_weight(entry) for entry in p)
        except GameValidationError as exc:
            raise NlcValidationError(
                f"prefix probabilities must be exact rationals: {exc}"
            ) from exc
        inexact = [w for w in probs if not isinstance(w, Fraction)]
        if inexact:
            raise NlcValidationError(
                f"prefix probabilities must be exact rationals, not {inexact[0]!r}"
            )
        if len(probs) != size:
            raise NlcValidationError(
                f"p must have {size} entries to match the prefix strings"
            )
        if any(w < 0 for w in probs):
            raise NlcValidationError("prefix probabilities must be nonnegative")
        if sum(probs) != 1:
            raise NlcValidationError(f"prefix distribution sums to {sum(probs)}, not 1")
    return NlcSpec(d=d, n=n, g=g, p=probs)


def nlc_game(spec: NlcSpec) -> LinearGame:
    """Materialize the NLC game as a linear game over Z_d with exact weights."""
    d, n = spec.d, spec.n
    # Z_d^n lists its elements in the NLC input order: index = prefix * d + last.
    z, last = divmod(FiniteAbelianGroup([d] * n).addition_table(), d)
    weights = [w / d ** (n + 1) for w in spec.p]
    den = lcm(*(w.denominator for w in weights))
    # Numerators are at most den: int64 whenever den passes LinearGame's cap.
    p_num = np.array([w.numerator * (den // w.denominator) for w in weights])
    f = np.array(spec.g)[z] * last % d
    return LinearGame(group=FiniteAbelianGroup([d]), f_idx=f, q_num=p_num[z], q_den=den)


@dataclass(frozen=True)
class LambdaProfile:
    """Multiplicity profile of the building-block games across a row block.

    `counts[t]` is the number of prefix strings mapped to target dit t;
    `weighted[t]` is the probability-weighted version scaled by 1/d^2.
    `mu` is the smallest maximizer of the weighted profile (equivalently of
    the counts when the prefix distribution is uniform).
    """

    counts: tuple[int, ...]
    weighted: tuple[Fraction, ...]
    uniform: bool

    @property
    def count_max(self) -> int:
        return max(self.counts)

    @property
    def weighted_max(self) -> Fraction:
        return max(self.weighted)

    @property
    def mu(self) -> int:
        return self.weighted.index(self.weighted_max)


def lambda_profile(spec: NlcSpec) -> LambdaProfile:
    """Count how often each building block occurs, plus its input weight.

    The profile is the same for every row block; this is re-derived from a
    second row as an internal consistency check.
    """
    d = spec.d
    padd = FiniteAbelianGroup([d] * spec.n).addition_table()[::d, ::d] // d
    size = spec.prefix_count

    def profile_from_row(row: int):
        counts = [0] * d
        weighted = [Fraction(0)] * d
        for y in range(size):
            z = int(padd[row, y])
            counts[spec.g[z]] += 1
            weighted[spec.g[z]] += spec.p[z] / (d * d)
        return tuple(counts), tuple(weighted)

    counts, weighted = profile_from_row(0)
    other = min(1, size - 1)
    if profile_from_row(other) != (counts, weighted):
        raise BlockStructureError(
            "building-block profile differs between row blocks"
        )
    return LambdaProfile(counts=counts, weighted=weighted, uniform=spec.uniform)


def nlc_quantum_bound(spec: NlcSpec) -> Fraction:
    """Exact spectral bound on the quantum value of an NLC game.

    (1/d) * (1 + d^2 (d-1) * Lw) with Lw the largest weighted multiplicity.
    On uniform inputs this is (1/d) * (1 + (d-1) * Lambda / d^(n-1)) with
    Lambda the largest multiplicity.
    """
    d = spec.d
    return Fraction(1, d) + d * (d - 1) * lambda_profile(spec).weighted_max


@dataclass(frozen=True)
class NlcStrategy:
    """Prefix-ignoring strategy a = mu*x_n, b = mu*y_n and its exact value."""

    mu: int
    alice: tuple[int, ...]
    bob: tuple[int, ...]
    value: Fraction


def nlc_classical_strategy(spec: NlcSpec, mu: int | None = None) -> NlcStrategy:
    """Build the strategy that plays mu times the last dit and score it exactly.

    `mu` defaults to the (smallest) maximizer of the weighted multiplicity
    profile; any maximizer achieves the same value.  The score is evaluated
    directly on the materialized game, not read off a closed form.
    """
    if mu is None:
        mu = lambda_profile(spec).mu
    elif not 0 <= int(mu) < spec.d:
        raise NlcValidationError(f"mu must lie in [0, {spec.d}), got {mu}")
    return _score_strategy(nlc_game(spec), mu)


def _score_strategy(game: LinearGame, mu: int) -> NlcStrategy:
    """Exact value of a = mu*x_n, b = mu*y_n on the materialized game."""
    d = game.order
    answers = np.array([(mu * (x % d)) % d for x in range(game.mA)], dtype=np.int64)
    win = (answers[:, None] + answers[None, :]) % d
    mask = game.f_idx == win
    value = Fraction(int(game.q_num[mask].sum()), game.q_den)
    outputs = tuple(int(a) for a in answers)
    return NlcStrategy(mu=int(mu), alice=outputs, bob=outputs, value=value)


@dataclass(frozen=True)
class BlockCirculantReport:
    """Numbers produced by the block-circulant structure check of one Phi_k."""

    k: int
    off_diagonal_max: float
    top_eigenvalue: float
    candidate_eigenvalues: tuple[float, ...]
    spectral_norm: float
    expected_norm: float


@dataclass(frozen=True)
class Theorem3Report:
    """Outcome of the no-quantum-advantage verification for one game;
    `blocks` is empty when d^n exceeds `MAX_STRUCTURE_QUESTIONS`."""

    spec: NlcSpec
    bound: Fraction
    strategy_value: Fraction
    mu: int
    brute_force_value: Fraction | None
    spectral_bound: float
    brute_forced: bool
    lambda_by_k: tuple[int, ...]
    blocks: tuple[BlockCirculantReport, ...]


def verify_theorem3(spec: NlcSpec, budget: int = 10**6) -> Theorem3Report:
    """Check that the classical strategy meets the quantum bound exactly.

    Legs, all read off one game and one solve per conjugate pair {Phi_k,
    Phi_(d-k)}: (i) the prefix-ignoring strategy's exact value equals the
    exact bound; (ii) when d^(d^n) fits the enumeration budget, the
    brute-force classical optimum equals the same number; (iii) when
    d^n <= MAX_STRUCTURE_QUESTIONS, each Phi_k passes `_check_blocks`; (iv)
    the generic spectral bound from the norms ||Phi_k|| agrees to 1e-10; (v)
    the multiplicity maximum is the same for every nonzero k.  Legs (iii) and (v) raise `BlockStructureError`, the
    others `TheoremVerificationError` naming the leg.
    """
    d = spec.d
    bound = nlc_quantum_bound(spec)
    prof = lambda_profile(spec)
    game = nlc_game(spec)
    strategy = _score_strategy(game, prof.mu)
    if strategy.value != bound:
        raise TheoremVerificationError(
            f"strategy-vs-bound leg failed: strategy scores {strategy.value}, "
            f"bound is {bound}"
        )
    brute = None
    brute_forced = False
    if game.order**game.mA <= budget:
        brute_forced = True
        optimum = classical_value(game, budget=budget)
        brute = optimum.exact
        if brute != bound:
            raise TheoremVerificationError(
                f"brute-force leg failed: exhaustive optimum {brute} differs "
                f"from bound {bound}"
            )
    basis = _fourier_basis(d, spec.n) if game.mA <= MAX_STRUCTURE_QUESTIONS else None
    norms, blocks = [], []
    for k, (phi, s) in enumerate(_phi_spectra(game), start=1):
        norms.append(float(s[0]))
        if basis is not None:
            blocks.append(_check_blocks(spec, prof, k, phi, norms[-1], basis))
    spectral = bound_from_norms(game, norms)
    if abs(spectral - float(bound)) > 1e-10:
        raise TheoremVerificationError(
            f"spectral-bound leg failed: game matrices give {spectral!r}, "
            f"closed form gives {float(bound)!r}"
        )
    lambda_by_k = tuple(
        max(prof.counts[(-j * pow(k, -1, d)) % d] for j in range(d))
        for k in range(1, d)
    )
    if len(set(lambda_by_k)) > 1:
        raise BlockStructureError(
            f"multiplicity maximum varies with the character index: {lambda_by_k}"
        )
    return Theorem3Report(
        spec=spec,
        bound=bound,
        strategy_value=strategy.value,
        mu=strategy.mu,
        brute_force_value=brute,
        spectral_bound=spectral,
        brute_forced=brute_forced,
        lambda_by_k=lambda_by_k,
        blocks=tuple(blocks),
    )


def fourier_vector(d: int, j: int, normalized: bool = False) -> np.ndarray:
    """Fourier vector (1, w^j, ..., w^((d-1)j)) with w = exp(2*pi*i/d)."""
    v = np.array([cmath.exp(2j * cmath.pi * (j * x) / d) for x in range(d)])
    return v / np.sqrt(d) if normalized else v


def building_block_matrix(d: int, k: int, t: int) -> np.ndarray:
    """Unnormalized single-dit game block with entries w^(k*t*(x+y mod d))."""
    return np.array(
        [[cmath.exp(2j * cmath.pi * (k * t * ((x + y) % d)) / d) for y in range(d)] for x in range(d)]
    )


def _fourier_basis(d: int, n: int) -> np.ndarray:
    """The n-fold tensor power of the normalized d-point Fourier basis; column
    j, in base d with the last digit fastest, is f_(j_1) x ... x f_(j_n)."""
    f_mat = np.array([fourier_vector(d, j, normalized=True) for j in range(d)]).T
    basis = np.array([[1.0]])
    for _ in range(n):
        basis = np.kron(basis, f_mat)
    return basis


def _check_blocks(
    spec: NlcSpec, prof: LambdaProfile, k: int, phi: np.ndarray, snorm: float, basis: np.ndarray
) -> BlockCirculantReport:
    """Verify the Fourier eigenstructure of Phi_k^dagger Phi_k, ||Phi_k|| = snorm,
    in the tensor Fourier `basis` of `_fourier_basis`.

    Checks, raising `BlockStructureError` on the first failure:
      1. conjugating by the n-fold tensor of Fourier vectors leaves less
         than 1e-10 off-diagonal mass;
      2. the largest eigenvalue is attained inside the span of the vectors
         f_0^(x(n-1)) (x) f_j, whose eigenvalues match the weighted
         multiplicity profile;
      3. the spectral norm equals d^2 * Lw / d^n (uniform inputs:
         d * Lambda / d^(2n)) to 1e-10.
    """
    d, n = spec.d, spec.n
    gram = matmul_adjoint(phi)
    conj = basis.conj().T @ gram @ basis

    diag = conj.diagonal().real.copy()
    off = conj - np.diag(conj.diagonal())
    off_max = float(np.max(np.abs(off)))
    if off_max >= 1e-10:
        raise BlockStructureError(
            f"Fourier conjugation left off-diagonal mass {off_max:.3e}"
        )

    # Columns 0..d-1 of the tensor basis are f_0 x ... x f_0 x f_j.
    candidates = tuple(float(x) for x in diag[:d])
    top = snorm * snorm
    if abs(max(candidates) - top) > 1e-10:
        raise BlockStructureError(
            f"top eigenvalue {top!r} is not attained within the expected "
            f"Fourier span (best candidate {max(candidates)!r})"
        )

    # Candidate j pairs with the building block whose target satisfies
    # -k * t = j mod d, and its eigenvalue is (d^2 * weighted[t] / d^n)^2.
    k_inv = pow(k, -1, d)
    norm_scale = Fraction(d * d, d**n)
    for j, observed in enumerate(candidates):
        t = (-j * k_inv) % d
        expected = float((prof.weighted[t] * norm_scale) ** 2)
        if abs(observed - expected) > 1e-10:
            raise BlockStructureError(
                f"eigenvalue for Fourier index {j} is {observed!r}, expected "
                f"{expected!r} from the multiplicity profile"
            )

    expected_norm = float(prof.weighted_max * norm_scale)
    if abs(snorm - expected_norm) > 1e-10:
        raise BlockStructureError(
            f"spectral norm {snorm!r} does not match the multiplicity "
            f"profile value {expected_norm!r}"
        )

    return BlockCirculantReport(
        k=k,
        off_diagonal_max=off_max,
        top_eigenvalue=top,
        candidate_eigenvalues=candidates,
        spectral_norm=snorm,
        expected_norm=expected_norm,
    )


# ---------------------------------------------------------------------------
# JSON specification format
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"d", "n", "g", "p"}


def nlc_spec_from_json(obj) -> NlcSpec:
    """Parse {"d": .., "n": .., "g": [..], "p": [[num, den], ..] | "uniform"}."""
    if not isinstance(obj, dict):
        raise GameFormatError("NLC document must be a JSON object")
    unknown = set(obj) - _SPEC_KEYS
    if unknown:
        raise GameFormatError(f"unknown keys {sorted(unknown)} in NLC document")
    missing = _SPEC_KEYS - set(obj)
    if missing:
        raise GameFormatError(f"NLC document is missing keys {sorted(missing)}")
    if not isinstance(obj["d"], int) or not isinstance(obj["n"], int):
        raise GameFormatError("'d' and 'n' must be integers")
    if not isinstance(obj["g"], list):
        raise GameFormatError("'g' must be a list of target dits")
    p = obj["p"]
    if not (p == "uniform" or isinstance(p, list)):
        raise GameFormatError("'p' must be \"uniform\" or a list of [num, den] pairs")
    return nlc_spec(obj["d"], obj["n"], obj["g"], p)


def nlc_spec_to_json(spec: NlcSpec) -> dict:
    p = (
        "uniform"
        if spec.uniform
        else [[w.numerator, w.denominator] for w in spec.p]
    )
    return {"d": spec.d, "n": spec.n, "g": list(spec.g), "p": p}
