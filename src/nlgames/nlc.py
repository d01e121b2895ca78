"""Distributed-computation games over Z_d and their no-quantum-advantage check.

An NLC game shares n input dits additively between the players: Alice gets
x, Bob gets y, and the hidden input is z = x (+) y componentwise mod d.
They must output dits with a + b = g(z_1, ..., z_{n-1}) * z_n, where g maps
(n-1)-dit strings to Z_d and d is prime.  Inputs are drawn with weight
p(z_1, ..., z_{n-1}) / d^(n+1).

Every entry depends on the inputs only through x (+) y: the game matrix is
Phi_k[x, y] = h_k(x (+) y) with h_k its row 0, a permuted convolution over
Z_d^n, so the singular values of Phi_k are the moduli of the Fourier
transform of h_k over the d^n characters of Z_d^n.  At prefix frequency 0
these are the d building-block games a + b = t * (x_n (+) y_n), weighted by
the multiplicity profile, and no other frequency exceeds them.  The profile
therefore determines the spectral bound exactly, and the ignore-the-prefix
strategy a = mu * x_n, b = mu * y_n attains it: these games have no quantum
advantage.
`verify_theorem3` checks this structure for every spec `nlc_spec` accepts.

Input indices encode digit strings big-endian with the last dit fastest,
so index = prefix_index * d + last_dit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .algebra import FiniteAbelianGroup, _is_int, is_prime, power_above
from .bounds import bound_from_norms, classical_value, over_budget
from .games import GameFormatError, GameValidationError, LinearGame, _check_document, _check_exact_denominator, _read_weights

__all__ = [
    "NlcValidationError",
    "TheoremVerificationError",
    "BlockStructureError",
    "NlcSpec",
    "LambdaProfile",
    "Theorem3Report",
    "nlc_spec",
    "nlc_spec_from_json",
    "nlc_game",
    "lambda_profile",
    "nlc_classical_strategy",
    "NlcStrategy",
    "verify_theorem3",
]

MAX_QUESTIONS = 3**10  # d^n cap for a spec; verified from row 0 alone
MAX_GAME_QUESTIONS = 729  # d^n cap for `nlc_game`, which allocates (d^n)^2 entries

_EPS = float(np.finfo(np.float64).eps)


class NlcValidationError(ValueError):
    """An NLC specification violates its structural constraints."""


class TheoremVerificationError(RuntimeError):
    """A no-quantum-advantage verification leg failed."""


class BlockStructureError(RuntimeError):
    """A block-circulant structure check failed."""


@dataclass(frozen=True)
class NlcSpec:
    """Parameters of one NLC game: prime d, n input dits, target table g,
    and the prefix distribution p = p_num / p_den (both indexed by big-endian
    prefix), as integer numerators over their least common denominator."""

    d: int
    n: int
    g: tuple[int, ...]
    p_num: tuple[int, ...]
    p_den: int


def nlc_spec(d: int, n: int, g, p="uniform") -> NlcSpec:
    """Validate and build an NLC specification; the d^n cap comes before
    d's primality, whose trial division takes about a minute for a d near 10^18."""
    for name, value in (("d", d), ("n", n)):
        if not _is_int(value):
            raise NlcValidationError(f"{name} must be an integer, got {value!r}")
    d, n = int(d), int(n)
    if n < 1:
        raise NlcValidationError(f"n must be at least 1, got {n}")
    questions = power_above(d, n, MAX_QUESTIONS)
    if questions is not None:
        raise NlcValidationError(f"d^n = {questions} exceeds the supported cap {MAX_QUESTIONS}")
    if not is_prime(d):
        raise NlcValidationError(f"d must be prime, got {d}")
    size = d ** (n - 1)
    g = tuple(g)
    if len(g) != size:
        raise NlcValidationError(
            f"g must assign a target dit to each of the {size} prefix strings, "
            f"got {len(g)} entries"
        )
    bad = next((i for i, t in enumerate(g) if not _is_int(t)), None)
    if bad is not None:
        raise NlcValidationError(f"g values must be integers, got g[{bad}] = {g[bad]!r}")
    g = tuple(map(int, g))
    bad = next((i for i, t in enumerate(g) if not 0 <= t < d), None)
    if bad is not None:
        raise NlcValidationError(f"g values must lie in [0, {d}), got g[{bad}] = {g[bad]}")
    if isinstance(p, str):
        if p != "uniform":
            raise NlcValidationError(f"unknown distribution keyword {p!r}")
        return NlcSpec(d=d, n=n, g=g, p_num=(1,) * size, p_den=size)
    try:
        weights = _read_weights(list(p))
    except GameValidationError as exc:
        raise NlcValidationError(f"prefix probabilities must be exact rationals: {exc}") from exc
    if isinstance(weights, list):
        inexact = next(w for w in weights if isinstance(w, float))
        raise NlcValidationError(f"prefix probabilities must be exact rationals, not {inexact!r}")
    nums, den = weights
    if len(nums) != size:
        raise NlcValidationError(f"p must have {size} entries to match the prefix strings")
    if min(nums) < 0:
        raise NlcValidationError("prefix probabilities must be nonnegative")
    if sum(nums) != den:
        raise NlcValidationError(f"prefix distribution sums to {Fraction(sum(nums), den)}, not 1")
    return NlcSpec(d=d, n=n, g=g, p_num=nums, p_den=den)


def _row0(spec: NlcSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """Row 0 of the game at z = x (+) y, z' its prefix: f0(z) = g(z') * z_n mod d
    and q0(z) = p(z') / d^(n+1), as integer numerators over one denominator."""
    d = spec.d
    nums, p_den = spec.p_num, spec.p_den
    # The q0 are nums / (p_den * d^(n+1)); dividing out the gcd of all of them
    # leaves their least common denominator, as if each were reduced first.
    scale = p_den * d ** (spec.n + 1)
    common = gcd(scale, *nums)
    den = scale // common
    _check_exact_denominator(den)
    # Numerators are at most den, so they fit int64.
    p_num = np.array([num // common for num in nums], dtype=np.int64)
    f0 = (np.array(spec.g)[:, None] * np.arange(d) % d).ravel()
    return f0, np.repeat(p_num, d), den


def nlc_game(spec: NlcSpec) -> LinearGame:
    """Materialize the NLC game over Z_d with exact weights, entry (x, y) = row 0 at x (+) y;
    (d^n)^2 entries, so up to `MAX_GAME_QUESTIONS` and in `verify_theorem3` for brute force."""
    d, n = spec.d, spec.n
    if d**n > MAX_GAME_QUESTIONS:
        raise NlcValidationError(f"d^n = {d**n} exceeds the game cap {MAX_GAME_QUESTIONS}")
    f0, q0, den = _row0(spec)
    # Z_d^n lists its elements in the NLC input order: index = prefix * d + last.
    xor = FiniteAbelianGroup([d] * n).addition_table()
    return LinearGame(group=FiniteAbelianGroup([d]), f_idx=f0[xor], q_num=q0[xor], q_den=den)


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

    @property
    def weighted_max(self) -> Fraction:
        return max(self.weighted)

    @property
    def mu(self) -> int:
        return self.weighted.index(self.weighted_max)

    @property
    def bound(self) -> Fraction:
        """(1/d) * (1 + d^2 (d-1) * Lw) with Lw the largest weighted
        multiplicity; on uniform inputs (1/d) * (1 + (d-1) * Lambda / d^(n-1))
        with Lambda the largest multiplicity."""
        d = len(self.counts)
        return Fraction(1, d) + d * (d - 1) * self.weighted_max


def lambda_profile(spec: NlcSpec) -> LambdaProfile:
    """Count how often each building block occurs, plus its input weight.

    Row block 0 meets prefix z in column block z, and every other row of the
    prefix addition table is a permutation of the prefixes, so every row
    block has this same profile.
    """
    d = spec.d
    nums, den = spec.p_num, spec.p_den
    counts = [0] * d
    sums = [0] * d
    for t, num in zip(spec.g, nums):
        counts[t] += 1
        sums[t] += num
    weighted = tuple(Fraction(total, den * d * d) for total in sums)
    return LambdaProfile(counts=tuple(counts), weighted=weighted)


@dataclass(frozen=True)
class NlcStrategy:
    """Prefix-ignoring strategy a = mu*x_n, b = mu*y_n and its exact value."""

    mu: int
    alice: tuple[int, ...]
    bob: tuple[int, ...]
    value: Fraction


def nlc_classical_strategy(spec: NlcSpec, mu: int) -> NlcStrategy:
    """Build the strategy that plays mu times the last dit and score it exactly.

    Every maximizer of the weighted multiplicity profile, such as its
    smallest, `lambda_profile(spec).mu`, achieves the same value.  The score is
    evaluated exactly from the game's row 0, not read off a closed form.
    """
    if not _is_int(mu):
        raise NlcValidationError(f"mu must be an integer, got {mu!r}")
    if not 0 <= mu < spec.d:
        raise NlcValidationError(f"mu must lie in [0, {spec.d}), got {mu}")
    return _score_strategy(_row0(spec), spec.d, int(mu))


def _score_strategy(row0, d: int, mu: int) -> NlcStrategy:
    """Exact value of a = mu*x_n, b = mu*y_n: d^n * sum_z q0(z) [f0(z) = mu*z_n],
    since each z is x (+) y for d^n pairs (x, y)."""
    f0, q0, den = row0
    answers = mu * np.arange(f0.size) % d  # mu * x_n, also mu * z_n at z = x
    value = Fraction(f0.size * int(q0[f0 == answers].sum()), den)
    outputs = tuple(answers.tolist())
    return NlcStrategy(mu=mu, alice=outputs, bob=outputs, value=value)


@dataclass(frozen=True)
class Theorem3Report:
    """Outcome of the no-quantum-advantage verification for one game;
    `brute_force_value` is None when the enumeration is over budget, and
    `norms` holds ||Phi_k|| for k = 1..d-1."""

    profile: LambdaProfile
    strategy_value: Fraction
    brute_force_value: Fraction | None
    spectral_bound: float
    norms: tuple[float, ...]


def verify_theorem3(spec: NlcSpec) -> Theorem3Report:
    """Check that the classical strategy meets the quantum bound exactly.

    Legs, read off one profile and the game's row 0: (i) the prefix-ignoring
    strategy's exact value equals the exact bound; (ii) only when d^(d^n)
    fits the enumeration budget, `nlc_game` is built, must equal row 0 at
    x (+) y in exact integers, and its brute-force optimum must equal the
    bound; (iii) the spectrum of each Phi_k, one FFT of its row 0, passes
    `_check_blocks`; (iv) the generic spectral bound from the norms ||Phi_k||
    agrees to ((d-1) * d^n * tol + 4 eps) / d, since each norm is within the
    block checks' `_fft_tol` and enters the bound scaled by d^n / d.  The
    x (+) y check and (iii) raise `BlockStructureError`, the others
    `TheoremVerificationError` naming the leg.
    """
    prof = lambda_profile(spec)
    bound = prof.bound
    row0 = _row0(spec)
    strategy = _score_strategy(row0, spec.d, prof.mu)
    if strategy.value != bound:
        raise TheoremVerificationError(
            f"strategy-vs-bound leg failed: strategy scores {strategy.value}, "
            f"bound is {bound}"
        )
    size = spec.d**spec.n
    brute = None
    if over_budget(spec.d, size, size) is None:
        game = nlc_game(spec)
        inputs = FiniteAbelianGroup([spec.d] * spec.n).addition_table()
        for name, row in (("f_idx", row0[0]), ("q_num", row0[1])):
            if not np.array_equal(getattr(game, name), row[inputs]):
                raise BlockStructureError(
                    f"game {name} is not a function of x (+) y over Z_{spec.d}^{spec.n}"
                )
        brute = classical_value(game).exact
        if brute != bound:
            raise TheoremVerificationError(
                f"brute-force leg failed: exhaustive optimum {brute} differs "
                f"from bound {bound}"
            )
    norms = tuple(
        _check_blocks(prof, k, spectrum)
        for k, spectrum in enumerate(_spectra(row0, spec.d, spec.n), start=1)
    )
    spectral = bound_from_norms(spec.d, size, size, norms)
    slack = ((spec.d - 1) * size * _fft_tol(size) + 4 * _EPS) / spec.d
    if abs(spectral - float(bound)) > slack:
        raise TheoremVerificationError(
            f"spectral-bound leg failed: game matrices give {spectral!r}, "
            f"closed form gives {float(bound)!r}"
        )
    return Theorem3Report(
        profile=prof,
        strategy_value=strategy.value,
        brute_force_value=brute,
        spectral_bound=spectral,
        norms=norms,
    )


def _spectra(row0, d: int, n: int):
    """Yield the singular values of Phi_k for k = 1..d-1, each as |FFT| of
    its row 0 h_k = q0 * chi_k(f0) over Z_d^n, shape (d,) * n.  q0 takes the
    float division `LinearGame` makes, so the spectra have the same bits."""
    f0, q0, den = row0
    q = q0 / den
    chars = FiniteAbelianGroup([d]).character_table()
    for k in range(1, d):
        yield np.abs(np.fft.fftn((q * chars[k][f0]).reshape((d,) * n)))


def _fft_tol(size: int) -> float:
    """Tolerance on a singular value of a `size` x `size` Phi_k from `_spectra`.

    Row 0 has l1 norm exactly 1/size, so the FFT's rounding error is of order
    log2(size) * eps / size, and that scale, with a factor 8, is the tolerance.
    """
    return 8 * (size - 1).bit_length() * _EPS / size


def _check_blocks(prof: LambdaProfile, k: int, spectrum: np.ndarray) -> float:
    """Tie the spectrum of Phi_k, as yielded by `_spectra`, to the profile,
    and return its spectral norm.

    Checks to `_fft_tol`, raising `BlockStructureError` on the first failure:
      1. the largest singular value is attained at prefix frequency 0;
      2. there, frequency j has the value d^2 * weighted[t] / d^n with
         t = j * k^-1 mod d (the sign convention of `np.fft.fftn`);
      3. the spectral norm equals d^2 * Lw / d^n (uniform inputs:
         d * Lambda / d^(2n)).
    """
    d = len(prof.counts)
    size = spectrum.size
    tol = _fft_tol(size)
    # Flattened with the last dit fastest, prefix frequency 0 is entries 0..d-1.
    candidates = tuple(float(x) for x in spectrum.reshape(-1)[:d])
    snorm = float(spectrum.max())
    if snorm - max(candidates) > tol:
        raise BlockStructureError(
            f"spectral norm {snorm!r} of Phi_{k} is not attained at prefix "
            f"frequency 0 (best candidate {max(candidates)!r})"
        )

    k_inv = pow(k, -1, d)
    norm_scale = Fraction(d * d, size)
    for j, observed in enumerate(candidates):
        expected = float(prof.weighted[j * k_inv % d] * norm_scale)
        if abs(observed - expected) > tol:
            raise BlockStructureError(
                f"singular value of Phi_{k} at Fourier index {j} is {observed!r}, "
                f"expected {expected!r} from the multiplicity profile"
            )

    expected_norm = float(prof.weighted_max * norm_scale)
    if abs(snorm - expected_norm) > tol:
        raise BlockStructureError(
            f"spectral norm {snorm!r} of Phi_{k} does not match the multiplicity "
            f"profile value {expected_norm!r}"
        )

    return snorm


# ---------------------------------------------------------------------------
# JSON specification format
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"d", "n", "g", "p"}


def nlc_spec_from_json(obj) -> NlcSpec:
    """Parse {"d": .., "n": .., "g": [..], "p": [[num, den], ..] | "uniform"}."""
    _check_document(obj, _SPEC_KEYS, "NLC document")
    if type(obj["d"]) is not int or type(obj["n"]) is not int:
        raise GameFormatError("'d' and 'n' must be integers")
    if not isinstance(obj["g"], list):
        raise GameFormatError("'g' must be a list of target dits")
    p = obj["p"]
    if not (p == "uniform" or isinstance(p, list)):
        raise GameFormatError("'p' must be \"uniform\" or a list of [num, den] pairs")
    return nlc_spec(obj["d"], obj["n"], obj["g"], p)
