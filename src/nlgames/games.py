"""Linear games and the JSON game format.

A linear game asks two players questions (u, v) drawn from q(u, v); they
answer with group elements a, b and win when a + b = f(u, v).

Conventions: questions are indexed 0..mA-1 and 0..mB-1; an answer is its
group element's index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, sqrt

import numpy as np

from .algebra import FiniteAbelianGroup, FiniteField, Group, _is_int
from .rng import SplitMix64

__all__ = [
    "GameValidationError",
    "GameFormatError",
    "LinearGame",
    "game_from_tables",
    "chsh_d",
    "chsh_closed_form",
    "random_xor_game",
    "game_from_json",
    "game_to_json",
]

NORMALIZATION_TOL = 1e-12

# Largest common denominator of exact input weights.  `LinearGame` rejects a
# larger one; `game_from_tables` keeps such outside tables as floats.
_MAX_EXACT_DENOMINATOR = 10**15


class GameValidationError(ValueError):
    """A game violates a structural invariant."""


def _check_exact_denominator(den: int) -> None:
    """Reject a common denominator of exact weights outside [1, 10**15]."""
    if not 0 < den <= _MAX_EXACT_DENOMINATOR:
        raise GameValidationError(f"common denominator {den} of q is not in [1, {_MAX_EXACT_DENOMINATOR}]")


class GameFormatError(ValueError):
    """A JSON document does not match the documented game schema."""


@dataclass(frozen=True)
class LinearGame:
    """Validated linear game; immutable after construction.

    `f_idx` holds the winning element's canonical index per question pair.
    The input distribution is given either exactly, as integer numerators
    `q_num` over a common denominator `q_den` (then `q` is derived as
    `q_num / q_den`, so downstream optima can be reported as exact
    rationals), or as the float table `q` alone.
    """

    group: Group
    f_idx: np.ndarray
    q: np.ndarray | None = None
    q_num: np.ndarray | None = None
    q_den: int | None = None

    def __post_init__(self):
        if self.q_num is not None:
            num, den = self.q_num, self.q_den
            _check_exact_denominator(den)
            if num.dtype.kind not in "iu":
                raise GameValidationError(f"q numerators must be int64 or uint64, not {num.dtype}")
            if np.any(num < 0):
                raise GameValidationError("input probabilities must be nonnegative")
            total = int(num.sum(dtype=object))  # exact: an int64 sum could wrap
            if total != den:
                total = Fraction(total, den)
                raise GameValidationError(f"input distribution sums to {total}, not 1")
            object.__setattr__(self, "q", num / den)
            num.setflags(write=False)
        else:
            if not np.all(np.isfinite(self.q)):
                raise GameValidationError("input probabilities must be finite numbers")
            if np.any(self.q < 0):
                raise GameValidationError("input probabilities must be nonnegative")
            total = float(self.q.sum())
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise GameValidationError(f"input distribution sums to {total!r}, not 1")
        if self.q.ndim != 2 or self.q.size == 0:
            raise GameValidationError("q must be a rectangular, nonempty table")
        if self.f_idx.shape != self.q.shape:
            raise GameValidationError("f table shape does not match q")
        if np.any(self.f_idx < 0) or np.any(self.f_idx >= self.order):
            raise GameValidationError(f"winning-function indices must lie in [0, {self.order})")
        self.q.setflags(write=False)
        self.f_idx.setflags(write=False)

    @property
    def mA(self) -> int:
        return self.q.shape[0]

    @property
    def mB(self) -> int:
        return self.q.shape[1]

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def has_exact_q(self) -> bool:
        return self.q_num is not None

    def winning_answers(self) -> np.ndarray:
        """W[u, v, a] = index of f(u, v) - a, Bob's winning answer to Alice's a;
        built on the first call and kept, read-only."""
        if "_winning" not in self.__dict__:
            winning = self.group.subtraction_table()[self.f_idx]
            winning.setflags(write=False)
            object.__setattr__(self, "_winning", winning)
        return self._winning


def _parse_weight(entry) -> Fraction | float:
    """Interpret one q entry; Fractions, ints and (num, den) pairs stay exact."""
    if isinstance(entry, Fraction):
        return entry
    if _is_int(entry):
        return Fraction(int(entry))
    if isinstance(entry, (float, np.floating)):
        return float(entry)
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        num, den = entry
        if _is_int(num) and _is_int(den) and den != 0:
            return Fraction(int(num), int(den))
    raise GameValidationError(f"invalid probability entry {entry!r}")


def _read_weights(entries: list) -> tuple[tuple[int, ...], int] | list[Fraction | float]:
    """Read a flat list of weights: integer numerators over their least common
    denominator when every entry is exact, else each entry as `_parse_weight`
    reads it.

    A list of [num, den] pairs of plain ints, the form `game_to_json` writes,
    is split in one pass with no Fraction per entry; any other list is read
    entry by entry through `_parse_weight`, which names the first bad entry.
    """
    pairs = set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) == {2}
    nums, dens = zip(*entries) if pairs else ((), ())
    if not pairs or set(map(type, nums + dens)) != {int} or 0 in dens:
        weights = [_parse_weight(entry) for entry in entries]
        if any(isinstance(w, float) for w in weights):
            return weights
        nums, dens = [w.numerator for w in weights], [w.denominator for w in weights]
    # With any common denominator D, dividing D and the numerators by their
    # gcd leaves the least common denominator of the reduced weights.
    den = lcm(*dens)
    nums = [a * (den // b) for a, b in zip(nums, dens)]
    common = gcd(den, *nums)
    return tuple(a // common for a in nums), den // common


def game_from_tables(group: Group, q, f) -> LinearGame:
    """Build and validate a linear game from an input distribution and win table.

    `q` is an mA x mB table whose entries may be floats, ints, Fractions, or
    (num, den) pairs; the exact rational form is kept when every entry is
    exact and their common denominator is at most 10**15.  `f` is an mA x mB
    table of group elements, each an int index or a coordinate sequence that
    `Group.element` reads; a bool is neither.  A table of [num, den] int pairs
    and one of int indices are each read as one integer array.
    """
    rows = [list(row) for row in q]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise GameValidationError("q must be a rectangular, nonempty table")
    shape = (len(rows), len(rows[0]))

    weights = _read_weights([entry for row in rows for entry in row])
    try:
        f_rows = [list(row) for row in f]
        flat = [entry for row in f_rows for entry in row]
        if (
            [len(row) for row in f_rows] == [shape[1]] * shape[0]
            and set(map(type, flat)) == {int}
            and 0 <= min(flat)
            and max(flat) < group.order
        ):
            f_idx = np.array(flat, dtype=np.int64).reshape(shape)
        else:
            f_idx = np.array([[group.element(entry) for entry in row] for row in f_rows], dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise GameValidationError(f"invalid winning-function entry: {exc}") from exc

    if isinstance(weights, tuple):
        nums, den = weights
        # An entry outside [-1, 1] cannot be valid, and its numerator may
        # overflow int64 and its quotient a float, so the fault is named here.
        if max(map(abs, nums)) > den:
            if min(nums) < 0:
                raise GameValidationError("input probabilities must be nonnegative")
            raise GameValidationError(f"input distribution sums to {Fraction(sum(nums), den)}, not 1")
        if den <= _MAX_EXACT_DENOMINATOR:
            q_num = np.array(nums, dtype=np.int64).reshape(shape)
            return LinearGame(group=group, f_idx=f_idx, q_num=q_num, q_den=den)
        weights = [num / den for num in nums]  # correctly rounded, as float(Fraction) is
    q_float = np.array([float(w) for w in weights], dtype=np.float64).reshape(shape)
    return LinearGame(group=group, f_idx=f_idx, q=q_float)


def chsh_d(p: int | FiniteField, r: int = 1) -> LinearGame:
    """CHSH game over GF(p^r): f(u, v) = u*v in the field, uniform questions.

    `p` may be a built `FiniteField`, which is then used as it is.  The
    field is also the answer group, so the characters used by the spectral
    bound are the trace characters.
    """
    field = p if isinstance(p, FiniteField) else FiniteField(p, r)
    f_idx = field.multiplication_table()
    return LinearGame(field, f_idx, q_num=np.ones_like(f_idx), q_den=f_idx.size)


def chsh_closed_form(d: int) -> float:
    """Quantum bound 1/d + (d-1)/(d*sqrt(d)) of the CHSH game over a field of order d."""
    return 1.0 / d + (d - 1) / (d * sqrt(d))


def random_xor_game(rng: SplitMix64, d: int, m: int) -> LinearGame:
    """Uniform-input m x m game over Z_d with i.i.d. uniform f entries.

    Entries are drawn row-major (u outer, v inner), one `randbelow(d)` call
    each, so a given seed always produces the same game.
    """
    f_idx = np.array([[rng.randbelow(d) for _ in range(m)] for _ in range(m)])
    return LinearGame(FiniteAbelianGroup([d]), f_idx, q_num=np.ones_like(f_idx), q_den=f_idx.size)


# ---------------------------------------------------------------------------
# JSON game format
# ---------------------------------------------------------------------------

_GAME_KEYS = {"group", "mA", "mB", "q", "f"}


def _check_document(obj, keys: set[str], name: str, optional: frozenset[str] = frozenset()) -> None:
    """Require `obj`, the JSON document called `name`, to be an object with
    the keys `keys` and at most the keys `optional` besides: none unknown,
    none missing."""
    if not isinstance(obj, dict):
        raise GameFormatError(f"{name} must be a JSON object")
    unknown = set(obj) - keys - optional
    if unknown:
        raise GameFormatError(f"unknown keys {sorted(unknown)} in {name}")
    missing = keys - set(obj)
    if missing:
        raise GameFormatError(f"{name} is missing keys {sorted(missing)}")


def _group_from_json(obj) -> Group:
    if not isinstance(obj, dict):
        raise GameFormatError("'group' must be an object")
    if set(obj) == {"factors"}:
        factors = obj["factors"]
        if not isinstance(factors, list) or not factors or any(type(n) is not int for n in factors):
            raise GameFormatError("'factors' must be a nonempty list of integers")
        try:
            return FiniteAbelianGroup(factors)
        except ValueError as exc:
            raise GameFormatError(str(exc)) from exc
    if set(obj) == {"field"}:
        field = obj["field"]
        _check_document(field, {"p"}, "'field'", optional=frozenset({"r"}))
        for key in field:
            if type(field[key]) is not int:
                raise GameFormatError(f"'{key}' in 'field' must be an integer")
        try:
            return FiniteField(field["p"], field.get("r", 1))
        except ValueError as exc:
            raise GameFormatError(str(exc)) from exc
    raise GameFormatError("'group' must contain exactly one of 'factors' or 'field'")


def game_from_json(obj) -> LinearGame:
    """Parse the documented JSON game format; unknown keys are rejected."""
    _check_document(obj, _GAME_KEYS, "game document")
    group = _group_from_json(obj["group"])
    m_a, m_b = obj["mA"], obj["mB"]
    if not all(type(m) is int and m >= 1 for m in (m_a, m_b)):
        raise GameFormatError("'mA' and 'mB' must be positive integers")
    q, f = obj["q"], obj["f"]
    if not isinstance(q, list) or len(q) != m_a or any(
        not isinstance(row, list) or len(row) != m_b for row in q
    ):
        raise GameFormatError("'q' must be an mA x mB table")
    if not isinstance(f, list) or len(f) != m_a or any(
        not isinstance(row, list) or len(row) != m_b for row in f
    ):
        raise GameFormatError("'f' must be an mA x mB table")
    return game_from_tables(group, q, f)


def game_to_json(game: LinearGame) -> dict:
    """Canonical JSON form: exact q as [num, den] pairs, f as element indices."""
    if game.has_exact_q:
        q = [
            [[int(game.q_num[u, v]), game.q_den] for v in range(game.mB)]
            for u in range(game.mA)
        ]
    else:
        q = [[float(game.q[u, v]) for v in range(game.mB)] for u in range(game.mA)]
    return {
        "group": game.group.describe(),
        "mA": game.mA,
        "mB": game.mB,
        "q": q,
        "f": [[int(game.f_idx[u, v]) for v in range(game.mB)] for u in range(game.mA)],
    }
