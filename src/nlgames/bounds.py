"""Game matrices, the spectral quantum bound, exact classical optima, and
the no-signaling value.

For each nonidentity group element x the game matrix Phi_x has entries
q(u, v) * chi_x(f(u, v)).  The quantum value is bounded by

    (1/|G|) * (1 + sqrt(mA * mB) * sum_{x != e} ||Phi_x||),

where ||.|| is the spectral norm.  The identity character contributes
exactly 1 through normalization, so Phi_e is never materialized.  The
classical value is the exact maximum over deterministic assignments, found
by enumerating the answers of the player with fewer questions,
m = min(mA, mB), with the other player best-responding per question (optimal
because the objective separates over the responder's questions).  Shifting
every enumerated answer by c and every response by -c keeps each score, so
only the |G|^(m-1) assignments with the identity at question 0 are scored,
and the optimum is recovered from the shifts of the tied ones; the budget
still counts all |G|^m.  Score tables for the two halves of the enumerated
questions cost O(|G|^ceil(m/2) * m_resp * |G|); each scored assignment then
costs O(m_resp * |G|).  The tables are question-major, so a chunk is scored
one responder's question at a time, as a maximum over the |G| answers added
into a vector of chunk scores, in O(chunk) memory.

Exact weights are scored in the narrowest of int8, int16, int32 and int64
that holds q_den.  This is exact: every table entry, every sum of a high and
a low entry and every chunk score adds each weight q_num(u, v) at most once,
so none exceeds the sum of all of them, q_den.

The no-signaling box P(a, b | u, v) = 1/|G| when a + b = f(u, v), else 0,
wins every linear game.  It is never built as a table: its uniform
marginals and its winning support are checked exactly on the integer table
`winning_answers()`, and its value is summed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import power_above
from .games import LinearGame
from .numerics import DEFAULT_RANK_TOL, singular_value_rank, stacked_singular_values

__all__ = [
    "EnumerationBudgetError",
    "ChainViolationError",
    "ClassicalOptimum",
    "GameReport",
    "phi_spectra",
    "phi_norms",
    "bound_from_norms",
    "over_budget",
    "classical_value",
    "lemma1_bound",
    "analyze",
]

DEFAULT_ENUMERATION_BUDGET = 10**6
DEFAULT_CHUNK_BYTES = 2**18  # per chunk buffer
STACK_ENTRIES = 2**12  # matrix entries per stacked singular-value solve

# Slack applied when comparing the float classical value against the clamped
# quantum bound in the report invariant chain.
CHAIN_SLACK = 1e-9


class EnumerationBudgetError(RuntimeError):
    """The deterministic-strategy enumeration would exceed its budget."""


class ChainViolationError(RuntimeError):
    """The value ordering lemma1 <= classical <= bound <= ns, or an exact
    check of the no-signaling box, failed for `.game`."""

    def __init__(self, message: str, game: LinearGame):
        super().__init__(message)
        self.game = game


def _representatives(game: LinearGame, exponents: np.ndarray, xs) -> list[int]:
    """For each x of `xs`, the first x of `xs` whose Phi_x has the same
    multiset of rows, and so the same singular values.

    A row of Phi_x is keyed by the float bits of its q row followed by its
    character exponents exponents[x, f(u, v)] (`Group.character_exponents`),
    and Phi_x by its sorted row keys, so two matrices with equal keys are
    equal up to the order of their rows.  When every q row has the same
    bits, they tell no two rows apart and are left out.  Keys are built one
    x at a time in one buffer and looked up by hash; a hash match is
    confirmed on the full bytes, and only the last class's key is held, so
    the extra memory is that of two keys.
    """
    if len(xs) == 1:
        return list(xs)
    q = np.ascontiguousarray(game.q).view(np.uint8).reshape(game.mA, -1)
    if np.all(q == q[0]):
        q = q[:, :0]
    rows = np.empty((game.mA, q.shape[1] + game.mB * exponents.itemsize), dtype=np.uint8)
    rows[:, : q.shape[1]] = q
    keyed = rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]

    def row_multiset(x) -> bytes:
        rows[:, q.shape[1] :] = exponents[x][game.f_idx].view(np.uint8).reshape(game.mA, -1)
        return np.sort(keyed).tobytes()

    reps, seen, held = [], {}, (None, b"")
    for x in xs:
        key = row_multiset(x)
        for rep in seen.get(hash(key), ()):
            if held[0] != rep:
                held = (rep, row_multiset(rep))
            if held[1] == key:
                reps.append(rep)
                break
        else:
            seen.setdefault(hash(key), []).append(x)
            reps.append(x)
            held = (x, key)
    return reps


def phi_spectra(games) -> list[list[np.ndarray]]:
    """Singular values of Phi_x for x = 1..|G|-1 in canonical order, one list
    per game of `games`, in input order.

    The games are grouped by question shape and by group presentation
    (`Group.presentation`, the integers every table is built from, so equal
    keys give equal tables for any subclass; `describe` is only a JSON
    label), and each group of games is solved from one character table.
    q is real, so Phi_{-x} = conj(Phi_x), and the solver gives the same
    bits on a conjugated matrix: each pair {x, -x} is taken at its first
    member.  Within one game the first members fall into classes of
    matrices with the same multiset of rows, a row being its q row's float
    bits and its integer character exponents, compared exactly;
    matrices equal up to row order have equal singular values, so only the
    first member of each class is solved and the others take its values
    (over GF(q) every Phi_x is a row permutation of Phi_1, so one solve
    serves them all).  No class spans two games, so a game's values never
    depend on the other games of the call; a game with one first member
    forms no keys.  The solved matrices of all games of a group go in
    stacks of at most STACK_ENTRIES matrix entries, or of one larger
    matrix, and each Phi_x is built only when its stack is.  A stacked
    solve gives every matrix the bits of its solo solve.
    """
    classes: dict = {}
    for i, game in enumerate(games):
        classes.setdefault((game.f_idx.shape, game.group.presentation()), []).append(i)
    spectra = [None] * len(games)
    for (shape, _), members in classes.items():
        group = games[members[0]].group
        chars, negation = group.character_table(), group.negation_table()
        exponents = group.character_exponents()
        first = [min(x, int(negation[x])) for x in range(1, group.order)]
        xs = sorted(set(first))
        solved_as = {}
        for i in members:
            reps = _representatives(games[i], exponents, xs)
            solved_as.update(((i, x), (i, rep)) for x, rep in zip(xs, reps))
        jobs = [job for job, rep in solved_as.items() if job == rep]
        per_stack = max(1, STACK_ENTRIES // (shape[0] * shape[1]))
        values = {}
        for start in range(0, len(jobs), per_stack):
            batch = jobs[start : start + per_stack]
            stack = np.empty((len(batch), *shape), dtype=np.complex128)
            for phi, (i, x) in zip(stack, batch):  # Phi_x[u, v] = q(u, v) * chi_x(f(u, v))
                np.multiply(games[i].q, chars[x][games[i].f_idx], out=phi)
            values.update(zip(batch, stacked_singular_values(stack)))
        for i in members:
            spectra[i] = [values[solved_as[i, x]] for x in first]
    return spectra


def phi_norms(game: LinearGame) -> list[float]:
    """Spectral norms ||Phi_x|| for each nonidentity x, in canonical element order."""
    return [float(s[0]) for s in phi_spectra([game])[0]]


def bound_from_norms(order: int, m_a: int, m_b: int, norms) -> float:
    """The quantum bound expression for `order` answers, m_a x m_b questions."""
    return (1.0 + float(np.sqrt(m_a * m_b)) * sum(norms)) / order


def lemma1_bound(game: LinearGame) -> float:
    """Shared-randomness lower bound (1/|G|) * (1 + (|G| - 1)/min(mA, mB))."""
    m = min(game.mA, game.mB)
    n = game.order
    return (1.0 + (n - 1) / m) / n


@dataclass(frozen=True)
class ClassicalOptimum:
    """Optimal deterministic strategy pair and its value.

    `exact` is present whenever the game carries exact input weights.
    `alice`/`bob` hold the answer index per question.
    """

    value: float
    exact: Fraction | None
    alice: tuple[int, ...]
    bob: tuple[int, ...]


def _assignment_digits(ids: np.ndarray, n: int, m: int) -> np.ndarray:
    """Decode assignment ids into answer indices; question 0 varies fastest."""
    powers = n ** np.arange(m, dtype=np.int64)
    return (ids[:, None] // powers[None, :]) % n


def _score_table(weights: np.ndarray, winning: np.ndarray, n: int, table=None) -> np.ndarray:
    """Per (responder's question v, answer g, assignment id), the weight the
    responder wins at v by answering g against that assignment of the questions
    in `weights`; question 0 varies fastest in the id.

    `winning[u, v, a]` is the winning answer to the a-th answer enumerated at
    question u, so a question may enumerate fewer than its n answers, but
    every question of one call the same number.  The questions extend
    `table`, by default the zero table of no questions.  All their masks are
    built in one broadcast, then question u is added as one broadcast, id =
    previous id + (ids so far) * a.
    """
    masks = (winning[:, :, None, :] == np.arange(n)[:, None]) * weights[:, :, None, None]
    if table is None:
        table = np.zeros((weights.shape[1], n, 1), dtype=weights.dtype)
    for mask in masks:
        table = (table[:, :, None] + mask[..., None]).reshape(mask.shape[:2] + (-1,))
    return table


def _smallest(cand: np.ndarray) -> np.ndarray:
    """The row of answer indices with the smallest enumeration id, compared
    digit by digit from the last question, since an id can exceed int64."""
    return cand[np.lexsort(cand.T)[0]]


def over_budget(order: int, m_a: int, m_b: int) -> str | None:
    """Why an exact classical value over `order` answers and m_a x m_b
    questions is over DEFAULT_ENUMERATION_BUDGET, read at the call, or None
    when its order^min(m_a, m_b) assignments fit; a count far above the
    budget is never built."""
    budget = DEFAULT_ENUMERATION_BUDGET
    total = power_above(order, min(m_a, m_b), budget)
    if total is None:
        return None
    player = "Bob" if m_b < m_a else "Alice"
    return f"classical enumeration needs {total} assignments for {player}, the player with fewer questions, over the budget of {budget}"


def classical_value(game: LinearGame) -> ClassicalOptimum:
    """Exact maximum over deterministic strategies.

    The player with fewer questions (Alice when mA <= mB) is enumerated and
    the other best-responds per question.  The win condition a + b = f(u, v)
    is symmetric, so `winning_answers` also gives Alice's winning answer to
    Bob's b.  Moving every enumerated answer by c and every response by -c
    changes no score, so of the |G|^m assignments, m = min(mA, mB), only the
    |G|^(m - 1) whose question-0 answer is the identity are scored, one per
    shift orbit; the budget still counts all |G|^m.

    Scores are L[low digits] + H[high digits], with tables over the first
    lo = max(1, m // 2) questions, question 0 fixed at the identity, and over
    the other questions: O(|G|^ceil(m/2) * m_resp * |G|) to build, then
    O(m_resp * |G|) per scored assignment.  The tables are question-major,
    [responder's question v, answer g, assignment], so a chunk's score is
    the sum over v of max_g (H[v, g, high] + L[v, g, low]), each term a
    broadcast over contiguous rows, added in v order, so float sums do not
    depend on the chunking.  A shifted assignment sums the same terms in the
    same order, so its score has the same bits as its orbit's.  Exact
    weights are scored in the narrowest integer type that holds q_den (see
    the module docstring), float weights in float64.  A chunk holds as many
    scored assignments as fill DEFAULT_CHUNK_BYTES in the score type,
    rounded down to whole blocks of |G|^(lo - 1), at least one; when the
    enumeration is smaller than a chunk, several responder questions share
    one broadcast.  Three chunk-sized buffers are the working memory.

    The result is the optimal Alice assignment with the smallest enumeration
    id (question 0 varies fastest), whichever side is enumerated: the optimal
    Alice assignments are exactly the best responses to optimal Bob
    assignments, and the smallest-id best response takes the smallest optimal
    answer at every question.  The optimal assignments are the shift orbits
    of the tied scored ones.  When Alice is enumerated, an orbit's smallest
    id is its shift with the identity at the last question; when Bob is,
    Alice's best responses are taken against each of his |G| shifts, since
    the smallest-answer tie-break does not commute with the shift.  Bob then
    best-responds to that assignment, ties broken toward the smallest group
    element in canonical order, and the value is scored in that orientation,
    so the result does not depend on the chunking.

    Over the budget, a uniform game passing `_uniform_rank_one` has a perfect
    strategy, and its smallest-id perfect Alice assignment, the identity at
    the last question, is a(u) = f(u, 0) - f(mA - 1, 0); Bob and the value
    follow as above.  Any other game over the budget raises.
    """
    reason = over_budget(game.order, game.mA, game.mB)
    if reason is None:
        alice_idx = _smallest_optimal_alice(game)
    elif np.all(game.q == game.q.flat[0]) and _uniform_rank_one(game):
        alice_idx = game.group.difference(game.f_idx[:, 0], game.f_idx[-1, 0])
    else:
        raise EnumerationBudgetError(reason)
    weights = game.q_num if game.has_exact_q else game.q
    # Bob's winnings per question and answer, from the score table of Alice's
    # one assignment: Bob wins at (u, v) by answering f(u, v) - alice[u].
    winning = game.group.difference(game.f_idx, alice_idx[:, None])
    per_question = _score_table(weights, winning[..., None], game.order)[..., 0]
    value = per_question.max(axis=1).sum()
    alice = tuple(alice_idx.tolist())
    bob = tuple(per_question.argmax(axis=1).tolist())
    if game.has_exact_q:
        exact_value = Fraction(int(value), game.q_den)
        return ClassicalOptimum(float(exact_value), exact_value, alice, bob)
    return ClassicalOptimum(float(value), None, alice, bob)


def _smallest_optimal_alice(game: LinearGame) -> np.ndarray:
    """The smallest-id optimal Alice assignment, found by the enumeration
    `classical_value` describes."""
    n = game.order
    by_bob = game.mB < game.mA
    m_enum = min(game.mA, game.mB)
    weights = game.q_num if game.has_exact_q else game.q
    score_type = weights.dtype
    if game.has_exact_q:  # every score is at most q_den
        ints = (np.int8, np.int16, np.int32, np.int64)
        score_type = np.dtype(next(t for t in ints if np.iinfo(t).max >= game.q_den))
    chunk = DEFAULT_CHUNK_BYTES // score_type.itemsize
    winning = game.winning_answers()
    enum_weights, enum_winning = (
        (weights.T, winning.transpose(1, 0, 2)) if by_bob else (weights, winning)
    )
    enum_weights = enum_weights.astype(score_type)
    # Question 0 is answered by the identity, index 0, so the scored id
    # low + block * high is the assignment id divided by n.
    lo = max(1, m_enum // 2)
    first = _score_table(enum_weights[:1], enum_winning[:1, :, :1], n)
    low = _score_table(enum_weights[1:lo], enum_winning[1:lo], n, first)
    high = _score_table(enum_weights[lo:], enum_winning[lo:], n)
    m_resp, block, n_high = low.shape[0], low.shape[2], high.shape[2]
    step = max(1, chunk // block)
    group = min(m_resp, max(1, chunk // (min(step, n_high) * block)))
    buffers = np.empty((2, group, min(step, n_high), block), score_type)
    add = game.group.addition_table()

    best_val, alice_idx = -1, None  # every value is a sum of weights >= 0
    for start in range(0, n_high, step):
        h = high[:, :, start : start + step, None]
        vals = np.zeros((h.shape[2], block), score_type)
        for v in range(0, m_resp, group):
            hv, lv = h[v : v + group], low[v : v + group, :, None]
            best, other = buffers[:, : len(hv), : len(vals)]
            np.add(hv[:, 0], lv[:, 0], out=best)
            for g in range(1, n):
                np.maximum(best, np.add(hv[:, g], lv[:, g], out=other), out=best)
            for row in best:  # in v order, whatever the group
                vals += row
        top = vals.max()
        if top < best_val:
            continue
        rows = np.flatnonzero(vals == top)
        if by_bob:
            h_ix, l_ix = divmod(rows, block)
            scores = high[:, :, start + h_ix] + low[:, :, l_ix]
            # Against Bob's shift by c, Alice's answer g scores as g + c did.
            cand = np.array([_smallest(scores[:, add[:, c]].argmax(axis=1).T) for c in range(n)])
        else:
            digits = _assignment_digits(n * (rows + start * block), n, m_enum)
            cand = add[digits, game.group.negation_table()[digits[:, -1:]]]
        if top == best_val:
            cand = np.vstack([alice_idx, cand])
        alice_idx = _smallest(cand)
        best_val = top
    return alice_idx


def _uniform_rank_one(game: LinearGame) -> bool:
    """Whether f(u, v) - f(u, 0) - f(0, v) + f(0, 0) = 0 in G for all u, v,
    decided in integers as whether f(u, v) - f(u, 0) is the same for
    every u.

    This holds exactly when a perfect classical strategy exists over a q
    with full support (a(u) = f(u, 0) - f(0, 0), b(v) = f(0, v)), and, since
    the characters separate points, exactly when every Phi_x has rank one.
    For uniform q, ||Phi_x|| <= ||Phi_x||_F = 1/sqrt(mA * mB) with equality
    iff Phi_x has rank one, so it holds exactly when the bound equals 1.
    """
    diff = game.group.difference(game.f_idx, game.f_idx[:, :1])
    return bool(np.all(diff == diff[0]))


@dataclass(frozen=True)
class GameReport:
    """All computed values for one game; serializes to a versioned JSON schema.

    `alice_strategy` and `bob_strategy` hold the coordinate tuple of the
    answer per question.  `rank_phi1` is the numerical rank of Phi_1 alone.
    Over a group whose character 1 is faithful, Z_d or GF(p), rank 1 means a
    perfect classical strategy (Lemma 2); over any other it does not: the
    uniform 2 x 2 game over Z_2 x Z_2 with f = [[0, 0], [0, 2]] has rank 1
    and classical value 3/4.  `pseudo_telepathy_possible` is true when the
    bound does not rule out winning with certainty: for uniform q it is
    decided exactly, over every group, by the integer test
    f(u, v) - f(u, 0) - f(0, v) + f(0, 0) = 0, which holds exactly when the
    bound equals 1 and a perfect classical strategy exists; for any other q
    it reads the float bound as at least 1 - 1e-9.
    """

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
                "alice": [list(el) for el in self.alice_strategy],
                "bob": [list(el) for el in self.bob_strategy],
            },
            "quantum_bound_raw": self.quantum_bound_raw,
            "quantum_bound": self.quantum_bound,
            "norms": list(self.norms),
            "ns_value": self.ns_value,
            "rank_phi1": self.rank_phi1,
            "pseudo_telepathy_possible": self.pseudo_telepathy_possible,
        }


def analyze(games) -> list[GameReport]:
    """Full reports, one per game of `games` in order: classical optimum,
    spectral bound, no-signaling value (the value of the box that answers
    uniformly and wins every question pair, checked exactly in integers).

    Every classical value is found, and so every enumeration budget checked,
    before any spectral solve; the spectra then come from one `phi_spectra`
    call.
    """
    optima = [classical_value(game) for game in games]
    solved = zip(games, optima, phi_spectra(games))
    return [_report(game, optimum, spectra) for game, optimum, spectra in solved]


def _report(game: LinearGame, optimum: ClassicalOptimum, spectra) -> GameReport:
    """Report for `game` from its classical optimum and the singular values
    of its Phi_x.

    Enforces the ordering chain lemma1 <= classical <= min(1, bound) and the
    no-signaling box P(a, b | u, v) = 1/|G| * [b = W[u, v, a]], for
    W = `game.winning_answers()`: every row W[u, v, :] must be a permutation
    of the answers, so both marginals are exactly uniform, and every pair it
    supports must win, a + W[u, v, a] = f(u, v) in the addition table.  Its
    value, sum_{u,v} q(u, v) * sum_a 1/|G|, adds the |G| entries 1/|G| as
    scoring the dense box table would, so it has that score's bits, and must
    be 1 to 1e-12.  A violation means an internal defect and raises.
    """
    rank1 = singular_value_rank(spectra[0], DEFAULT_RANK_TOL)
    norms = [float(s[0]) for s in spectra]
    raw = bound_from_norms(game.order, game.mA, game.mB, norms)
    clamped = min(1.0, raw)
    lemma1 = lemma1_bound(game)
    n = game.order
    ns_value = float((game.q * np.full(n, 1.0 / n).sum()).sum())
    if np.all(game.q == game.q.flat[0]):
        perfect = _uniform_rank_one(game)
    else:
        perfect = raw >= 1.0 - 1e-9

    if optimum.value < lemma1 - 1e-12:
        raise ChainViolationError(
            f"classical value {optimum.value} fell below the shared-randomness "
            f"bound {lemma1}",
            game,
        )
    if optimum.value > clamped + CHAIN_SLACK:
        raise ChainViolationError(
            f"classical value {optimum.value} exceeds the quantum bound {clamped}",
            game,
        )
    winning = game.winning_answers()
    if not np.all(np.sort(winning, axis=2) == np.arange(n)):
        raise ChainViolationError(
            "a row of winning answers is not a permutation, so the no-signaling box signals",
            game,
        )
    if not np.all(game.group.addition_table()[np.arange(n), winning] == game.f_idx[:, :, None]):
        raise ChainViolationError("the no-signaling box supports a losing answer pair", game)
    if abs(ns_value - 1.0) > 1e-12:
        raise ChainViolationError(f"no-signaling winning box scored {ns_value}, not 1", game)

    coords = game.group.coords
    return GameReport(
        group=game.group.describe(),
        mA=game.mA,
        mB=game.mB,
        order=game.order,
        lemma1_bound=lemma1,
        classical_value=optimum.value,
        classical_value_exact=optimum.exact,
        alice_strategy=tuple(map(tuple, coords[list(optimum.alice)].tolist())),
        bob_strategy=tuple(map(tuple, coords[list(optimum.bob)].tolist())),
        quantum_bound_raw=raw,
        quantum_bound=clamped,
        norms=tuple(norms),
        ns_value=ns_value,
        rank_phi1=rank1,
        pseudo_telepathy_possible=perfect,
    )
