"""Independent oracle implementations used to check library results.

Everything here deliberately avoids the code paths under test: norms come
from power iteration, classical optima from full double enumeration over
both players, win probabilities from direct sums over the constraint set,
the rank-1 test of Phi_1 from exact 2 x 2 minors in integers, the NLC
building blocks and Fourier vectors entry by entry from `cmath`, and NLC
prefix weights and game tables one `Fraction` per entry.
`alice_side_classical_value` walks all of Alice's assignments whichever
player has fewer questions; `classical_value` must match it strategy for
strategy.  `response_scores` is the one-hot einsum formula for the
responder's winnings per question and answer, which `classical_value`
must match bit for bit, and `score_table_by_question` is the per-question
loop that `bounds._score_table` replaced with one broadcast of all masks.

Element objects, which the library does not have (an element there is its
index): `GroupElement`, the coordinate tuple of an element of a product of
cyclic groups, and `FieldElement`, the coefficient tuple of an element of
GF(p^r) tagged with its field's (p, r, modulus), whose `int()` is the
encoding sum_i c_i * p^i; `elements(group)` lists them in canonical index
order, from `itertools.product`, never from the group's coordinate array.

Reference formulas for the group, field, bound and box facts tests check,
on element objects:
- `add(group, x, y)` and `neg(group, x)`: over a product of cyclic groups,
  coordinates added or negated modulo `group.factors`; over a field,
  coefficients added or negated mod p, after checking that x and y belong
  to that field;
- `mul(field, a, b)`: the sum of b_j * (a * x^j) over the coefficients of
  b, each a * x^j one shift of a's coefficient tuple and one subtraction of
  its top coefficient times the modulus, never the polynomial long division
  that `FiniteField.multiplication_table` uses;
- `power(field, a, e)`: a^e by square and multiply through `mul`;
- `trace(field, a)`: the Frobenius sum a + a^p + ... + a^(p^(r-1)) through
  `power` and `add`, never the companion matrix of `FiniteField.trace_form`;
- `inv(field, a)`: `power(field, a, field.order - 2)`, after checking that a
  is not zero;
- `quantum_bound(game)`: `bound_from_norms` of the game's `phi_norms`,
  unclamped;
- `game_matrix(game, chars, x)`: Phi_x[u, v] = q(u, v) * chi_x(f(u, v)),
  read from the character table `chars`, the product `phi_spectra` stacks;
- `character(group, a, x)`: over a product of cyclic groups, the product of
  exp(2*pi*i * a_j * x_j / n_j) over `group.factors` and element coordinates;
  over a field, exp(2*pi*i * Tr(a*x) / p) through `mul`
  and `trace`, never the pairing matrix that `character_table` is built
  from;
- `sub(group, x, y)`: `add(group, x, neg(group, y))`;
- `strategy_box(game, alice, bob)`: the deterministic box with a 1 at
  (u, v, alice[u], bob[v]), set entry by entry, from answer indices or
  coordinate lists;
- `ns_winning_box(game)`: the no-signaling box, 1/|G| at every (a, b) with
  a + b = f(u, v), set entry by entry through `add`;
- `evaluate_box(game, box)`: a box's game value, its entries at
  `winning_answers()` summed over a, the dense scoring whose bits
  `analyze`'s closed-form `ns_value` must reproduce;
- `signaling_defect(box)`: the largest variation of either party's marginal
  across the other party's question, from explicit sums over the table.

Boxes, which the library does not have, are numpy arrays of shape
(mA, mB, |G|, |G|) with axes (u, v, a, b), each entry P(a, b | u, v).

Games the library does not build: `random_f_game(group, rng, m_a, m_b)`,
a uniform game over any group, f drawn as `random_xor_game` draws it over
Z_d, rectangular shapes included; and `product_game(g, h)`, the two games
played at once over `ProductGroup(G, H)`, whose Phi_(x, y) is the Kronecker
product of Phi_x and Psi_y.

The Fourier correlators <A_u^x B_v^y> of a box, which no report reads, live
here as tests of the library's character table: `correlators_from_box`,
its inverse `box_from_correlators` and `win_prob_from_correlators`, each
one einsum or sum over `character_table()`, return complex arrays and
numbers whose imaginary parts the tests' absolute differences bound.
`correlators_directly` is the same transform as explicit loops over
`character`, and `seeded_box` draws a box from a `SplitMix64`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nlgames.algebra import FiniteField, Group
from nlgames.bounds import ClassicalOptimum, bound_from_norms, phi_norms
from nlgames.games import GameValidationError, LinearGame
from nlgames.nlc import NlcValidationError


@dataclass(frozen=True)
class GroupElement:
    """Element of a product of cyclic groups, as its coordinate tuple."""

    coords: tuple[int, ...]


@dataclass(frozen=True)
class FieldElement:
    """Element of GF(p^r): little-endian coefficients, tagged with the
    field's (p, r, modulus), so elements of different fields differ."""

    field: tuple
    coeffs: tuple[int, ...]

    def __int__(self) -> int:
        """The integer encoding sum_i c_i * p^i, the element's index."""
        return sum(c * self.field[0] ** i for i, c in enumerate(self.coeffs))


def _key(field) -> tuple:
    return field.p, field.r, field.modulus


def elements(group) -> tuple:
    """Element objects in canonical index order: coordinate tuples with the
    last coordinate fastest, or coefficient tuples with the first fastest."""
    if not isinstance(group, FiniteField):
        return tuple(map(GroupElement, itertools.product(*(range(n) for n in group.factors))))
    digits = itertools.product(range(group.p), repeat=group.r)
    return tuple(FieldElement(_key(group), c[::-1]) for c in digits)


def character(group, a, x) -> complex:
    """chi_a(x): over a product of cyclic groups, the product of the roots
    exp(2*pi*i * a_j*x_j / n_j), taken as one power of exp(2*pi*i / N) with
    N = lcm(n_j); over a field, the trace character exp(2*pi*i * Tr(a*x) / p)."""
    if isinstance(group, FiniteField):
        return cmath.exp(2j * cmath.pi * trace(group, mul(group, a, x)) / group.p)
    big_n = math.lcm(*group.factors)
    m = sum(a_j * x_j * (big_n // n) for a_j, x_j, n in zip(a.coords, x.coords, group.factors))
    return cmath.exp(2j * cmath.pi * (m % big_n) / big_n)


def _coefficients(group, x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The coordinates of x and the modulus of each: the cyclic factors, or
    p for every coefficient of a field element, which must belong to the
    field."""
    if isinstance(group, FiniteField):
        if not isinstance(x, FieldElement) or x.field != _key(group):
            raise ValueError(f"field mismatch: {x!r} does not belong to {group!r}")
        return x.coeffs, (group.p,) * group.r
    if len(x.coords) != len(group.factors):
        raise ValueError(f"element {x.coords} does not match factor list {group.factors}")
    return x.coords, group.factors


def _element(group, coords):
    """The element object with these reduced coordinates."""
    return FieldElement(_key(group), coords) if isinstance(group, FiniteField) else GroupElement(coords)


def add(group, x, y):
    """x + y in the group, coordinate by coordinate."""
    (a, moduli), (b, _) = _coefficients(group, x), _coefficients(group, y)
    return _element(group, tuple((i + j) % n for i, j, n in zip(a, b, moduli)))


def neg(group, x):
    """-x in the group, coordinate by coordinate."""
    a, moduli = _coefficients(group, x)
    return _element(group, tuple((-i) % n for i, n in zip(a, moduli)))


def sub(group, x, y):
    """x - y in the group."""
    return add(group, x, neg(group, y))


def _times_x(field, c: tuple[int, ...]) -> tuple[int, ...]:
    """c * x: the coefficients shifted up one place, with x^r replaced by
    minus the modulus's lower coefficients."""
    top, shifted = c[-1], (0, *c[:-1])
    return tuple((s - top * m) % field.p for s, m in zip(shifted, field.modulus))


def mul(field, a, b):
    """a * b in GF(p^r), as the sum of b_j * (a * x^j)."""
    (a, _), (b, _) = _coefficients(field, a), _coefficients(field, b)
    total = (0,) * field.r
    for b_j in b:
        total = tuple((s + b_j * t) % field.p for s, t in zip(total, a))
        a = _times_x(field, a)
    return _element(field, total)


def power(field, a, e: int):
    """a^e for an integer e >= 0, by square and multiply."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    result, base = elements(field)[1], a
    while e:
        if e & 1:
            result = mul(field, result, base)
        base = mul(field, base, base)
        e >>= 1
    return result


def trace(field, a) -> int:
    """Tr(a) = a + a^p + ... + a^(p^(r-1)), as an integer mod p."""
    total = term = a
    for _ in range(field.r - 1):
        term = power(field, term, field.p)
        total = add(field, total, term)
    if any(total.coeffs[1:]):
        raise ArithmeticError(f"trace of {a!r} landed outside the prime subfield")
    return total.coeffs[0]


def inv(field, a):
    """The multiplicative inverse a^(q - 2) of a nonzero a in GF(q)."""
    if a == elements(field)[0]:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return power(field, a, field.order - 2)


def quantum_bound(game) -> float:
    """Upper bound on the quantum value; may exceed 1 (reports clamp it)."""
    return bound_from_norms(game.order, game.mA, game.mB, phi_norms(game))


def game_matrix(game, chars, x: int) -> np.ndarray:
    """Phi_x[u, v] = q(u, v) * chi_x(f(u, v)), from the character table `chars`."""
    return game.q * chars[x][game.f_idx]


def strategy_box(game, alice, bob) -> np.ndarray:
    """Deterministic box from assignments a: Q_A -> G and b: Q_B -> G, given
    as answer indices or coordinate lists."""
    group = game.group
    a_idx = [group.element(x) for x in alice]
    b_idx = [group.element(x) for x in bob]
    assert (len(a_idx), len(b_idx)) == (game.mA, game.mB)
    table = np.zeros((game.mA, game.mB, game.order, game.order))
    for u in range(game.mA):
        for v in range(game.mB):
            table[u, v, a_idx[u], b_idx[v]] = 1.0
    return table


def ns_winning_box(game) -> np.ndarray:
    """The no-signaling box of the paper: P(a, b | u, v) = 1/|G| when
    a + b = f(u, v), else 0, set entry by entry through `add`."""
    group = game.group
    els = elements(group)
    n = game.order
    table = np.zeros((game.mA, game.mB, n, n))
    for u in range(game.mA):
        for v in range(game.mB):
            target = els[game.f_idx[u, v]]
            for ia, a in enumerate(els):
                for ib, b in enumerate(els):
                    if add(group, a, b) == target:
                        table[u, v, ia, ib] = 1.0 / n
    return table


def evaluate_box(game, box) -> float:
    """Game value sum_{u,v} q(u, v) * P(a + b = f(u, v) | u, v): the box's
    entries at Bob's winning answers `game.winning_answers()` summed over
    Alice's answer, then weighted by q and summed; on the no-signaling box,
    `analyze`'s closed-form `ns_value` must match it bit for bit."""
    u_ix = np.arange(game.mA)[:, None, None]
    v_ix = np.arange(game.mB)[None, :, None]
    a_ix = np.arange(game.order)[None, None, :]
    wins = box[u_ix, v_ix, a_ix, game.winning_answers()].sum(axis=2)
    return float((game.q * wins).sum())


def signaling_defect(box) -> float:
    """Largest change of P(a | u, v) over v, or of P(b | u, v) over u."""
    t = box
    m_a, m_b, n, _ = t.shape
    defect = 0.0
    for u in range(m_a):
        for a in range(n):
            alice = [sum(t[u, v, a, b] for b in range(n)) for v in range(m_b)]
            defect = max(defect, max(alice) - min(alice))
    for v in range(m_b):
        for b in range(n):
            bob = [sum(t[u, v, a, b] for a in range(n)) for u in range(m_a)]
            defect = max(defect, max(bob) - min(bob))
    return float(defect)


def chsh_phi(d: int, k: int) -> np.ndarray:
    """Game matrix of CHSH over Z_d (prime d): entries w^(k*u*v) / d^2."""
    w = np.exp(2j * np.pi / d)
    u = np.arange(d)
    return (w ** ((k * np.outer(u, u)) % d)) / (d * d)


def fourier_vector(d: int, j: int) -> np.ndarray:
    """Fourier vector (1, w^j, ..., w^((d-1)j)) with w = exp(2*pi*i/d)."""
    return np.array([cmath.exp(2j * cmath.pi * (j * x) / d) for x in range(d)])


def building_block_matrix(d: int, k: int, t: int) -> np.ndarray:
    """Unnormalized single-dit NLC block with entries w^(k*t*(x+y mod d))."""
    return np.array(
        [[cmath.exp(2j * cmath.pi * (k * t * ((x + y) % d)) / d) for y in range(d)] for x in range(d)]
    )


def power_iteration_norm(a, iters: int = 5000, seed: int = 7) -> float:
    """Spectral norm via power iteration on A^H A with a Rayleigh quotient."""
    a = np.asarray(a, dtype=np.complex128)
    h = a.conj().T @ a
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = h @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    rayleigh = float(np.real(v.conj() @ h @ v))
    return float(np.sqrt(max(rayleigh, 0.0)))


def phi1_rank_at_most_one(game) -> bool:
    """Exact test of rank(Phi_1) <= 1 for a game over Z_d with exact weights.

    Phi_1 has entries q(u, v) * w^f(u, v) with w a primitive d-th root of
    unity, so the 2 x 2 minor on rows u, u' and columns v, v' vanishes
    exactly when q(u,v) q(u',v') = q(u,v') q(u',v) and either that product
    is 0 or f(u,v) + f(u',v') = f(u,v') + f(u',v) mod d.  Integers only.
    """
    d = game.order
    q = game.q_num.tolist()
    f = game.f_idx.tolist()
    for u, u2 in itertools.combinations(range(game.mA), 2):
        for v, v2 in itertools.combinations(range(game.mB), 2):
            product = q[u][v] * q[u2][v2]
            if product != q[u][v2] * q[u2][v]:
                return False
            if product and (f[u][v] + f[u2][v2] - f[u][v2] - f[u2][v]) % d:
                return False
    return True


def random_f_game(group, rng, m_a: int, m_b: int, exact: bool = True) -> LinearGame:
    """A uniform m_a x m_b game over `group`, f drawn row-major from a
    `SplitMix64`, one `randbelow(order)` each, as `random_xor_game` draws
    over Z_d; q exact, or as floats."""
    f = np.array([[rng.randbelow(group.order) for _ in range(m_b)] for _ in range(m_a)])
    if exact:
        return LinearGame(group, f, q_num=np.ones_like(f), q_den=f.size)
    return LinearGame(group, f, q=np.full(f.shape, 1.0 / f.size))


class ProductGroup(Group):
    """G x H as one `Group`: the moduli of G, then those of H; place values
    (place_G * |H|, place_H), so that (x, y) has index x * |H| + y; and the
    block-diagonal pairing, each block scaled to the common exponent, so
    that chi_(a, b)(x, y) = chi_a(x) * chi_b(y).  The moduli are passed as
    numpy arrays."""

    def __init__(self, first: Group, second: Group):
        self.parts = (first, second)
        big_n = math.lcm(first._exponent, second._exponent)
        k = len(first._moduli)
        pairing = np.zeros((k + len(second._moduli),) * 2, dtype=np.int64)
        pairing[:k, :k] = first._pairing * (big_n // first._exponent)
        pairing[k:, k:] = second._pairing * (big_n // second._exponent)
        super().__init__(
            moduli=np.concatenate([first._moduli, second._moduli]),
            place=np.concatenate([first._place * second.order, second._place]),
            pairing=pairing,
        )

    def describe(self) -> dict:
        return {"product": [part.describe() for part in self.parts]}


def product_game(first, second) -> LinearGame:
    """The product of two exact games: questions (u1, u2) at index
    u1 * mA2 + u2 and (v1, v2) at v1 * mB2 + v2, f = f1 * |H| + f2 over
    `ProductGroup`, and q_num the outer product, so that Phi_(x, y) is the
    Kronecker product of Phi_x and Psi_y."""
    f = first.f_idx[:, None, :, None] * second.order + second.f_idx[None, :, None, :]
    shape = (first.mA * second.mA, first.mB * second.mB)
    group = ProductGroup(first.group, second.group)
    q_num = np.kron(first.q_num, second.q_num)
    return LinearGame(group, f.reshape(shape), q_num=q_num, q_den=first.q_den * second.q_den)


def random_box_table(rng, m_a: int, m_b: int, n: int) -> np.ndarray:
    t = rng.random((m_a, m_b, n, n))
    return t / t.sum(axis=(2, 3), keepdims=True)


def direct_win_sum(game, box, u: int, v: int) -> float:
    """P(a + b = f(u,v) | u,v) summed straight off the box table."""
    group = game.group
    els = elements(group)
    target = els[game.f_idx[u, v]]
    total = 0.0
    for ia, a in enumerate(els):
        for ib, b in enumerate(els):
            if add(group, a, b) == target:
                total += box[u, v, ia, ib]
    return total


def evaluate_box_directly(game, box) -> float:
    return sum(
        game.q[u, v] * direct_win_sum(game, box, u, v)
        for u in range(game.mA)
        for v in range(game.mB)
    )


def double_enumeration_optimum(game):
    """Exact classical optimum over all (Alice, Bob) assignment pairs.

    Exponential in mA + mB; only for small cross-check instances.
    """
    group = game.group
    n = group.order
    add = group.addition_table()
    best = -1.0
    for alice in itertools.product(range(n), repeat=game.mA):
        for bob in itertools.product(range(n), repeat=game.mB):
            score = 0.0
            for u in range(game.mA):
                for v in range(game.mB):
                    if add[alice[u], bob[v]] == game.f_idx[u, v]:
                        score += game.q[u, v]
            if score > best:
                best = score
    return best


def response_scores(game, alice_idx) -> np.ndarray:
    """S[v, g] = the weight Bob wins at question v by answering g against
    Alice's answer indices `alice_idx`, as a one-hot einsum over her
    questions: exact numerators for exact games, floats otherwise."""
    weights = game.q_num if game.has_exact_q else game.q
    assign = np.asarray(alice_idx)[None, :]
    u_ix = np.arange(game.mA)[None, :, None]
    v_ix = np.arange(game.mB)[None, None, :]
    diff = game.winning_answers()[u_ix, v_ix, assign[:, :, None]]
    onehot = (diff[..., None] == np.arange(game.order)).astype(weights.dtype)
    return np.einsum("uv,cuvg->cvg", weights, onehot)[0]


def score_table_by_question(weights, winning, n: int, table=None) -> np.ndarray:
    """`bounds._score_table` with each question's mask built on its own, in
    the question loop: the same adds in the same order."""
    if table is None:
        table = np.zeros((weights.shape[1], n, 1), dtype=weights.dtype)
    answers = np.arange(n)[:, None]
    for w, win in zip(weights[:, :, None, None], winning):
        wins = (win[:, None] == answers) * w
        table = (table[:, :, None] + wins[..., None]).reshape(wins.shape[:2] + (-1,))
    return table


def alice_side_classical_value(game) -> ClassicalOptimum:
    """Exact optimum by walking all |G|^mA of Alice's assignments, no budget.

    Bob best-responds per question, ties broken toward the smallest group
    element; among equally good Alice assignments the smallest enumeration id
    (question 0 varies fastest) wins.
    """
    n = game.order
    total = n**game.mA
    exact = game.has_exact_q
    weights = game.q_num if exact else game.q
    winning = game.winning_answers()
    u_ix = np.arange(game.mA)[None, :, None]
    v_ix = np.arange(game.mB)[None, None, :]
    targets = np.arange(n)
    powers = n ** np.arange(game.mA, dtype=np.int64)

    def bob_scores(ids):
        assign = (ids[:, None] // powers[None, :]) % n
        diff = winning[u_ix, v_ix, assign[:, :, None]]
        onehot = (diff[..., None] == targets).astype(weights.dtype)
        return assign, np.einsum("uv,cuvg->cvg", weights, onehot)

    best_val = None
    best_id = -1
    chunk = 4096
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        _, per_question = bob_scores(ids)
        vals = per_question.max(axis=2).sum(axis=1)
        i = int(np.argmax(vals))
        if best_val is None or vals[i] > best_val:
            best_val = vals[i]
            best_id = start + i

    assign, per_question = bob_scores(np.array([best_id], dtype=np.int64))
    bob_idx = per_question[0].argmax(axis=1)
    alice = tuple(assign[0].tolist())
    bob = tuple(bob_idx.tolist())
    if exact:
        exact_value = Fraction(int(best_val), game.q_den)
        return ClassicalOptimum(float(exact_value), exact_value, alice, bob)
    return ClassicalOptimum(float(best_val), None, alice, bob)


def correlators_directly(game, box) -> np.ndarray:
    """Elementwise Fourier transform of the box, written as explicit loops."""
    group = game.group
    n = group.order
    out = np.zeros((game.mA, game.mB, n, n), dtype=np.complex128)
    els = elements(group)
    for u in range(game.mA):
        for v in range(game.mB):
            for ix, x in enumerate(els):
                for iy, y in enumerate(els):
                    acc = 0.0 + 0.0j
                    for ia, a in enumerate(els):
                        for ib, b in enumerate(els):
                            acc += (
                                np.conj(character(group, x, a))
                                * np.conj(character(group, y, b))
                                * box[u, v, ia, ib]
                            )
                    out[u, v, ix, iy] = acc
    return out


def correlators_from_box(game, box) -> np.ndarray:
    """<A_u^x B_v^y> = sum_{a,b} conj(chi_x(a)) conj(chi_y(b)) P(a, b | u, v),
    shape (mA, mB, n, n) with axes (u, v, x, y)."""
    chars = game.group.character_table()
    return np.einsum("xa,yb,uvab->uvxy", chars.conj(), chars.conj(), box)


def box_from_correlators(game, values) -> np.ndarray:
    """P(a, b | u, v) = (1/n^2) sum_{x,y} chi_a(x) chi_b(y) <A_u^x B_v^y>."""
    chars = game.group.character_table()
    return np.einsum("xa,yb,uvxy->uvab", chars, chars, values) / game.order**2


def win_prob_from_correlators(game, values, u: int, v: int) -> complex:
    """P(a + b = f(u,v) | u,v) = (1/n) sum_x chi_f(u,v)(x) <A_u^x B_v^x>."""
    chars = game.group.character_table()
    return complex(chars[:, game.f_idx[u, v]] @ values[u, v].diagonal()) / game.order


def seeded_box(rng, m_a: int, m_b: int, n: int) -> np.ndarray:
    """A box of 53-bit SplitMix64 draws plus 1e-9, normalized per question."""
    scale = float(1 << 53)
    t = np.empty((m_a, m_b, n, n))
    for idx in np.ndindex(t.shape):
        t[idx] = (rng.next_uint64() >> 11) / scale + 1e-9
    return t / t.sum(axis=(2, 3), keepdims=True)


def prefix_fractions(spec) -> tuple[Fraction, ...]:
    """An NLC spec's prefix weights p_num / p_den, one `Fraction` each."""
    return tuple(Fraction(num, spec.p_den) for num in spec.p_num)


def fraction_prefix_weights(p, size: int) -> tuple[tuple[int, ...], int]:
    """An NLC spec's prefix weights read one `Fraction` per entry: integer
    numerators over the least common denominator, or the NlcValidationError
    naming the first bad entry (a bool or a zero denominator among them), then
    the first inexact one, the count, a negative weight or the sum, in that
    order."""
    weights = []
    for entry in p:
        if isinstance(entry, Fraction):
            weights.append(entry)
        elif isinstance(entry, (int, np.integer)) and not isinstance(entry, bool):
            weights.append(Fraction(int(entry)))
        elif isinstance(entry, (float, np.floating)):
            weights.append(float(entry))
        elif (
            isinstance(entry, (tuple, list))
            and len(entry) == 2
            and all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in entry)
            and entry[1] != 0
        ):
            weights.append(Fraction(int(entry[0]), int(entry[1])))
        else:
            raise NlcValidationError(
                f"prefix probabilities must be exact rationals: invalid probability entry {entry!r}"
            )
    inexact = [w for w in weights if not isinstance(w, Fraction)]
    if inexact:
        raise NlcValidationError(f"prefix probabilities must be exact rationals, not {inexact[0]!r}")
    if len(weights) != size:
        raise NlcValidationError(f"p must have {size} entries to match the prefix strings")
    if any(w < 0 for w in weights):
        raise NlcValidationError("prefix probabilities must be nonnegative")
    if sum(weights) != 1:
        raise NlcValidationError(f"prefix distribution sums to {sum(weights)}, not 1")
    den = math.lcm(*(w.denominator for w in weights))
    return tuple(int(w * den) for w in weights), den


def _fraction_weight(entry) -> Fraction | float:
    """One q entry read on its own; a [num, 0] pair fails as its Fraction does."""
    if isinstance(entry, Fraction):
        return entry
    if isinstance(entry, bool):
        raise GameValidationError(f"invalid probability entry {entry!r}")
    if isinstance(entry, (int, np.integer)):
        return Fraction(int(entry))
    if isinstance(entry, (float, np.floating)):
        return float(entry)
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        num, den = entry
        if isinstance(num, (int, np.integer)) and isinstance(den, (int, np.integer)):
            return Fraction(int(num), int(den))
    raise GameValidationError(f"invalid probability entry {entry!r}")


def _f_entry(group, entry) -> int:
    if isinstance(entry, bool):
        raise ValueError(f"{entry!r} is not a group element")
    return group.element(entry)


def fraction_game_tables(group, q, f) -> LinearGame:
    """A game read from outside tables one entry at a time: a `Fraction` per
    exact q entry, scaled to the least common denominator one multiply each,
    and `group.element(entry)` per f entry, a bool rejected first.  An exact
    entry outside [-1, 1] is named as a negative or an over-unit sum."""
    rows = [list(row) for row in q]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise GameValidationError("q must be a rectangular, nonempty table")
    weights = [[_fraction_weight(entry) for entry in row] for row in rows]
    try:
        f_idx = np.array([[_f_entry(group, entry) for entry in row] for row in f], dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise GameValidationError(f"invalid winning-function entry: {exc}") from exc
    flat = [w for row in weights for w in row]
    if all(isinstance(w, Fraction) for w in flat):
        if max(map(abs, flat)) > 1:
            if min(flat) < 0:
                raise GameValidationError("input probabilities must be nonnegative")
            raise GameValidationError(f"input distribution sums to {sum(flat)}, not 1")
        den = math.lcm(*(w.denominator for w in flat))
        if den <= 10**15:
            q_num = np.array([[int(w * den) for w in row] for row in weights], dtype=np.int64)
            return LinearGame(group=group, f_idx=f_idx, q_num=q_num, q_den=den)
    q_float = np.array([[float(w) for w in row] for row in weights], dtype=np.float64)
    return LinearGame(group=group, f_idx=f_idx, q=q_float)
