"""Finite Abelian groups, their characters, and small finite fields.

Answers in a linear game live in a finite Abelian group, and the spectral
bound on the quantum value needs the group's characters.  Two structures
cover everything in scope: direct products of cyclic groups, whose
characters are products of roots of unity, and fields GF(p^r), each the
group of its addition, whose characters go through the field trace.
Everything here is immutable after construction and safe for concurrent
use.  An element is its canonical index; `element` parses an index or
coordinates into one.
"""

from __future__ import annotations

import cmath
import itertools
from math import lcm, prod

import numpy as np

__all__ = [
    "Group",
    "FiniteAbelianGroup",
    "FiniteField",
    "is_prime",
    "power_above",
]

# Desk-scale caps: keep exhaustive irreducibility searches and full element
# enumerations trivially cheap.
MAX_EXTENSION_DEGREE = 4
MAX_ORDER = 4096


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale orders."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


def power_above(base: int, exponent: int, cap: int) -> str | None:
    """None when base**exponent is at most `cap` or base < 2, else the power
    as text: its digits when it fits 64 bits, else "base^exponent".  Past
    exponent cap.bit_length() the power is over the cap and never built."""
    if base < 2:
        return None
    if exponent > cap.bit_length():
        return f"{base}^{exponent}"
    power = base**exponent
    if power <= cap:
        return None
    return str(power) if power.bit_length() <= 64 else f"{base}^{exponent}"


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _int_coordinates(value) -> tuple[int, ...]:
    """A coordinate sequence as ints; a bool, float or string coordinate is
    an error, not a number to round, and so is a value that is no sequence."""
    try:
        coords = tuple(value)
    except TypeError:
        raise ValueError(f"{value!r} is not a group element") from None
    for c in coords:
        if not _is_int(c):
            raise ValueError(f"coordinate {c!r} of {list(coords)!r} is not an integer")
    return tuple(map(int, coords))


class Group:
    """Finite Abelian group presented by integer tables; an element is its
    index, 0..order-1, with the identity at 0.

    A subclass states its arithmetic once, as integers, by calling
    `Group.__init__` with:

    - `moduli`, the k coordinate moduli (addition is componentwise mod these);
    - `place`, k place values that are the mixed radix of `moduli`: taken in
      increasing order, the first is 1 and each next one is the previous
      times its modulus, so that index == coords @ place;
    - `pairing`, a k x k integer matrix P, so that the character indexed by
      a is chi_a(x) = exp(2*pi*i * (a P x^T mod N) / N) for the exponent N.

    The rest derives from these: `order` is the product of the moduli, row i
    of the read-only `coords` holds the coordinates of element i, the
    exponent N is the lcm of the moduli, and every table is array arithmetic
    on them, so a group is its integer tables; the subclass adds `element`,
    which parses an index or coordinates into an index, and `describe`, and
    a field its product and trace form.  The index orders tables, boxes, and
    tie-breaking.
    """

    order: int
    coords: np.ndarray

    def __init__(self, moduli, place, pairing):
        self._moduli = np.array(moduli, dtype=np.int64)
        self._place = np.array(place, dtype=np.int64)
        self._pairing = np.array(pairing, dtype=np.int64)
        self.order = int(prod(moduli))
        self.coords = np.arange(self.order)[:, None] // self._place % self._moduli
        self.coords.setflags(write=False)
        self._exponent = lcm(*moduli)
        self._addition = self._negation = self._exponents = None

    def element(self, value) -> int:
        """The index of an element given as an int index or coordinates."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-compatible descriptor of the group."""
        raise NotImplementedError

    def presentation(self) -> tuple:
        """The integer arithmetic given to `Group.__init__`, as a hashable
        key: groups with equal keys have equal tables and characters."""
        return tuple((a.shape, a.tobytes()) for a in (self._moduli, self._place, self._pairing))

    def addition_table(self) -> np.ndarray:
        """Index table T[i, j] of element i plus element j; built on the
        first call and kept, read-only."""
        if self._addition is None:
            table = np.zeros((self.order, self.order), dtype=np.int64)
            for c, modulus, place in zip(self.coords.T, self._moduli, self._place):
                table += (c[:, None] + c[None, :]) % modulus * place
            table.setflags(write=False)
            self._addition = table
        return self._addition

    def negation_table(self) -> np.ndarray:
        """Index table T[i] of minus element i; built on the first call and
        kept, read-only."""
        if self._negation is None:
            table = (-self.coords) % self._moduli @ self._place
            table.setflags(write=False)
            self._negation = table
        return self._negation

    def difference(self, x, y) -> np.ndarray:
        """Index of element x minus element y, elementwise over broadcast
        index arrays, from their coordinates; no table is built."""
        return (self.coords[x] - self.coords[y]) % self._moduli @ self._place

    def subtraction_table(self) -> np.ndarray:
        """Index table T[i, j] of element i minus element j."""
        return self.addition_table()[:, self.negation_table()]

    def character_exponents(self) -> np.ndarray:
        """Integer table E[i, j] = a_i P a_j^T mod N, so that character i at
        element j is exp(2*pi*i * E[i, j] / N), in the narrowest unsigned
        type that holds N - 1; built on the first call and kept, read-only."""
        if self._exponents is None:
            c, big_n = self.coords, self._exponent
            table = (c @ self._pairing @ c.T % big_n).astype(np.min_scalar_type(big_n - 1))
            table.setflags(write=False)
            self._exponents = table
        return self._exponents

    def character_table(self) -> np.ndarray:
        """Matrix X[i, j] = character i evaluated at element j."""
        big_n = self._exponent
        roots = np.array([cmath.exp(2j * cmath.pi * m / big_n) for m in range(big_n)])
        return roots[self.character_exponents()]


class FiniteAbelianGroup(Group):
    """Direct product Z_{n_1} x ... x Z_{n_k} with componentwise addition.

    Elements are indexed by their coordinate tuples in lexicographic order
    (last coordinate fastest), so the all-zero identity has index 0.  The
    character indexed by a is chi_a(x) = prod_j exp(2*pi*i * a_j*x_j / n_j);
    this fixes one isomorphism between the group and its dual.  The spectral
    bound summed over all nontrivial characters does not depend on that
    choice.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a finite Abelian group needs at least one cyclic factor")
        for i, n in enumerate(factors):
            if not (_is_int(n) and n >= 2):
                raise ValueError(f"cyclic factors must all be integers >= 2, got factors[{i}] = {n!r}")
        factors = tuple(map(int, factors))
        # Every factor is >= 2, so past 64 factors the order is 2^64 or more.
        order = prod(factors) if len(factors) <= 64 else 1 << 64
        if order > MAX_ORDER:
            size = order if order < 1 << 64 else f"2^64 or more, of {len(factors)} factors,"
            raise ValueError(f"group order {size} exceeds the supported cap {MAX_ORDER}")
        self.factors = factors
        big_n = lcm(*factors)
        super().__init__(
            moduli=factors,
            place=[prod(factors[j + 1 :]) for j in range(len(factors))],
            pairing=np.diag([big_n // n for n in factors]),
        )

    def __repr__(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)

    def element(self, value) -> int:
        """The index of an element given as an int index or a coordinate
        sequence, each coordinate reduced mod its factor."""
        if _is_int(value):
            if not 0 <= value < self.order:
                raise ValueError(f"element index {value} out of range for {self!r}")
            return int(value)
        coords = _int_coordinates(value)
        if len(coords) != len(self.factors):
            raise ValueError(
                f"coordinate tuple {coords} does not match factor list {self.factors}"
            )
        index = 0
        for c, n in zip(coords, self.factors):
            index = index * n + c % n
        return index

    def describe(self) -> dict:
        return {"factors": list(self.factors)}


def _poly_mul_mod(a, b, modulus, p):
    """Product of little-endian coefficient tuples, reduced mod (modulus, p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, modulus, p)


def _poly_rem(a, b, p):
    """Remainder of a by monic b, both little-endian tuples over Z_p."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return tuple(a[:db])


def _is_irreducible(poly, p) -> bool:
    """Whether monic `poly` of degree r >= 1 over Z_p is irreducible: no monic
    polynomial of degree 1..r//2 divides it, as a reducible one has a monic
    factor of degree at most r/2."""
    r = len(poly) - 1
    return all(
        any(_poly_rem(poly, (*tail, 1), p))
        for k in range(1, r // 2 + 1)
        for tail in itertools.product(range(p), repeat=k)
    )


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over Z_p.

    Candidates are ordered by their non-leading coefficients read from x^(r-1)
    down to x^0, that is by the base-p integer they encode with the x^(r-1)
    coefficient as the most significant digit, so the result is the same on
    every platform.  One exists for every r >= 1.
    """
    candidates = ((*reversed(tail), 1) for tail in itertools.product(range(p), repeat=r))
    return next(poly for poly in candidates if _is_irreducible(poly, p))


class FiniteField(Group):
    """GF(p^r) as polynomial residues modulo a fixed irreducible polynomial,
    and as a `Group`, its additive group: the answer group of field games.

    The modulus is the lexicographically smallest monic irreducible
    polynomial of degree r over Z_p, so fields are reproducible across runs
    and two fields of one order have the same tables.  An element is its
    integer encoding sum_i c_i * p^i, with 0 first and the multiplicative
    unit at 1: the group has moduli p and place values p^i, so row m of
    `coords` holds the little-endian coefficients c_i of element m, and its
    exponent is p.  The character indexed by k is the trace character
    chi_k(x) = exp(2*pi*i * Tr(k*x) / p), which is what the closed-form norm
    computations assume.  The size cap is checked before primality, whose
    trial division takes about a minute for a p near 10^18.
    """

    def __init__(self, p: int, r: int = 1):
        for name, value in (("p", p), ("r", r)):
            if not _is_int(value):
                raise ValueError(f"field parameter {name} must be an integer, got {value!r}")
        p, r = int(p), int(r)
        if not 1 <= r <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"extension degree must be in [1, {MAX_EXTENSION_DEGREE}], got {r}")
        size = power_above(p, r, MAX_ORDER)
        if size is not None:
            raise ValueError(f"field size {size} exceeds the supported cap {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = p
        self.r = r
        self.modulus = _smallest_irreducible(p, r)
        super().__init__(
            moduli=[p] * r,
            place=[p**i for i in range(r)],
            # Tr is Z_p-linear, so Tr(a*x) = a P x^T with P[i][j] = Tr(x^i * x^j).
            pairing=self.trace_form(),
        )

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"

    def _encode(self, coeffs) -> int:
        value = 0
        for c in reversed(coeffs):
            value = value * self.p + c
        return value

    def element(self, value) -> int:
        """The index of an element given as an integer encoding or a
        coefficient list, each coefficient reduced mod p; a list shorter than
        the degree is padded with zeros."""
        if _is_int(value):
            if not 0 <= value < self.order:
                raise ValueError(f"integer encoding {value} out of range for {self!r}")
            return int(value)
        coeffs = tuple(c % self.p for c in _int_coordinates(value))
        if len(coeffs) > self.r:
            raise ValueError(f"coefficient list {coeffs} longer than degree {self.r}")
        return self._encode(coeffs)

    def describe(self) -> dict:
        return {"field": {"p": self.p, "r": self.r}}

    def multiplication_table(self) -> np.ndarray:
        """Index table T[i, j] of the product of elements i and j, one
        polynomial product of coefficient tuples per entry."""
        coeffs = self.coords.tolist()
        modulus, p, encode = self.modulus, self.p, self._encode
        return np.array(
            [[encode(_poly_mul_mod(a, b, modulus, p)) for b in coeffs] for a in coeffs],
            dtype=np.int64,
        )

    def trace_form(self) -> np.ndarray:
        """Matrix P[i, j] = Tr(x^(i+j)) of the basis 1, x, ..., x^(r-1).

        Tr(a) is the trace of multiplication by a, so Tr(x^n) is the trace of
        C^n mod p for the companion matrix C of the modulus.
        """
        p, r = self.p, self.r
        companion = np.zeros((r, r), dtype=np.int64)
        companion[1:, :-1] = np.eye(r - 1, dtype=np.int64)
        companion[:, -1] = [-c % p for c in self.modulus[:-1]]
        traces, power = [], np.eye(r, dtype=np.int64)
        for _ in range(2 * r - 1):
            traces.append(np.trace(power) % p)
            power = companion @ power % p
        return np.array(traces, dtype=np.int64)[np.add.outer(np.arange(r), np.arange(r))]
