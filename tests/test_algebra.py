import cmath
import itertools

import numpy as np
import pytest

from nlgames.algebra import (
    FiniteAbelianGroup,
    FiniteField,
    _is_irreducible,
    is_prime,
    power_above,
)
from oracles import (
    FieldElement,
    GroupElement,
    ProductGroup,
    add,
    character,
    elements,
    inv,
    mul,
    neg,
    power,
    sub,
    trace,
)

SMALL_GROUPS = [
    (2,),
    (3,),
    (4,),
    (5,),
    (2, 2),
    (6,),
    (2, 4),
    (3, 3),
    (2, 2, 2),
    (16,),
]

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4)]


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


def test_group_order_and_identity():
    g = FiniteAbelianGroup([2, 3, 4])
    assert g.order == 24
    assert g.coords[0].tolist() == [0, 0, 0]
    assert g.coords.shape == (24, 3)
    assert g.coords.tolist() == [list(el.coords) for el in elements(g)]
    for el in elements(g):
        assert all(0 <= c < n for c, n in zip(el.coords, g.factors))


def test_add_examples():
    z3 = FiniteAbelianGroup([3])
    assert add(z3, elements(z3)[1], elements(z3)[2]) == elements(z3)[0]
    z22 = FiniteAbelianGroup([2, 2])
    assert add(z22, GroupElement((1, 0)), GroupElement((1, 1))) == GroupElement((0, 1))
    z5 = FiniteAbelianGroup([5])
    for x in elements(z5):
        assert add(z5, x, elements(z5)[0]) == x


def test_add_is_abelian_group():
    for factors in [(3,), (4,), (2, 2), (2, 3)]:
        g = FiniteAbelianGroup(factors)
        for x in elements(g):
            assert add(g, x, neg(g, x)) == elements(g)[0]
            for y in elements(g):
                assert add(g, x, y) == add(g, y, x)
                for z in elements(g):
                    assert add(g, add(g, x, y), z) == add(g, x, add(g, y, z))


def test_element_reduction_idempotent():
    g = FiniteAbelianGroup([3, 4])
    index = g.element((5, 7))
    assert elements(g)[index].coords == (2, 3)
    assert g.element(index) == g.element((2, 3)) == index


def test_dimension_mismatch_rejected():
    g = FiniteAbelianGroup([2, 2])
    stray = GroupElement((1,))
    with pytest.raises(ValueError, match="factor list"):
        add(g, stray, elements(g)[0])
    with pytest.raises(ValueError, match="factor list"):
        g.element((1, 2, 3))


def test_group_construction_rejects_bad_factors():
    with pytest.raises(ValueError):
        FiniteAbelianGroup([])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([1, 2])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([0])


@pytest.mark.parametrize(
    "build, err",
    [
        (lambda: FiniteField(3.7), "field parameter p must be an integer, got 3.7"),
        (lambda: FiniteField("3"), "field parameter p must be an integer, got '3'"),
        (lambda: FiniteField(3, True), "field parameter r must be an integer, got True"),
        (lambda: FiniteAbelianGroup([2.9, 3.5]), "cyclic factors must all be integers >= 2, got factors[0] = 2.9"),
        (lambda: FiniteAbelianGroup([2, "3"]), "cyclic factors must all be integers >= 2, got factors[1] = '3'"),
        (lambda: FiniteAbelianGroup([2, True]), "cyclic factors must all be integers >= 2, got factors[1] = True"),
        (lambda: FiniteAbelianGroup([3, 2, 1]), "cyclic factors must all be integers >= 2, got factors[2] = 1"),
    ],
    ids=["p-float", "p-str", "r-bool", "factor-float", "factor-str", "factor-bool", "factor-1"],
)
def test_group_and_field_parameters_are_checked_not_truncated(build, err):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == err


def test_numpy_integer_parameters_are_accepted():
    field = FiniteField(np.int64(3), np.int32(2))
    assert (repr(field), type(field.p), type(field.r), field.modulus) == ("GF(3^2)", int, int, (1, 0, 1))
    assert FiniteAbelianGroup([np.int32(2), np.int64(3)]).factors == (2, 3)


def test_character_examples():
    z2 = FiniteAbelianGroup([2])
    assert z2.character_table()[1, 1] == pytest.approx(-1.0)
    z3 = FiniteAbelianGroup([3])
    expected = cmath.exp(4j * cmath.pi / 3)
    assert z3.character_table()[1, 2] == pytest.approx(expected)


@pytest.mark.parametrize("factors", SMALL_GROUPS)
def test_character_sum_vanishes_for_nontrivial(factors):
    g = FiniteAbelianGroup(factors)
    chars = g.character_table()
    for a in range(g.order):
        total = chars[a].sum()
        if a == 0:
            assert total == pytest.approx(g.order)
        else:
            assert abs(total) < 1e-10


@pytest.mark.parametrize("factors", SMALL_GROUPS)
def test_character_orthogonality(factors):
    g = FiniteAbelianGroup(factors)
    chars = g.character_table()
    gram = chars @ chars.conj().T / g.order
    assert np.max(np.abs(gram - np.eye(g.order))) < 1e-12


@pytest.mark.parametrize("factors", [(3,), (4,), (2, 2), (2, 3)])
def test_character_properties(factors):
    g = FiniteAbelianGroup(factors)
    chars = g.character_table()
    add = g.addition_table()
    neg = g.negation_table()
    for a in range(g.order):
        for x in range(g.order):
            # Symmetry of the chosen indexing and conjugation as negation.
            assert chars[a, x] == pytest.approx(chars[x, a])
            assert np.conj(chars[a, x]) == pytest.approx(chars[a, neg[x]])
            for y in range(g.order):
                assert chars[a, add[x, y]] == pytest.approx(chars[a, x] * chars[a, y])
    for x in range(g.order):
        assert chars[0, x] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kind,args",
    [
        ("Z", (5,)),
        ("Z", (2, 3)),
        ("Z", (2, 4)),
        ("Z", (6, 4)),
        ("GF", (2, 2)),
        ("GF", (3, 2)),
        ("GF", (2, 3)),
        ("GF", (3, 4)),
    ],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_tables_are_consistent(kind, args):
    g = FiniteField(*args) if kind == "GF" else FiniteAbelianGroup(args)
    plus = g.addition_table()
    diff = g.subtraction_table()
    minus = g.negation_table()
    index = np.arange(g.order)
    assert np.array_equal(g.difference(index[:, None], index), diff)
    chars = g.character_table()
    els = elements(g)
    for i, x in enumerate(els):
        assert els[minus[i]] == neg(g, x)
        for j, y in enumerate(els):
            assert els[plus[i, j]] == add(g, x, y)
            assert els[diff[i, j]] == sub(g, x, y)
            # Exact: the table and the definition take the same root of unity.
            assert chars[i, j] == character(g, x, y)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_default_moduli():
    assert FiniteField(2, 1).modulus == (0, 1)
    assert FiniteField(2, 2).modulus == (1, 1, 1)
    assert FiniteField(3, 2).modulus == (1, 0, 1)


def test_gf9_modulus_is_smallest_irreducible():
    # Independent search: monic quadratics over Z_3 without roots, ordered by
    # the same big-endian digit encoding the constructor documents.
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 3 == 0 for x in range(3))

    ordered = [
        (c0, c1, 1)
        for m in range(9)
        for c0, c1 in [(m % 3, m // 3)]
        if not has_root(m % 3, m // 3)
    ]
    assert ordered[0] == FiniteField(3, 2).modulus
    assert set(ordered) == {(1, 0, 1), (2, 1, 1), (2, 2, 1)}


def test_field_construction_errors():
    with pytest.raises(ValueError, match="prime"):
        FiniteField(4, 1)
    with pytest.raises(ValueError, match="degree"):
        FiniteField(2, 0)
    with pytest.raises(ValueError, match="degree"):
        FiniteField(2, 5)


def test_field_checks_its_size_cap_before_primality():
    # Trial division of a prime p near 10^18 would take about a minute.
    with pytest.raises(ValueError, match="^field size 1000000000000000003 exceeds the supported cap 4096$"):
        FiniteField(1000000000000000003)
    with pytest.raises(ValueError, match="^field size 5000 exceeds the supported cap 4096$"):
        FiniteField(5000)
    with pytest.raises(ValueError, match="degree"):
        FiniteField(5000, 5)
    with pytest.raises(ValueError, match="prime, got -70"):
        FiniteField(-70, 2)
    # p^2 has 8,001 digits, above what Python converts to a string.
    with pytest.raises(ValueError, match=r"^field size 10+1\^2 exceeds the supported cap 4096$"):
        FiniteField(10**4000 + 1, 2)


def test_group_order_is_an_int_for_numpy_moduli():
    # A numpy order would overflow in `power_above` and has no bit_length.
    group = ProductGroup(FiniteAbelianGroup([4]), FiniteAbelianGroup([4]))
    assert (type(group.order), group.order) == (int, 16)
    assert power_above(group.order, 6, 10**6) == "16777216"


def test_power_above_builds_no_power_far_over_its_cap():
    assert power_above(3, 12, 10**6) is None
    assert power_above(3, 13, 10**6) == "1594323"
    assert power_above(2, 20, 10**6) == "1048576"
    assert power_above(2, 21, 10**6) == "2^21"
    assert power_above(2**32 - 1, 2, 10**6) == str((2**32 - 1) ** 2)
    assert power_above(2**32, 2, 10**6) == f"{2**32}^2"
    assert power_above(4096, 10**12, 10**6) == "4096^1000000000000"
    assert power_above(1, 10**12, 10**6) is None
    assert power_above(-7, 3, 10) is None


def test_gf4_multiplication():
    f = FiniteField(2, 2)
    x = elements(f)[2]
    assert x.coeffs == (0, 1)
    assert mul(f, x, x) == elements(f)[3]
    for a in elements(f):
        assert mul(f, a, elements(f)[1]) == a


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_power_d_fixes_every_element(p, r):
    f = FiniteField(p, r)
    for a in elements(f):
        assert power(f, a, f.order) == a


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1)])
def test_nonzero_elements_form_cyclic_group(p, r):
    f = FiniteField(p, r)
    orders = []
    for a in elements(f)[1:]:
        term = a
        order = 1
        while term != elements(f)[1]:
            term = mul(f, term, a)
            order += 1
        orders.append(order)
        assert (f.order - 1) % order == 0
    assert max(orders) == f.order - 1


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, r):
    f = FiniteField(p, r)
    if f.order > 9:
        pytest.skip("axiom sweep kept to sizes <= 9")
    for a in elements(f):
        for b in elements(f):
            assert mul(f, a, b) == mul(f, b, a)
            for c in elements(f):
                assert mul(f, mul(f, a, b), c) == mul(f, a, mul(f, b, c))
                assert mul(f, a, add(f, b, c)) == add(f, mul(f, a, b), mul(f, a, c))
    for a in elements(f)[1:]:
        assert mul(f, a, inv(f, a)) == elements(f)[1]


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_frobenius_is_additive(p, r):
    f = FiniteField(p, r)
    for a in elements(f):
        for b in elements(f):
            assert power(f, add(f, a, b), p) == add(f, power(f, a, p), power(f, b, p))


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_trace_linear_and_in_prime_field(p, r):
    f = FiniteField(p, r)
    for a in elements(f):
        ta = trace(f, a)
        assert 0 <= ta < p
        for b in elements(f):
            assert trace(f, add(f, a, b)) == (trace(f, a) + trace(f, b)) % p


def test_field_mismatch_rejected():
    f1 = FiniteField(2, 2)
    f2 = FiniteField(3, 1)
    with pytest.raises(ValueError, match="field mismatch"):
        mul(f1, elements(f1)[1], elements(f2)[1])
    # The unit of GF(9) taken modulo x^2 + x + 2, not the field's x^2 + 1.
    other = FieldElement((3, 2, (2, 1, 1)), (1, 0))
    with pytest.raises(ValueError, match="field mismatch"):
        add(FiniteField(3, 2), elements(FiniteField(3, 2))[1], other)


# The `field` bench workload's 25 fields of order <= 61, then GF(81) and
# GF(343) (GF(256) needs degree 8, over the cap of 4).  The ids keep the
# p-r-None form that recorded runs of this test name.
MULTIPLICATION_FIELDS = [
    (p, r) for p in range(2, 62) if is_prime(p) for r in range(1, 5) if p**r <= 61
] + [(3, 4), (7, 3)]


@pytest.mark.parametrize("p,r", MULTIPLICATION_FIELDS, ids=[f"{p}-{r}-None" for p, r in MULTIPLICATION_FIELDS])
def test_multiplication_table_matches_oracle(p, r):
    f = FiniteField(p, r)
    table = f.multiplication_table()
    assert table.dtype == np.int64
    assert table.tolist() == [[int(mul(f, a, b)) for b in elements(f)] for a in elements(f)]


def _oracle_trace_form(f):
    basis = [elements(f)[f.p**i] for i in range(f.r)]
    return [[trace(f, mul(f, a, b)) for b in basis] for a in basis]


@pytest.mark.parametrize(
    "p,r", [(p, r) for p in range(2, 33) if is_prime(p) for r in range(2, 5) if p**r <= 1024]
)
def test_trace_form_matches_oracle(p, r):
    f = FiniteField(p, r)
    form = f.trace_form()
    assert form.dtype == np.int64
    assert form.tolist() == _oracle_trace_form(f)


def _monics(p, r):
    return [(*tail, 1) for tail in itertools.product(range(p), repeat=r)]


def _reducible_monics(p, r):
    """Every product of two monics of degrees k and r - k, 1 <= k < r."""
    products = set()
    for k in range(1, r):
        for a in _monics(p, k):
            for b in _monics(p, r - k):
                out = [0] * (r + 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        out[i + j] = (out[i + j] + ai * bj) % p
                products.add(tuple(out))
    return products


# Gauss's formula (1/r) sum_{e | r} mu(e) p^(r/e), degrees 1, 2, ...
GAUSS_COUNTS = {2: [2, 1, 2, 3, 6, 9], 3: [3, 3, 8, 18], 5: [5, 10, 40]}


@pytest.mark.parametrize("p", GAUSS_COUNTS)
def test_irreducible_exactly_when_no_product_of_lower_degree_monics(p):
    for r, count in enumerate(GAUSS_COUNTS[p], start=1):
        reducible = _reducible_monics(p, r)
        verdicts = {poly: _is_irreducible(poly, p) for poly in _monics(p, r)}
        assert verdicts == {poly: poly not in reducible for poly in verdicts}, (p, r)
        assert sum(verdicts.values()) == count, (p, r)


def test_zero_has_no_inverse():
    f = FiniteField(3, 1)
    with pytest.raises(ZeroDivisionError):
        inv(f, elements(f)[0])


# ---------------------------------------------------------------------------
# Additive characters
# ---------------------------------------------------------------------------


# The field's additive group indexes elements by their integer encoding, so
# chars[int(k), int(a)] is chi_k(a).


def test_additive_character_examples():
    gf4 = FiniteField(2, 2)
    chars4 = gf4.character_table()
    for a in elements(gf4):
        assert chars4[int(elements(gf4)[0]), int(a)] == pytest.approx(1.0)
    gf2 = FiniteField(2, 1)
    one = int(elements(gf2)[1])
    assert gf2.character_table()[one, one] == pytest.approx(-1.0)
    total = sum(chars4[int(elements(gf4)[1]), int(a)] for a in elements(gf4))
    assert abs(total) < 1e-12


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_additive_character_sum_over_multiples(p, r):
    f = FiniteField(p, r)
    chars = f.character_table()
    for b in elements(f):
        for k in elements(f)[1:]:
            total = sum(chars[int(k), int(mul(f, a, b))] for a in elements(f))
            if b == elements(f)[0]:
                assert total == pytest.approx(f.order)
            else:
                assert abs(total) < 1e-10


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 1)])
def test_additive_character_homomorphism(p, r):
    f = FiniteField(p, r)
    chars = f.character_table()
    for k in elements(f):
        for a in elements(f):
            for b in elements(f):
                assert chars[int(k), int(add(f, a, b))] == pytest.approx(
                    chars[int(k), int(a)] * chars[int(k), int(b)]
                )


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3)])
def test_additive_character_trivial_only_for_zero(p, r):
    f = FiniteField(p, r)
    chars = f.character_table()
    for k in elements(f)[1:]:
        assert any(abs(chars[int(k), int(a)] - 1.0) > 1e-9 for a in elements(f))


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2)])
def test_field_additive_group_is_valid_group(p, r):
    f = FiniteField(p, r)
    g = f
    assert g.order == f.order
    assert g.coords[0].tolist() == [0] * r
    assert g.describe() == {"field": {"p": p, "r": r}}
    chars = g.character_table()
    gram = chars @ chars.conj().T / g.order
    assert np.max(np.abs(gram - np.eye(g.order))) < 1e-12
    # Symmetric indexing, as assumed by the correlator inversion.
    assert np.max(np.abs(chars - chars.T)) < 1e-12


def test_field_element_int_encoding():
    f = FiniteField(3, 2)
    g = f
    for m, el in enumerate(elements(f)):
        assert int(el) == m
        assert f.coords[m].tolist() == list(el.coeffs) == g.coords[m].tolist()
        assert g.element(m) == g.element(list(el.coeffs)) == m
    assert g.element([2, 1]) == 5
    assert elements(f)[5] == FieldElement((3, 2, f.modulus), (2, 1))
    assert g.element([2]) == 2
    with pytest.raises(ValueError, match="out of range for GF"):
        g.element(9)
    with pytest.raises(ValueError, match="longer than degree"):
        g.element([1, 0, 1])


def test_element_index_range_and_bad_values():
    g = FiniteAbelianGroup([2, 3])
    assert g.element(np.int64(5)) == 5
    with pytest.raises(ValueError, match="element index 6 out of range for Z2xZ3"):
        g.element(6)
    with pytest.raises(ValueError, match="element index -1 out of range"):
        g.element(-1)
    for bad in (True, 0.5, "ab"):
        with pytest.raises(ValueError, match="is not a group element|is not an integer"):
            g.element(bad)
    with pytest.raises(ValueError, match="coordinate 1.0 of"):
        g.element([1.0, 0])
