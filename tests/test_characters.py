import cmath
import math

import numpy as np
import pytest

from semicayley import AbelianGroup, ValidationError
from semicayley.groups import MAX_ORDER
from semicayley.characters import (
    CycloValue,
    _reduce_mod,
    _residue_table,
    char_sum,
    cyclotomic_polynomial,
    eval_character,
)

from conftest import GROUP_POOL, random_subset
from referees import cyclotomic_by_division


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_residue_table_rows_are_the_reduced_powers():
    # row j is x^j modulo Phi_N; Phi_105 is the first cyclotomic polynomial
    # with a coefficient -2, yet the reduced powers stay within +-5 to N = 1024
    for order in (1, 2, 12, 60, 105, 210):
        phi = cyclotomic_polynomial(order)
        table = _residue_table(order)
        assert table.shape == (order, len(phi) - 1)
        for j in range(order):
            power = [0] * order
            power[j] = 1
            assert tuple(table[j].tolist()) == _reduce_mod(power, phi), (order, j)
        assert np.abs(table).max() <= 5
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_polynomials_are_the_exact_quotients_to_max_order():
    # the Moebius product against x^N - 1 divided by every Phi_d, d a proper divisor of N
    for order in range(1, MAX_ORDER + 1):
        assert cyclotomic_polynomial(order) == cyclotomic_by_division(order), order


def test_residue_tables_satisfy_their_recurrence_to_max_order():
    # rows 0 .. phi(N) - 1 are the basis, and row j is row j - 1 shifted
    # less its top coefficient times Phi_N: one array check per N.  The
    # certificate of spectra needs max|T| <= 5.  Uncached, for the tables
    # of every N together would hold some 200 MB; those of the radicals
    # below 513 that it caches are cleared after
    for order in range(1, MAX_ORDER + 1):
        table = _residue_table.__wrapped__(order)
        poly = np.array(cyclotomic_polynomial(order)[:-1])
        degree = len(poly)
        assert table.shape == (order, degree) and table.dtype == np.int8 and not table.flags.writeable, order
        assert np.abs(table).max() <= 5, order
        assert np.array_equal(table[:degree], np.eye(degree)), order
        previous = table[degree - 1 : -1]
        expected = np.zeros(previous.shape, dtype=np.int16)
        expected[:, 1:] = previous[:, :-1]
        expected -= previous[:, -1:] * poly.astype(np.int16)
        assert np.array_equal(table[degree:], expected), order
    _residue_table.cache_clear()


def test_eval_character_examples():
    z4 = AbelianGroup([4])
    root = eval_character(z4, (2,), (1,))
    assert (root.numerator, root.order) == (2, 4)
    assert abs(root.value - (-1)) < 1e-12

    z23 = AbelianGroup([2, 3])
    assert eval_character(z23, (0, 0), (1, 2)).numerator == 0
    root = eval_character(z23, (1, 1), (1, 1))
    assert root.numerator == 5
    expected = cmath.exp(1j * math.pi) * cmath.exp(2j * math.pi / 3)
    assert abs(root.value - expected) < 1e-12


def test_unit_modulus(rng):
    for factors in GROUP_POOL:
        group = AbelianGroup(factors)
        for _ in range(4):
            chi = group.element(int(rng.integers(group.order)))
            g = group.element(int(rng.integers(group.order)))
            assert abs(abs(eval_character(group, chi, g).value) - 1.0) < 1e-12


def test_char_sum_examples():
    z4 = AbelianGroup([4])
    assert char_sum(z4, (2,), [(1,), (3,)]).as_integer() == -2
    assert char_sum(z4, (1,), z4.elements()).is_zero()
    assert char_sum(z4, (0,), [(0,), (2,)]).as_integer() == 2
    assert char_sum(z4, (1,), []).is_zero()


def test_exponent_table_matches_eval_character():
    for factors in GROUP_POOL + [(3, 1, 2)]:
        group = AbelianGroup(factors)
        table = group.char_exponents
        assert table.shape == (group.order, group.order)
        for i, chi in enumerate(group.elements()):
            for j, g in enumerate(group.elements()):
                assert table[i, j] == eval_character(group, chi, g).numerator


def test_char_sum_matches_elementwise_loop(rng):
    for factors in GROUP_POOL + [(3, 1, 2)]:
        group = AbelianGroup(factors)
        elems = group.elements()
        subsets = [[], random_subset(group, rng), [elems[-1], elems[-1]], elems]
        for subset in subsets:
            for chi in elems:
                coeffs = [0] * group.exponent
                for g in set(subset):
                    coeffs[eval_character(group, chi, g).numerator] += 1
                assert char_sum(group, chi, subset).coeffs == tuple(coeffs)


def test_conj_mul_abs_examples():
    i4 = CycloValue.root(1, 4)
    assert i4.conj() == CycloValue.root(3, 4)
    assert i4.abs_squared().as_integer() == 1
    zero = CycloValue.zero(4)
    assert zero.abs_squared().is_zero()
    z4 = AbelianGroup([4])
    assert char_sum(z4, (1,), [(1,)]).abs_squared().as_integer() == 1


def test_as_integer():
    golden = CycloValue.root(1, 5) + CycloValue.root(4, 5)
    assert golden.as_integer() is None
    assert abs(golden.approx.real - 2 * math.cos(2 * math.pi / 5)) < 1e-12
    assert (CycloValue.root(1, 4) + CycloValue.root(3, 4)).as_integer() == 0
    full = CycloValue(6, [1] * 6)
    assert full.as_integer() == 0


def test_coefficients_become_python_ints():
    generator = (c for c in (1, 0, 2, 0))
    for coeffs in (np.array([1, 0, 2, 0]), np.array([1, 0, 2, 0], dtype=np.uint8), [1.0, 0, 2, 0], generator):
        value = CycloValue(4, coeffs)
        assert value.coeffs == (1, 0, 2, 0)
        assert all(type(c) is int for c in value.coeffs)
    with pytest.raises(ValidationError):
        CycloValue(4, np.array([1, 0, 2]))


def abs_as_integer(value):
    """Exact |value| when it is an integer, else None."""
    m = value.abs_squared().as_integer()
    if m is None:
        return None
    s = math.isqrt(m)
    return s if s * s == m else None


def test_abs_as_integer():
    one = CycloValue.root(2, 6)
    assert abs_as_integer(one) == 1
    sqrt2 = CycloValue.root(1, 8) + CycloValue.root(7, 8)
    assert sqrt2.abs_squared().as_integer() == 2
    assert abs_as_integer(sqrt2) is None
    assert abs_as_integer(CycloValue.zero(5)) == 0


def test_arithmetic_is_exact_vs_float(rng):
    for _ in range(40):
        n = int(rng.integers(1, 13))
        coeffs1 = rng.integers(-4, 5, size=n)
        coeffs2 = rng.integers(-4, 5, size=n)
        v1, v2 = CycloValue(n, coeffs1), CycloValue(n, coeffs2)
        assert abs((v1 * v2).approx - v1.approx * v2.approx) < 1e-9
        assert abs((v1 + v2).approx - (v1.approx + v2.approx)) < 1e-12
        assert abs(v1.conj().approx - v1.approx.conjugate()) < 1e-12


def test_approx_matches_coeffs(rng):
    for _ in range(30):
        n = int(rng.integers(1, 13))
        coeffs = rng.integers(-10, 11, size=n)
        value = CycloValue(n, coeffs)
        direct = sum(int(c) * cmath.exp(2j * math.pi * j / n) for j, c in enumerate(coeffs))
        assert abs(value.approx - direct) <= 1e-12 * max(1.0, abs(direct))


def test_column_orthogonality_exact(rng):
    for factors in [(4,), (2, 3), (2, 2, 2), (12,)]:
        group = AbelianGroup(factors)
        subset = group.subset(random_subset(group, rng))
        for g in group.elements():
            total = CycloValue.zero(group.exponent)
            for chi in group.elements():
                total = total + eval_character(group, chi, group.inverse(g)).as_cyclo() * char_sum(
                    group, chi, subset
                )
            expected = group.order if g in subset else 0
            assert total.as_integer() == expected


def test_conj_of_sum_is_sum_over_inverses(rng):
    for _ in range(15):
        factors = GROUP_POOL[int(rng.integers(len(GROUP_POOL)))]
        group = AbelianGroup(factors)
        subset = random_subset(group, rng)
        chi = group.element(int(rng.integers(group.order)))
        lhs = char_sum(group, chi, subset).conj()
        rhs = char_sum(group, chi, map(group.inverse, subset))
        assert lhs == rhs


def test_inverse_closed_sums_are_real(rng):
    for _ in range(15):
        factors = GROUP_POOL[int(rng.integers(len(GROUP_POOL)))]
        group = AbelianGroup(factors)
        xs = set()
        for g in group.elements():
            if rng.random() < 0.4:
                xs.add(g)
                xs.add(group.inverse(g))
        chi = group.element(int(rng.integers(group.order)))
        value = char_sum(group, chi, xs)
        assert value == value.conj()


def test_order_mismatch_raises():
    with pytest.raises(ValidationError):
        CycloValue.root(1, 4) + CycloValue.root(1, 6)
    with pytest.raises(ValidationError):
        CycloValue.root(1, 4) * CycloValue.root(1, 6)


def test_json_shape():
    value = CycloValue.root(1, 4)
    blob = value.to_json()
    assert blob["N"] == 4 and blob["exponents"] == [1] and blob["coefficients"] == [1]
    assert abs(blob["re"]) < 1e-12 and abs(blob["im"] - 1) < 1e-12


def test_ring_axioms(rng):
    for _ in range(25):
        n = int(rng.integers(1, 13))
        a, b, c = (CycloValue(n, rng.integers(-5, 6, size=n)) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (-a) == 0
        assert (a * b).conj() == a.conj() * b.conj()
