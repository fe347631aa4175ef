"""QLaurentPoly arithmetic against sympy on seeded random Laurent polynomials.

sympy is in the package's `test` extra, not its dependencies; without it
this module is skipped.  Laurent polynomials become sympy polynomials after
multiplying by a common power q^SHIFT, which clears every negative exponent
drawn here.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sqzero.qpoly import InexactDivisionError, QLaurentPoly  # noqa: E402

q = sympy.Symbol("q")
LOW, HIGH = -6, 8  # exponent range of the random polynomials
SHIFT = HIGH - LOW  # at least -LOW and the span of any quotient a / b
CASES = 150


def random_poly(rng):
    return QLaurentPoly(
        {rng.randint(LOW, HIGH): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
    )


def random_nonzero_poly(rng):
    while True:
        poly = random_poly(rng)
        if poly:
            return poly


def as_poly(poly, shift=SHIFT):
    """poly * q^shift as a sympy.Poly over the integers."""
    return sympy.Poly.from_dict({(e + shift,): c for e, c in poly.terms.items()}, q, domain="ZZ")


def as_expr(poly):
    return sympy.Add(*(c * q**e for e, c in poly.terms.items()))


def pairs(seed):
    rng = random.Random(seed)
    return [(random_poly(rng), random_nonzero_poly(rng)) for _ in range(CASES)]


@pytest.mark.parametrize("seed", [0, 1])
def test_add(seed):
    for a, b in pairs(seed):
        assert as_poly(a + b) == as_poly(a) + as_poly(b), (a, b)
        assert as_poly(a - b) == as_poly(a) - as_poly(b), (a, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_mul(seed):
    for a, b in pairs(seed):
        assert as_poly(a * b, 2 * SHIFT) == as_poly(a) * as_poly(b), (a, b)
        assert as_expr(a * b) == sympy.expand(as_expr(a) * as_expr(b)), (a, b)


def sympy_exact_quotient(a, b):
    """a / b shifted by q^SHIFT when it is a Laurent polynomial with integer
    coefficients, else None."""
    quot, rem = sympy.div(as_poly(a, 2 * SHIFT), as_poly(b), domain="QQ")
    if rem.is_zero and all(c.is_integer for c in quot.coeffs()):
        return quot.set_domain("ZZ")
    return None


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_div_of_products(seed):
    for a, b in pairs(seed):
        quot = (a * b).exact_div(b)
        assert quot == a, (a, b)
        assert as_poly(quot) == sympy_exact_quotient(a * b, b), (a, b)


def divides_like_sympy(a, b):
    """Check a.exact_div(b) against sympy; True when the division is inexact."""
    expected = sympy_exact_quotient(a, b)
    if expected is None:
        with pytest.raises(InexactDivisionError):
            a.exact_div(b)
    else:
        assert as_poly(a.exact_div(b)) == expected, (a, b)
    return expected is None


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_div_of_arbitrary_pairs(seed):
    # Most random pairs are inexact; both outcomes must occur.
    assert {divides_like_sympy(a, b) for a, b in pairs(seed)} == {True, False}


def strided_divisor(rng):
    """q^v (1 - q^j), the divisor exact_div divides by in whole-slice prefix sums."""
    v = rng.randint(LOW, HIGH)
    return QLaurentPoly({v: 1, v + rng.randint(1, 12): -1})


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_div_by_one_minus_q_power(seed):
    # a multiple of each divisor and a random dividend, which is mostly not one
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(CASES):
        b = strided_divisor(rng)
        for a in (random_poly(rng) * b, random_poly(rng)):
            outcomes.add(divides_like_sympy(a, b))
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", [0, 1])
def test_eval_at(seed):
    rng = random.Random(seed)
    for _ in range(CASES):
        a = random_poly(rng)
        shifted = as_poly(a)
        for x in (-3, -2, -1, 1, 2, 3, 7):
            value = a.eval_at(x)
            expected = Fraction(int(shifted.eval(x)), x**SHIFT)
            assert value == expected, (a, x)
            assert isinstance(value, int) == (expected.denominator == 1), (a, x)
