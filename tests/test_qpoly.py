"""Exact Laurent polynomial arithmetic: examples, errors, and ring laws."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzero.qpoly import ONE, Q, ZERO, InexactDivisionError, QLaurentPoly, linear_combination


def P(terms):
    return QLaurentPoly(terms)


def rescanning_exact_div(a, b):
    """Reference long division: find the remainder's lowest term by a full
    rescan at every step, and cancel it."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ZERO
    div_lo = min(b.terms)
    div_lead = b.terms[div_lo]
    hi_bound = max(a.terms) - max(b.terms)
    rem = dict(a.terms)
    quot = {}
    while rem:
        lo = min(rem)
        exp = lo - div_lo
        coeff, residue = divmod(rem[lo], div_lead)
        if residue or exp > hi_bound:
            raise InexactDivisionError(f"inexact division: ({a}) / ({b})")
        quot[exp] = coeff
        for e, c in b.terms.items():
            ee = e + exp
            s = rem.get(ee, 0) - coeff * c
            if s:
                rem[ee] = s
            elif ee in rem:
                del rem[ee]
    return QLaurentPoly(quot)


class TestCanonicalForm:
    def test_zero_polynomial_has_empty_terms(self):
        assert dict(ZERO.terms) == {}
        assert dict(P({3: 0, -1: 0}).terms) == {}
        assert not ZERO

    def test_zero_coefficients_are_dropped(self):
        assert dict(P({0: 1, 5: 0}).terms) == {0: 1}

    def test_equality_is_structural(self):
        assert P({1: 2, 0: -1}) == P({0: -1, 1: 2})
        assert P({1: 1}) != P({1: 2})
        assert P({0: 7}) == 7
        assert ZERO == 0

    def test_hash_consistent_with_int_equality(self):
        assert hash(P({0: 7})) == hash(7)
        assert hash(ZERO) == hash(0)
        assert P({1: 1, 0: 1}) in {P({0: 1, 1: 1})}


class TestArithmetic:
    def test_add_cancels_inverse(self):
        assert Q + (-Q) == ZERO

    def test_add_merges_terms(self):
        assert P({0: 1, 1: 1}) + Q == P({0: 1, 1: 2})

    def test_add_keeps_disjoint_exponents(self):
        assert P({-1: 1}) + Q == P({-1: 1, 1: 1})

    def test_mul_difference_of_squares(self):
        assert P({0: 1, 1: 1}) * P({0: 1, 1: -1}) == P({0: 1, 2: -1})

    def test_mul_cancels_exponents(self):
        assert P({-1: 1}) * Q == ONE

    def test_mul_by_zero(self):
        assert P({0: 1, 1: 1}) * ZERO == ZERO

    def test_int_coercion(self):
        assert 2 * Q == P({1: 2})
        assert Q + 1 == P({0: 1, 1: 1})
        assert 1 - Q == P({0: 1, 1: -1})

    def test_pow(self):
        assert (ONE + Q) ** 2 == P({0: 1, 1: 2, 2: 1})
        assert Q**0 == ONE


class TestShift:
    def test_shift_up(self):
        assert P({0: 1, 1: 1}).shift(2) == P({2: 1, 3: 1})

    def test_shift_down_cancels(self):
        assert Q.shift(-1) == ONE

    def test_shift_zero_polynomial(self):
        assert ZERO.shift(5) == ZERO


class TestExactDiv:
    def test_two_term_quotient(self):
        # (1 - q^2) / (1 - q) = 1 + q, by long division
        a = P({0: 1, 2: -1})
        b = P({0: 1, 1: -1})
        assert a.exact_div(b) == P({0: 1, 1: 1})

    def test_three_term_quotient(self):
        # (1 - q^3) / (1 - q) = 1 + q + q^2
        a = P({0: 1, 3: -1})
        b = P({0: 1, 1: -1})
        assert a.exact_div(b) == P({0: 1, 1: 1, 2: 1})

    def test_self_division(self):
        p = P({0: 1, 1: 1})
        assert p.exact_div(p) == ONE

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivisionError):
            P({0: 1, 2: 1}).exact_div(P({0: 1, 1: 1}))
        with pytest.raises(InexactDivisionError):
            P({0: 1}).exact_div(P({0: 2}))

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    def test_int_divisor_is_a_constant(self):
        a = P({0: 4, 1: 2})
        assert a.exact_div(2) == P({0: 2, 1: 1})
        with pytest.raises(InexactDivisionError):
            a.exact_div(3)
        with pytest.raises(ZeroDivisionError):
            a.exact_div(0)

    @pytest.mark.parametrize("divisor", [2.0, "2", None])
    def test_other_divisor_types_raise(self, divisor):
        with pytest.raises(TypeError):
            P({0: 4, 1: 2}).exact_div(divisor)

    def test_laurent_division(self):
        assert ONE.exact_div(P({-1: 1})) == Q

    def test_sparse_quotient_with_gaps(self):
        # (1 - q^30) / (1 - q^10) = 1 + q^10 + q^20
        a, b = P({0: 1, 30: -1}), P({0: 1, 10: -1})
        assert a.exact_div(b) == P({0: 1, 10: 1, 20: 1}) == rescanning_exact_div(a, b)

    def test_top_terms_left_over_raise(self):
        # (1 - q^3)(1 + q) + q^5: the walk cancels up to q^4, q^5 is left
        a, b = P({0: 1, 1: 1, 3: -1, 4: -1, 5: 1}), P({0: 1, 3: -1})
        for divide in (QLaurentPoly.exact_div, rescanning_exact_div):
            with pytest.raises(InexactDivisionError):
                divide(a, b)


class TestEvalAt:
    def test_monomial(self):
        assert Q.eval_at(2) == 2

    def test_count_polynomial_small(self):
        assert P({2: 2, 1: -1}).eval_at(2) == 6

    def test_count_polynomial_larger(self):
        assert P({4: 2, 2: -1}).eval_at(2) == 28

    def test_negative_exponent_gives_fraction(self):
        assert P({-1: 1}).eval_at(2) == Fraction(1, 2)
        assert P({-1: 1, 1: 4}).eval_at(2) == Fraction(17, 2)

    def test_integer_valued_laurent_result_is_int(self):
        value = P({-1: 2}).eval_at(2)
        assert value == 1 and isinstance(value, int)

    def test_eval_at_zero(self):
        assert P({0: 3, 2: 5}).eval_at(0) == 3
        with pytest.raises(ZeroDivisionError):
            P({-1: 1}).eval_at(0)

    def test_negative_base(self):
        assert P({-2: 3, 1: 1}).eval_at(-2) == Fraction(-5, 4)


class TestStructure:
    def test_is_polynomial(self):
        assert not P({-1: 1, 0: 1}).is_polynomial()
        assert ZERO.is_polynomial()
        assert P({2: 2, 1: -1}).is_polynomial()

    def test_degree_valuation_leading(self):
        p = P({-1: 4, 3: -2})
        assert p.degree() == 3
        assert p.valuation() == -1
        assert p.leading_coefficient() == -2
        assert ZERO.degree() is None
        assert ZERO.valuation() is None
        assert ZERO.leading_coefficient() == 0


class TestRendering:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ({}, "0"),
            ({0: 1}, "1"),
            ({0: -3}, "-3"),
            ({1: 1}, "q"),
            ({1: -1, 2: 2}, "-q + 2*q^2"),
            ({2: 2, 4: -1}, "2*q^2 - q^4"),
            ({-1: 1, 1: 1}, "q^-1 + q"),
            ({0: 1, 1: -2, 5: 3}, "1 - 2*q + 3*q^5"),
        ],
    )
    def test_canonical_text(self, terms, expected):
        assert str(P(terms)) == expected


# operands as in the stated invariant ranges: exponents in [-10, 10],
# coefficients in [-100, 100]
polys = st.builds(
    QLaurentPoly,
    st.dictionaries(st.integers(-10, 10), st.integers(-100, 100), max_size=6),
)


class TestRingLaws:
    @given(polys, polys, polys)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_exact_div_inverts_mul(self, a, b):
        if b:
            assert (a * b).exact_div(b) == a

    @given(polys, polys, st.integers(-5, 5).filter(bool))
    def test_eval_is_ring_homomorphism(self, a, b, x):
        assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
        assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)


def nonzero_polys(exponents=st.integers(-10, 10), min_terms=1):
    coeffs = st.integers(-100, 100).filter(bool)
    return st.builds(
        QLaurentPoly, st.dictionaries(exponents, coeffs, min_size=min_terms, max_size=6)
    )


class TestExactDivAgainstRescan:
    @given(polys, nonzero_polys())
    def test_products(self, a, b):
        assert (a * b).exact_div(b) == rescanning_exact_div(a * b, b) == a

    @given(polys, nonzero_polys(min_terms=2), st.integers(-100, 100).filter(bool),
           st.integers(-10, 10))
    def test_non_multiples_raise(self, c, b, coeff, exp):
        # b has two or more terms, so it divides no monomial, and not a
        a = b * c + QLaurentPoly.monomial(coeff, exp)
        for divide in (QLaurentPoly.exact_div, rescanning_exact_div):
            with pytest.raises(InexactDivisionError):
                divide(a, b)

    @given(polys, nonzero_polys(exponents=st.integers(-10, -1)))
    def test_negative_exponent_divisors(self, a, b):
        assert (a * b).exact_div(b) == rescanning_exact_div(a * b, b) == a

    @given(polys, nonzero_polys())
    def test_arbitrary_pairs_agree(self, a, b):
        assert_divides_like_rescan(a, b)


def assert_divides_like_rescan(a, b):
    """a.exact_div(b) returns what the rescanning reference returns, or
    raises InexactDivisionError exactly when the reference does."""
    try:
        expected = rescanning_exact_div(a, b)
    except InexactDivisionError:
        with pytest.raises(InexactDivisionError):
            a.exact_div(b)
    else:
        assert a.exact_div(b) == expected


# q^v (1 - q^j), the divisor exact_div divides by in whole-slice prefix sums
strided_divisors = st.builds(
    lambda j, v: QLaurentPoly({v: 1, v + j: -1}), st.integers(1, 40), st.integers(-10, 10)
)
# quotients long enough to fill several residue classes mod j
wide_polys = st.builds(
    QLaurentPoly,
    st.dictionaries(st.integers(-10, 80), st.integers(-100, 100), max_size=12),
)


class TestStridedDivAgainstRescan:
    @given(wide_polys, strided_divisors)
    def test_exact_multiples(self, a, b):
        assert (a * b).exact_div(b) == rescanning_exact_div(a * b, b) == a

    @given(wide_polys, strided_divisors, st.integers(-100, 100).filter(bool),
           st.integers(-10, 130))
    def test_multiples_plus_a_stray_monomial_raise(self, c, b, coeff, exp):
        # 1 - q^j divides no nonzero monomial, so no such sum is a multiple
        a = c * b + QLaurentPoly.monomial(coeff, exp)
        for divide in (QLaurentPoly.exact_div, rescanning_exact_div):
            with pytest.raises(InexactDivisionError):
                divide(a, b)

    @given(strided_divisors, st.data())
    def test_dividends_no_longer_than_the_divisor(self, b, data):
        # exponents within a window of the divisor's own span, so that
        # deg(a) - val(a) <= deg(b) - val(b); a constant times a shifted b
        # is the one exact case
        span = b.degree() - b.valuation()
        k = data.draw(st.integers(-10, 10))
        lo = b.valuation() + k
        coeffs = st.integers(-100, 100)
        a = data.draw(st.one_of(
            st.builds(QLaurentPoly, st.dictionaries(st.integers(lo, lo + span), coeffs, max_size=6)),
            st.builds(lambda c: c * b.shift(k), coeffs),
        ))
        assert_divides_like_rescan(a, b)


# Reference: the sparse kernel the dense one replaced, over plain dicts from
# exponent to nonzero coefficient.


def clean(terms):
    return {e: c for e, c in terms.items() if c}


def sparse_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def sparse_neg(a):
    return {e: -c for e, c in a.items()}


def sparse_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = sparse_add(out, {e1 + e2: c1 * c2})
    return out


def sparse_shift(a, k):
    return {e + k: c for e, c in a.items()}


def sparse_str(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "q" if mag == 1 else f"{mag}*q"
        else:
            body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def per_term_eval(a, x):
    whole = 0
    frac = Fraction(0)
    for e, c in a.items():
        if e >= 0:
            whole += c * x**e
        else:
            if x == 0:
                raise ZeroDivisionError("evaluation at zero with negative exponents")
            frac += Fraction(c, x ** (-e))
    if not frac:
        return whole
    total = frac + whole
    return int(total) if total.denominator == 1 else total


# dicts with zero coefficients allowed, dense ([-10, 10]) and sparse ([-200, 200])
small_dicts = st.dictionaries(st.integers(-10, 10), st.integers(-100, 100), max_size=8)
wide_dicts = st.dictionaries(st.integers(-200, 200), st.integers(-100, 100), max_size=6)
dicts = st.one_of(small_dicts, wide_dicts)


def assert_matches(poly, ref):
    """poly, a QLaurentPoly, has the sparse reference's value and canonical form."""
    assert dict(poly.terms) == ref
    assert poly == QLaurentPoly(ref) == QLaurentPoly(poly.terms)
    assert hash(poly) == hash(QLaurentPoly(ref))
    assert poly.degree() == (max(ref) if ref else None)
    assert poly.valuation() == (min(ref) if ref else None)
    assert poly.leading_coefficient() == (ref[max(ref)] if ref else 0)
    assert poly.is_polynomial() == all(e >= 0 for e in ref)
    assert bool(poly) == bool(ref)
    assert str(poly) == sparse_str(ref)
    if set(ref) <= {0}:
        assert poly == ref.get(0, 0)
        assert hash(poly) == hash(ref.get(0, 0))


class TestDenseAgainstSparse:
    @given(dicts, st.integers(-100, 100), st.integers(-300, 300), st.integers(-5, 5))
    def test_unary_int_operands_and_eval(self, a, k, shift, x):
        assert_matches(P(a), clean(a))
        a = clean(a)
        const = clean({0: k})
        with pytest.raises(TypeError):
            P(a).terms[0] = 1
        assert_matches(-P(a), sparse_neg(a))
        assert_matches(P(a).shift(shift), sparse_shift(a, shift))
        assert_matches(k * P(a), sparse_mul(a, const))
        assert_matches(P(a) * k, sparse_mul(a, const))
        assert_matches(P(a) + k, sparse_add(a, const))
        assert_matches(k + P(a), sparse_add(a, const))
        assert_matches(P(a) - k, sparse_add(a, sparse_neg(const)))
        assert_matches(k - P(a), sparse_add(const, sparse_neg(a)))
        # eval_at (Horner over the coefficients) against the per-term formula
        try:
            expected = per_term_eval(a, x)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                P(a).eval_at(x)
        else:
            value = P(a).eval_at(x)
            assert value == expected
            assert type(value) is type(expected)

    @given(dicts, dicts, st.integers(0, 4), st.integers(0, 4))
    def test_binary_and_sums_cancelling_at_the_ends(self, a, b, low, high):
        a, b = clean(a), clean(b)
        assert (P(a) == P(b)) == (a == b)
        assert_matches(P(a) + P(b), sparse_add(a, b))
        assert_matches(P(a) - P(b), sparse_add(a, sparse_neg(b)))
        assert_matches(P(a) * P(b), sparse_mul(a, b))
        # c cancels the `low` lowest and `high` highest terms of a
        exps = sorted(a)
        c = {e: -a[e] for e in exps[:low] + exps[len(exps) - high :]}
        total = P(a) + P(c)
        assert_matches(total, sparse_add(a, c))
        assert total == QLaurentPoly(total.terms)
        assert_matches(P(a) - P(a), {})

    @given(st.dictionaries(st.integers(-10, 10), st.sampled_from([-1, 1]), max_size=8),
           st.dictionaries(st.integers(-10, 10), st.sampled_from([-1, 1]), max_size=8),
           dicts)
    def test_products_with_unit_coefficients(self, a, b, c):
        # a and b have only coefficients 1 and -1, so whichever operand is
        # sparser, the unit-coefficient multiply folds in the other one
        c = clean(c)
        assert_matches(P(a) * P(b), sparse_mul(a, b))
        assert_matches(P(a) * P(c), sparse_mul(a, c))
        assert_matches(P(c) * P(a), sparse_mul(c, a))


# Triples (c, s, p) for the one-list kernel: coefficients 0, +-1, small and
# above 2^64; shifts in [-30, 30]; polynomials with zero among them.
kernel_coeffs = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-100, 100),
    st.integers(2**64, 2**70).flatmap(lambda c: st.sampled_from([c, -c])),
)
kernel_terms = st.lists(
    st.tuples(kernel_coeffs, st.integers(-30, 30), st.one_of(st.just({}), dicts).map(clean)),
    max_size=8,
)


def sparse_combination(terms):
    """The kernel's sum as a fold of the sparse reference: + over c * q^s * p."""
    out = {}
    for c, s, p in terms:
        out = sparse_add(out, sparse_mul(sparse_shift(p, s), clean({0: c})))
    return out


def combine(terms):
    return linear_combination([(c, s, P(p)) for c, s, p in terms])


class TestLinearCombinationAgainstSparse:
    @given(kernel_terms)
    def test_sums_and_sums_cancelling_to_zero(self, terms):
        assert_matches(combine(terms), sparse_combination(terms))
        assert_matches(combine(terms + [(-c, s, p) for c, s, p in terms]), {})

    @given(kernel_terms, st.integers(0, 4), st.integers(0, 4))
    def test_sums_cancelling_at_both_ends(self, terms, low, high):
        # one more term cancels the `low` lowest and `high` highest terms of the sum
        total = sparse_combination(terms)
        exps = sorted(total)
        ends = {e: -total[e] for e in exps[:low] + exps[len(exps) - high :]}
        assert_matches(combine(terms + [(1, 0, ends)]), sparse_add(total, ends))
        assert_matches(combine(terms + [(-1, 0, total)]), {})

    def test_empty_sum_and_zero_terms(self):
        assert_matches(linear_combination([]), {})
        assert_matches(linear_combination(iter([(0, 3, Q), (5, -2, ZERO)])), {})
