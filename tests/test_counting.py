"""The formula engines: frozen small values, cross-agreement, and the
structural laws the closed form must obey."""

import math

import pytest

from sqzero.counting import (
    ENGINES,
    TriangularTable,
    WLaurent,
    alternating_qbinomial_sum,
    alternating_qbinomial_sum_closed,
    closed_form,
    constant_term_entry,
    constant_term_total,
    engine_total,
    recurrence_residual,
    recurrence_table,
)
from sqzero.qbinom import binomial, qbinomial
from sqzero.qpoly import ONE, ZERO, InexactDivisionError, QLaurentPoly


def P(terms):
    return QLaurentPoly(terms)


def envelope(n):
    """(1 - w)(1 + w)^n as a whole WLaurent."""
    return WLaurent(
        {k: QLaurentPoly.constant(binomial(n, k) - binomial(n, k - 1)) for k in range(n + 2)}
    )


def reference_entry(n, r):
    """t(n, r) from the whole w-Laurent product, every w-coefficient formed."""
    series = {}
    for i in range(r + 1):
        coeff = qbinomial(i + n - 2 * r, i).shift(-((i + 1) * i) // 2 - i * (n - 2 * r))
        series[i] = -coeff if i % 2 else coeff
    return (envelope(n).shift(-r) * WLaurent(series)).constant_term().shift(r * (n - r))


def reference_total(n):
    tail = {-l: alternating_qbinomial_sum(n - 2 * l).shift(l * n - l * l) for l in range(n // 2 + 1)}
    return (envelope(n) * WLaurent(tail)).constant_term()


class TestWLaurent:
    def test_constant_term(self):
        obj = WLaurent({-1: ONE, 0: P({1: 2}), 3: ONE})
        assert obj.constant_term() == P({1: 2})
        assert WLaurent().constant_term() == ZERO

    def test_zero_coefficients_dropped(self):
        assert WLaurent({2: ZERO}).support == ()

    def test_shift_and_mul(self):
        one_minus_w = WLaurent({0: ONE, 1: -ONE})
        one_plus_w = WLaurent({0: ONE, 1: ONE})
        assert one_minus_w * one_plus_w == WLaurent({0: ONE, 2: -ONE})
        assert one_minus_w.shift(-1) == WLaurent({-1: ONE, 0: -ONE})

    def test_scale(self):
        q = P({1: 1})
        assert WLaurent({0: ONE, 2: ONE}).scale(q) == WLaurent({0: q, 2: q})


@pytest.fixture(scope="module")
def table40():
    return recurrence_table(40)


class TestRecurrenceTable:
    def test_first_rows(self):
        table = recurrence_table(4)
        assert table.entry(1, 0) == ONE
        assert table.entry(2, 1) == P({0: -1, 1: 1})
        assert table.entry(3, 1) == P({0: -1, 1: -1, 2: 2})

    def test_boundary_column_is_one(self):
        table = recurrence_table(12)
        for n in range(1, 13):
            assert table.entry(n, 0) == ONE

    def test_entries_are_polynomials(self):
        table = recurrence_table(12)
        for (_, _), value in table.items():
            assert value.is_polynomial()

    def test_outside_wedge_is_zero(self):
        table = recurrence_table(6)
        assert table.entry(3, 2) == ZERO
        assert table.entry(5, -1) == ZERO

    def test_row_out_of_range_raises(self):
        table = recurrence_table(3)
        with pytest.raises(ValueError):
            table.entry(4, 0)
        with pytest.raises(ValueError):
            table.total(4)

    def test_row_totals(self):
        table = recurrence_table(3)
        assert table.total(1) == ONE
        assert table.total(2) == P({1: 1})
        assert table.total(3) == P({1: -1, 2: 2})

    def test_negative_n_max_raises(self):
        with pytest.raises(ValueError):
            recurrence_table(-1)

    def test_matches_the_step_with_its_coefficient_multiplied_to_60(self):
        table = recurrence_table(60)
        prev = [ONE]
        for n in range(60):
            row = [ONE]
            for r in range((n + 1) // 2):
                same = prev[r + 1] if r + 1 < len(prev) else ZERO
                coeff = QLaurentPoly.monomial(1, n - r) - QLaurentPoly.monomial(1, r)
                row.append(same.shift(r + 1) + coeff * prev[r])
            assert row == table.row(n + 1), n + 1
            prev = row


class TestClosedForm:
    def test_small_values(self):
        assert closed_form(1) == ONE
        assert closed_form(2) == P({1: 1})
        assert closed_form(3) == P({1: -1, 2: 2})
        assert closed_form(4) == P({2: -1, 4: 2})

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            closed_form(0)

    def test_degree_law(self):
        for m in range(1, 11):
            assert closed_form(2 * m).degree() == m * m
            assert closed_form(2 * m + 1).degree() == m * m + m

    def test_leading_coefficient_is_catalan(self):
        for m in range(1, 11):
            catalan = binomial(2 * m, m) - binomial(2 * m, m - 1)
            assert closed_form(2 * m).leading_coefficient() == catalan

    def test_always_polynomial_with_positive_lead(self):
        for n in range(1, 25):
            poly = closed_form(n)
            assert poly.is_polynomial()
            assert poly.leading_coefficient() > 0


class TestConstantTermEntry:
    def test_small_values(self):
        assert constant_term_entry(1, 0) == ONE
        assert constant_term_entry(2, 1) == P({0: -1, 1: 1})
        assert constant_term_entry(3, 1) == P({0: -1, 1: -1, 2: 2})

    def test_matches_recurrence_entries(self):
        table = recurrence_table(12)
        for n in range(13):
            for r in range(n // 2 + 1):
                assert constant_term_entry(n, r) == table.entry(n, r), (n, r)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            constant_term_entry(3, 2)
        with pytest.raises(ValueError):
            constant_term_entry(2, -1)


class TestRecurrenceResidual:
    @pytest.mark.parametrize("n,r", [(1, 0), (3, 0), (5, 2)])
    def test_named_residuals_vanish(self, n, r):
        assert recurrence_residual(n, r) == ZERO

    def test_residuals_vanish_up_to_ten(self):
        for n in range(11):
            for r in range((n + 1) // 2):
                assert recurrence_residual(n, r) == ZERO, (n, r)

    def test_rejects_invalid_arguments(self):
        for n, r in [(2, 1), (3, -1)]:
            with pytest.raises(ValueError, match=r"^recurrence_residual needs r >= 0"):
                recurrence_residual(n, r)


class TestConstantTermTotal:
    def test_small_values(self):
        assert constant_term_total(1) == ONE
        assert constant_term_total(3) == P({1: -1, 2: 2})
        assert constant_term_total(4) == P({2: -1, 4: 2})

    def test_matches_row_totals(self):
        table = recurrence_table(12)
        for n in range(1, 13):
            assert constant_term_total(n) == table.total(n), n

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            constant_term_total(0)


class TestAlternatingSumIdentity:
    def test_small_values(self):
        assert alternating_qbinomial_sum(0) == ONE
        assert alternating_qbinomial_sum(2) == ZERO
        assert alternating_qbinomial_sum(3) == P({1: -1})
        assert alternating_qbinomial_sum_closed(0) == ONE
        assert alternating_qbinomial_sum_closed(2) == ZERO
        assert alternating_qbinomial_sum_closed(3) == P({1: -1})

    def test_identity_holds(self):
        for m in range(31):
            assert alternating_qbinomial_sum(m) == alternating_qbinomial_sum_closed(m), m

    def test_identity_holds_past_the_cli_default(self):
        # lemma2 checks m <= 60 by default; these reach further
        for m in range(61, 81):
            assert alternating_qbinomial_sum(m) == alternating_qbinomial_sum_closed(m), m

    def test_killed_residue_class(self):
        for m in range(2, 40, 3):
            assert alternating_qbinomial_sum_closed(m) == ZERO

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            alternating_qbinomial_sum(-1)
        with pytest.raises(ValueError):
            alternating_qbinomial_sum_closed(-1)


class TestFourWayAgreement:
    def test_engines_agree(self):
        table = recurrence_table(12)
        for n in range(1, 13):
            reference = table.total(n)
            assert closed_form(n) == reference, n
            assert constant_term_total(n) == reference, n


class TestEngineTable:
    @pytest.mark.parametrize("name", list(ENGINES))
    def test_every_total_is_the_closed_form(self, name):
        for n in range(1, 13):
            assert engine_total(name, n) == closed_form(n), n


class TestAgainstFullProduct:
    """The w^0 read-off against the whole w-Laurent product it replaces."""

    def test_entries_match_up_to_24(self):
        for n in range(25):
            for r in range(n // 2 + 1):
                assert constant_term_entry(n, r) == reference_entry(n, r), (n, r)

    def test_totals_match_up_to_24(self):
        for n in range(1, 25):
            assert constant_term_total(n) == reference_total(n), n


class TestEnginesPastTwenty:
    def test_entries_match_recurrence_to_40(self, table40):
        for n in range(21, 41):
            for r in range(n // 2 + 1):
                assert constant_term_entry(n, r) == table40.entry(n, r), (n, r)

    def test_totals_match_row_sums_to_40(self, table40):
        for n in range(21, 41):
            assert constant_term_total(n) == table40.total(n), n

    def test_residuals_vanish_from_16_to_30(self):
        for n in range(16, 31):
            for r in range((n + 1) // 2):
                assert recurrence_residual(n, r) == ZERO, (n, r)


class TestInvolutionLaw:
    """t(n, k) is (q - 1)^k times a polynomial that counts, at q = 1, the
    involutions of n points with k arcs: n! / (k! 2^k (n - 2k)!)."""

    def test_divisible_and_counts_involutions(self, table40):
        q_minus_one = P({0: -1, 1: 1})
        for n in range(41):
            for k in range(n // 2 + 1):
                try:
                    quotient = table40.entry(n, k).exact_div(q_minus_one**k)
                except InexactDivisionError:
                    pytest.fail(f"t({n}, {k}) is not divisible by (q - 1)^{k}")
                involutions = math.factorial(n) // (
                    math.factorial(k) * 2**k * math.factorial(n - 2 * k)
                )
                assert quotient.eval_at(1) == involutions, (n, k)


def test_total_expands_the_inner_sum_without_its_closed_form(monkeypatch):
    def refuse(m):
        raise AssertionError("the sumanna route must not use the closed form it is checked against")

    monkeypatch.setattr("sqzero.counting.alternating_qbinomial_sum_closed", refuse)
    assert constant_term_total(12) == recurrence_table(12).total(12)
