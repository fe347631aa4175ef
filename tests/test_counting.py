"""The formula engines: frozen small values, cross-agreement, and the
structural laws the closed form must obey."""

import math
import sys

import pytest

from sqzero import counting, qbinom
from sqzero.counting import (
    ENGINES,
    NonPolynomialResultError,
    WLaurent,
    _recurrence_step,
    alternating_qbinomial_sum,
    alternating_qbinomial_sum_closed,
    closed_form,
    constant_term_entry,
    constant_term_total,
    engine_total,
    recurrence_residual,
    recurrence_table,
    row_total,
)
from sqzero.qbinom import binomial, qbinomial
from sqzero.qpoly import ONE, ZERO, InexactDivisionError, QLaurentPoly


def P(terms):
    return QLaurentPoly(terms)


def envelope(n):
    """(1 - w)(1 + w)^n as a whole WLaurent."""
    return WLaurent(
        {k: QLaurentPoly({0: binomial(n, k) - binomial(n, k - 1)}) for k in range(n + 2)}
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
        assert WLaurent({2: ZERO}) == WLaurent()

    def test_shift_and_mul(self):
        one_minus_w = WLaurent({0: ONE, 1: -ONE})
        one_plus_w = WLaurent({0: ONE, 1: ONE})
        assert one_minus_w * one_plus_w == WLaurent({0: ONE, 2: -ONE})
        assert one_minus_w.shift(-1) == WLaurent({-1: ONE, 0: -ONE})


@pytest.fixture(scope="module")
def table40():
    return recurrence_table(40)


class TestRecurrenceTable:
    def test_first_rows(self):
        rows = recurrence_table(4)
        assert rows[1][0] == ONE
        assert rows[2][1] == P({0: -1, 1: 1})
        assert rows[3][1] == P({0: -1, 1: -1, 2: 2})

    def test_boundary_column_is_one(self):
        rows = recurrence_table(12)
        for n in range(1, 13):
            assert rows[n][0] == ONE

    def test_entries_are_polynomials(self):
        rows = recurrence_table(12)
        for n in range(13):
            assert all(value.is_polynomial() for value in rows[n]), n

    def test_rows_hold_the_wedge(self, table40):
        assert len(table40) == 41
        for n in range(41):
            assert len(table40[n]) == n // 2 + 1, n
            if n % 2 == 0:
                # the step past the wedge, to t(n+1, n//2+1), is zero
                assert _recurrence_step(n, n // 2, ZERO, table40[n][n // 2]) == ZERO, n

    def test_row_totals(self):
        rows = recurrence_table(3)
        assert row_total(rows[1]) == ONE
        assert row_total(rows[2]) == P({1: 1})
        assert row_total(rows[3]) == P({1: -1, 2: 2})

    def test_negative_n_max_raises(self):
        with pytest.raises(ValueError):
            recurrence_table(-1)

    def test_matches_the_step_with_its_coefficient_multiplied_to_60(self):
        rows = recurrence_table(60)
        prev = [ONE]
        for n in range(60):
            row = [ONE]
            for r in range((n + 1) // 2):
                same = prev[r + 1] if r + 1 < len(prev) else ZERO
                coeff = QLaurentPoly.monomial(1, n - r) - QLaurentPoly.monomial(1, r)
                row.append(same.shift(r + 1) + coeff * prev[r])
            assert row == rows[n + 1], n + 1
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
        rows = recurrence_table(12)
        for n in range(13):
            for r in range(n // 2 + 1):
                assert constant_term_entry(n, r) == rows[n][r], (n, r)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            constant_term_entry(3, 2)
        with pytest.raises(ValueError):
            constant_term_entry(2, -1)

    def test_negative_exponents_raise(self, monkeypatch):
        monkeypatch.setattr(counting, "qbinomial", lambda m, i: P({-1000: 1}))
        with pytest.raises(NonPolynomialResultError, match=r"entry \(4, 1\)"):
            constant_term_entry(4, 1)


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
        rows = recurrence_table(12)
        for n in range(1, 13):
            assert constant_term_total(n) == row_total(rows[n]), n

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            constant_term_total(0)

    def test_negative_exponents_raise(self, monkeypatch):
        monkeypatch.setattr(counting, "alternating_qbinomial_sum", lambda m: P({-1000: 1}))
        with pytest.raises(NonPolynomialResultError, match=r"total \(4\)"):
            constant_term_total(4)


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
        for m in range(61, 101):
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
        rows = recurrence_table(12)
        for n in range(1, 13):
            reference = row_total(rows[n])
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
                assert constant_term_entry(n, r) == table40[n][r], (n, r)

    def test_totals_match_row_sums_to_40(self, table40):
        for n in range(21, 41):
            assert constant_term_total(n) == row_total(table40[n]), n

    def test_residuals_vanish_from_16_to_40(self):
        for n in range(16, 41):
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
                    quotient = table40[n][k].exact_div(q_minus_one**k)
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
    assert constant_term_total(12) == row_total(recurrence_table(12)[12])
    # the inner sum is remembered per m, but a fresh m is still expanded
    # term by term, and only once
    asked = []
    real = counting.qbinomial
    monkeypatch.setattr(counting, "qbinomial", lambda m, i: asked.append((m, i)) or real(m, i))
    alternating_qbinomial_sum.cache_clear()
    assert alternating_qbinomial_sum(25) == loop_alternating_sum(25)
    assert alternating_qbinomial_sum(25) == loop_alternating_sum(25)
    assert asked == [(25 - i, i) for i in range(13)]


# Every named sqzero function each route reaches at n = 12 from empty
# stores, as module.qualname (lambdas and comprehensions left out).  What
# the routes share is the exact arithmetic, never each other's entry point.
_CONSTANT_TERM_SHARED = {
    "counting._envelope",
    "qbinom.binomial",
    "qbinom.qbinomial",
    "qbinom._one_minus_q_pow",
    "qpoly.QLaurentPoly.__init__",
    "qpoly.QLaurentPoly.__mul__",
    "qpoly.QLaurentPoly._coerce",
    "qpoly.QLaurentPoly.exact_div",
    "qpoly.QLaurentPoly.is_polynomial",
    "qpoly.linear_combination",
    "qpoly._poly",
}
ROUTES = {
    "closed": {"counting.closed_form", "qbinom.binomial", "qpoly.QLaurentPoly.__init__"},
    "recurrence": {
        "counting.recurrence_table",
        "counting.recurrence_rows",
        "counting._recurrence_step",
        "qpoly.linear_combination",
        "qpoly._poly",
    },
    "anna": {"counting.constant_term_entry"} | _CONSTANT_TERM_SHARED,
    "sumanna": {"counting.constant_term_total", "counting.alternating_qbinomial_sum"}
    | _CONSTANT_TERM_SHARED,
}
ENTRY_POINTS = {
    "closed": "counting.closed_form",
    "recurrence": "counting.recurrence_table",
    "anna": "counting.constant_term_entry",
    "sumanna": "counting.constant_term_total",
}


def clear_stores():
    alternating_qbinomial_sum.cache_clear()
    qbinom._one_minus_q_pow.cache_clear()


class TestRouteIndependence:
    @pytest.fixture(scope="class")
    def reached(self):
        out = {}
        for name, engine in ENGINES.items():
            functions = set()

            def profile(frame, event, arg):
                module = frame.f_globals.get("__name__", "")
                qualname = frame.f_code.co_qualname
                if event == "call" and module.startswith("sqzero.") and "<" not in qualname:
                    functions.add(f"{module.removeprefix('sqzero.')}.{qualname}")

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(qbinom, "_rows", {})
                clear_stores()
                sys.setprofile(profile)
                try:
                    engine(12)
                finally:
                    sys.setprofile(None)
                    clear_stores()
            out[name] = functions
        return out

    def test_each_route_reaches_exactly_its_table_row(self, reached):
        assert reached == ROUTES

    def test_closed_and_recurrence_use_no_gaussian_binomial(self, reached):
        for name in ("closed", "recurrence"):
            assert {f for f in reached[name] if f.startswith("qbinom.")} <= {"qbinom.binomial"}

    def test_no_route_reaches_another_routes_entry_point(self, reached):
        for name, functions in reached.items():
            others = {entry for other, entry in ENTRY_POINTS.items() if other != name}
            assert not functions & others, name
            assert ENTRY_POINTS[name] in functions

    def test_no_route_reaches_the_closed_form_of_the_inner_sum(self, reached):
        for functions in reached.values():
            assert "counting.alternating_qbinomial_sum_closed" not in functions


# The engine loops as they were before sums were formed in one list, written
# with +, int * and .shift, as references for the one-list sums.


def loop_entry(n, r):
    result = ZERO
    for i in range(r + 1):
        term = qbinomial(i + n - 2 * r, i).shift(-((i + 1) * i) // 2 - i * (n - 2 * r))
        e = binomial(n, r - i) - binomial(n, r - i - 1)
        result = result + (-e if i % 2 else e) * term
    return result.shift(r * (n - r))


def loop_alternating_sum(m):
    total = ZERO
    for i in range(m // 2 + 1):
        term = qbinomial(m - i, i).shift(i * (i - 1) // 2)
        total = total - term if i % 2 else total + term
    return total


def loop_total(n):
    result = ZERO
    for l in range(n // 2 + 1):
        e = binomial(n, l) - binomial(n, l - 1)
        result = result + e * loop_alternating_sum(n - 2 * l).shift(l * n - l * l)
    return result


def loop_table(n_max):
    entries = {(0, 0): ONE}
    for n in range(n_max):
        entries[(n + 1, 0)] = ONE
        for r in range((n + 1) // 2):
            same, lower = entries.get((n, r + 1), ZERO), entries.get((n, r), ZERO)
            entries[(n + 1, r + 1)] = same.shift(r + 1) + lower.shift(n - r) - lower.shift(r)
    return entries


class TestAgainstTermByTermLoops:
    def test_entries_up_to_30(self):
        for n in range(31):
            for r in range(n // 2 + 1):
                assert constant_term_entry(n, r) == loop_entry(n, r), (n, r)

    def test_totals_up_to_30(self):
        for n in range(1, 31):
            assert constant_term_total(n) == loop_total(n), n

    def test_alternating_sums_up_to_80(self):
        for m in range(81):
            assert alternating_qbinomial_sum(m) == loop_alternating_sum(m), m

    def test_table_up_to_30(self):
        rows, entries = recurrence_table(30), loop_table(30)
        for n in range(31):
            assert rows[n] == [entries[n, r] for r in range(n // 2 + 1)], n
            total = ZERO
            for poly in rows[n]:
                total = total + poly
            assert row_total(rows[n]) == sum(rows[n]) == total, n
            if n:
                assert engine_total("recurrence", n) == engine_total("anna", n) == total, n
