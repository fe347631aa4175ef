"""Gaussian binomials against their defining quotient and classical laws."""

import functools
import sys
import threading

import pytest

from sqzero import qbinom
from sqzero.counting import alternating_qbinomial_sum, constant_term_entry
from sqzero.qbinom import binomial, qbinomial
from sqzero.qpoly import ONE, ZERO, QLaurentPoly
from test_qpoly import rescanning_exact_div


@functools.cache
def literal_row(m):
    """Reference: the Gaussian binomials [m, 0..m] from their defining product
    quotient, one factor pair at a time, divided with the rescanning long
    division of test_qpoly rather than the QLaurentPoly.exact_div under test.
    Cached, so each row is built once and shared by the tests below."""
    row = [ONE]
    for t in range(1, m + 1):
        numer = QLaurentPoly({0: 1, m - t + 1: -1})
        row.append(rescanning_exact_div(row[-1] * numer, QLaurentPoly({0: 1, t: -1})))
    return row


def literal_qbinomial(m, n):
    return literal_row(m)[n] if 0 <= n <= m else ZERO


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0

    def test_negative_upper_index_raises(self):
        with pytest.raises(ValueError, match="negative upper index"):
            binomial(-1, 0)


class TestQBinomial:
    def test_two_choose_one(self):
        assert qbinomial(2, 1) == QLaurentPoly({0: 1, 1: 1})

    def test_four_choose_two(self):
        assert qbinomial(4, 2) == QLaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_out_of_range_is_zero(self):
        assert qbinomial(3, 5) == ZERO
        assert qbinomial(2, -1) == ZERO
        assert qbinomial(-1, 0) == ZERO

    def test_choose_zero_is_one(self):
        for m in range(9):
            assert qbinomial(m, 0) == ONE


BOUND = 25


class TestQBinomialLaws:
    def test_symmetry(self):
        for m in range(BOUND + 1):
            for n in range(m + 1):
                assert qbinomial(m, n) == qbinomial(m, m - n)

    def test_specializes_to_binomial_at_one(self):
        for m in range(BOUND + 1):
            for n in range(m + 1):
                assert qbinomial(m, n).eval_at(1) == binomial(m, n)

    def test_q_pascal_identity(self):
        # independent of the construction, which divides out the product quotient
        for m in range(2, BOUND + 1):
            for n in range(1, m):
                recursed = qbinomial(m - 1, n - 1) + qbinomial(m - 1, n).shift(n)
                assert qbinomial(m, n) == recursed

    def test_coefficients_are_nonnegative(self):
        for m in range(BOUND + 1):
            for n in range(m + 1):
                assert all(c > 0 for c in qbinomial(m, n).terms.values())


class TestAgainstLiteralQuotient:
    def test_chained_matches_literal(self, monkeypatch):
        monkeypatch.setattr(qbinom, "_rows", {})
        for m in range(41):
            expected = {n: literal_qbinomial(m, n) for n in range(-1, m + 2)}
            # the first call fills half a row at once, the rest extend it
            # one entry at a time or read it back
            for n in [m // 2, *expected]:
                assert qbinomial(m, n) == expected[n], (m, n)

    def test_column_above_the_middle_first_matches_literal(self, monkeypatch):
        monkeypatch.setattr(qbinom, "_rows", {})
        for m in range(41):
            # the first call reaches past the middle, so it is read from
            # its mirror column before anything else of row m exists
            assert qbinomial(m, m - m // 4) == literal_qbinomial(m, m - m // 4), m
            for n in range(m + 1):
                assert qbinomial(m, n) == literal_qbinomial(m, n), (m, n)

    def test_store_keeps_half_rows_as_tuples(self, monkeypatch):
        monkeypatch.setattr(qbinom, "_rows", {})
        # past the memo, so every sum is expanded against the empty store
        for m in range(61):
            alternating_qbinomial_sum.__wrapped__(m)
        for n in range(41):
            for r in range(n // 2 + 1):
                constant_term_entry(n, r)
        # rows 0 and 1 hold nothing past column 0, which needs no store
        assert set(range(2, 60)) <= qbinom._rows.keys()
        for m, row in qbinom._rows.items():
            assert type(row) is tuple, m
            assert len(row) <= m // 2 + 1, m

    def test_store_shares_each_mirrored_coefficient(self, monkeypatch):
        monkeypatch.setattr(qbinom, "_rows", {})
        for m in range(61):
            alternating_qbinomial_sum.__wrapped__(m)
        for m, row in qbinom._rows.items():
            for t, poly in enumerate(row):
                c = poly._c
                assert all(c[-1 - k] is c[k] for k in range(len(c))), (m, t)

    def test_a_non_palindromic_quotient_raises(self, monkeypatch):
        monkeypatch.setattr(qbinom, "_rows", {})
        exact_div = QLaurentPoly.exact_div
        # one more at q^0 leaves the top coefficient, 1, unmatched
        monkeypatch.setattr(QLaurentPoly, "exact_div", lambda self, d: exact_div(self, d) + 1)
        with pytest.raises(ArithmeticError, match=r"^\[6, 1\] is not palindromic$"):
            qbinomial(6, 2)
        assert 6 not in qbinom._rows

    def test_threads_filling_one_store_agree(self, monkeypatch):
        expected = {(m, n): literal_qbinomial(m, n) for m in range(16) for n in range(m + 1)}
        threads = 4
        start = threading.Barrier(threads)
        results = []

        def fill():
            # every thread extends the same rows in the same order at once
            start.wait()
            results.append(all(qbinomial(m, n) == value for (m, n), value in expected.items()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                monkeypatch.setattr(qbinom, "_rows", {})
                workers = [threading.Thread(target=fill) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * (10 * threads)
