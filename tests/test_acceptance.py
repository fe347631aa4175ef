"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every comparison is exact (zero tolerance).
"""

import random
from contextlib import contextmanager

from sqzero.counting import (
    alternating_qbinomial_sum,
    alternating_qbinomial_sum_closed,
    closed_form,
    constant_term_entry,
    constant_term_total,
    recurrence_residual,
    recurrence_table,
    row_total,
)
from sqzero.gf import SUPPORTED_ORDERS, FiniteField
from sqzero.oracle import count_by_rank, count_square_zero
from sqzero.qbinom import binomial, qbinomial
from sqzero.qpoly import QLaurentPoly


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_closed_form_equals_recurrence():
    with criterion(1, "closed form equals recurrence row sums, n = 1..20, exactly"):
        rows = recurrence_table(20)
        for n in range(1, 21):
            assert closed_form(n) == row_total(rows[n]), f"n={n}"


def test_criterion_2_constant_term_entries_equal_recurrence():
    with criterion(2, "constant-term entry formula equals every table entry, n <= 20"):
        rows = recurrence_table(20)
        for n in range(21):
            for r in range(n // 2 + 1):
                assert constant_term_entry(n, r) == rows[n][r], f"(n={n}, r={r})"


def test_criterion_3_constant_term_total_equals_row_sum():
    with criterion(3, "constant-term total formula equals row sums, n = 1..20"):
        rows = recurrence_table(20)
        for n in range(1, 21):
            assert constant_term_total(n) == row_total(rows[n]), f"n={n}"


def test_criterion_4_alternating_sum_identity():
    with criterion(4, "alternating q-binomial sum equals its closed form, m = 0..60"):
        for m in range(61):
            lhs = alternating_qbinomial_sum(m)
            assert lhs == alternating_qbinomial_sum_closed(m), f"m={m}"
            if m % 3 == 2:
                assert lhs == QLaurentPoly(), f"m={m} should vanish"


def test_criterion_5_recurrence_residual_vanishes():
    with criterion(5, "constant-term formula satisfies the recurrence, n = 0..15"):
        zero = QLaurentPoly()
        for n in range(16):
            for r in range((n + 1) // 2):
                assert recurrence_residual(n, r) == zero, f"(n={n}, r={r})"


def test_criterion_6_oracle_agreement():
    with criterion(6, "brute-force counts equal closed-form values on the desk grid"):
        assert count_square_zero(3, 2) == 6
        assert count_square_zero(4, 2) == 28
        assert count_square_zero(3, 3) == 15
        grid = [(2, 6), (3, 5), (4, 4), (5, 4), (7, 4), (8, 3), (9, 3)]
        for q, n_hi in grid:
            for n in range(1, n_hi + 1):
                counted = count_square_zero(n, q)
                predicted = closed_form(n).eval_at(q)
                assert counted == predicted, f"(n={n}, q={q}): {counted} != {predicted}"
        # 14.3M, 9.8M and 16.8M candidates: reachable only because the
        # search prunes a partial matrix as soon as its square is nonzero.
        for n, q in [(6, 3), (5, 5), (4, 16)]:
            counted = count_square_zero(n, q)
            predicted = closed_form(n).eval_at(q)
            assert counted == predicted, f"(n={n}, q={q}): {counted} != {predicted}"
        # Past the default budget: 2^28 = 268M and 2^36 = 68.7G candidates,
        # about 0.005 and 0.13 s on 2 vCPU, because q = 2 evaluates the last
        # two columns bit-sliced; 4^15 = 1.07G and 7^10 = 282M, about 0.003
        # and 0.001 s; then 3^21 = 10.5G, 5^15 = 30.5G, 9^10 = 3.5G,
        # 7^15 = 4.7T and 4^21 = 4.4T, reachable because the search takes
        # each diagonal-torus orbit once.
        for n, q, budget in [
            (8, 2, 10**9),
            (9, 2, 10**11),
            (6, 4, 2 * 10**9),
            (5, 7, 10**9),
            (7, 3, 10**11),
            (6, 5, 10**11),
            (5, 9, 10**10),
            (6, 7, 10**13),
            (7, 4, 10**13),
        ]:
            counted = count_square_zero(n, q, budget=budget)
            predicted = closed_form(n).eval_at(q)
            assert counted == predicted, f"(n={n}, q={q}): {counted} != {predicted}"
        assert closed_form(8).eval_at(2) == 618_496  # the (8, 2) count, frozen


def test_criterion_7_degree_and_leading_coefficient_laws():
    with criterion(7, "degree and leading-coefficient laws for m = 1..10"):
        for m in range(1, 11):
            even = closed_form(2 * m)
            assert even.degree() == m * m, f"m={m}"
            catalan = binomial(2 * m, m) - binomial(2 * m, m - 1)
            assert even.leading_coefficient() == catalan, f"m={m}"
            assert closed_form(2 * m + 1).degree() == m * m + m, f"m={m}"


def _check_qpoly_ring_axioms():
    rng = random.Random(20260809)

    def rand_poly():
        return QLaurentPoly(
            {rng.randint(-10, 10): rng.randint(-100, 100) for _ in range(rng.randint(0, 6))}
        )

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a * b).exact_div(b) == a
        x = rng.choice([-3, -2, -1, 1, 2, 3])
        assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
        assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)


def _check_qbinomial_laws():
    for m in range(26):
        for n in range(m + 1):
            assert qbinomial(m, n) == qbinomial(m, m - n)
            assert qbinomial(m, n).eval_at(1) == binomial(m, n)
            if 1 <= n <= m - 1:
                assert qbinomial(m, n) == qbinomial(m - 1, n - 1) + qbinomial(m - 1, n).shift(n)
            assert all(c > 0 for c in qbinomial(m, n).terms.values())


def _check_field_axioms(q):
    f = FiniteField(q)
    elems = range(f.q)
    for a in elems:
        assert f.add[a][0] == a and f.mul[a][1] == a
        assert f.add[a][f.neg[a]] == 0
        if a:
            assert f.mul[a][f.inv(a)] == 1
        assert (f.mul[a][a] == 0) == (a == 0)
    for a in elems:
        for b in elems:
            assert f.add[a][b] == f.add[b][a]
            assert f.mul[a][b] == f.mul[b][a]
            for c in elems:
                assert f.add[f.add[a][b]][c] == f.add[a][f.add[b][c]]
                assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]
                assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]


def test_criterion_8_property_suites():
    with criterion(8, "ring axioms, q-binomial laws, field axioms, worker independence"):
        _check_qpoly_ring_axioms()
        _check_qbinomial_laws()
        for q in SUPPORTED_ORDERS:
            _check_field_axioms(q)
        assert count_square_zero(4, 3, workers=4) == count_square_zero(4, 3, workers=1)
        assert count_by_rank(4, 3, workers=4) == count_by_rank(4, 3, workers=1)


def test_criterion_9_rank_refinement():
    with criterion(9, "oracle counts by rank equal the entry formula t(n, r) at q"):
        for q, n_hi in [(2, 6), (3, 5), (4, 4), (5, 4)]:
            for n in range(1, n_hi + 1):
                expected = {r: constant_term_entry(n, r).eval_at(q) for r in range(n // 2 + 1)}
                assert count_by_rank(n, q) == expected, f"(n={n}, q={q})"
        for n, q in [(7, 2), (6, 3), (4, 7), (4, 8), (4, 9), (5, 5), (4, 16)]:
            expected = {r: constant_term_entry(n, r).eval_at(q) for r in range(n // 2 + 1)}
            assert count_by_rank(n, q) == expected, f"(n={n}, q={q})"
        # criterion 6's points past the default budget
        for n, q, budget in [
            (5, 7, 10**9),
            (6, 4, 2 * 10**9),
            (7, 3, 10**11),
            (6, 5, 10**11),
            (5, 9, 10**10),
            (6, 7, 10**13),
            (7, 4, 10**13),
        ]:
            expected = {r: constant_term_entry(n, r).eval_at(q) for r in range(n // 2 + 1)}
            assert count_by_rank(n, q, budget=budget) == expected, f"(n={n}, q={q})"
