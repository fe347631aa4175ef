"""The enumeration oracle: frozen counts, budget guard, determinism."""

import itertools
from collections import Counter
from functools import lru_cache

import pytest

from sqzero.counting import closed_form
from sqzero.gf import SUPPORTED_ORDERS, FiniteField
from sqzero.oracle import (
    BudgetExceededError,
    StrictUpperMatrix,
    _solutions,
    count_by_rank,
    count_square_zero,
    flat_index,
    matrix_rank,
    square_is_zero,
)


class TestSquareIsZero:
    def test_two_by_two_always_squares_to_zero(self):
        f = FiniteField(5)
        for a in f.elements():
            assert square_is_zero(StrictUpperMatrix(2, (a,)), f)

    def test_three_by_three_product_entry(self):
        f = FiniteField(2)
        # entries (a, b, c); the only checked entry of the square is a*c
        assert not square_is_zero(StrictUpperMatrix(3, (1, 0, 1)), f)
        assert not square_is_zero(StrictUpperMatrix(3, (1, 1, 1)), f)
        assert square_is_zero(StrictUpperMatrix(3, (1, 1, 0)), f)
        assert square_is_zero(StrictUpperMatrix(3, (0, 1, 1)), f)

    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            square_is_zero(StrictUpperMatrix(3, (1, 0)), FiniteField(2))
        for entries in ((0,) * 5, (0,) * 7):
            with pytest.raises(ValueError):
                square_is_zero(StrictUpperMatrix(4, entries), FiniteField(2))

    def test_flat_index_row_major(self):
        assert [flat_index(4, i, j) for i in range(4) for j in range(i + 1, 4)] == list(range(6))
        with pytest.raises(ValueError):
            flat_index(3, 1, 1)


class TestCounts:
    @pytest.mark.parametrize("q", [2, 5, 9])
    def test_one_by_one(self, q):
        assert count_square_zero(1, q) == 1

    def test_two_by_two_counts_all_matrices(self):
        assert count_square_zero(2, 3) == 3

    def test_frozen_anchors(self):
        assert count_square_zero(3, 2) == 6
        assert count_square_zero(4, 2) == 28
        assert count_square_zero(3, 3) == 15

    def test_agreement_with_closed_form(self):
        for q in (2, 3):
            for n in range(1, 5):
                assert count_square_zero(n, q) == closed_form(n).eval_at(q)

    def test_unsupported_field_rejected(self):
        with pytest.raises(ValueError, match="not a supported prime power"):
            count_square_zero(3, 6)


class TestBudget:
    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            count_square_zero(6, 9, budget=10**4)
        assert excinfo.value.required == 9**15
        assert excinfo.value.budget == 10**4

    def test_budget_override_allows_run(self):
        assert count_square_zero(3, 2, budget=8) == 6
        with pytest.raises(BudgetExceededError):
            count_square_zero(3, 2, budget=7)


class TestRanks:
    def test_frozen_rank_tables(self):
        assert count_by_rank(2, 2) == {0: 1, 1: 1}
        assert count_by_rank(1, 5) == {0: 1}
        assert count_by_rank(3, 2) == {0: 1, 1: 5}

    @pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (3, 5)])
    def test_rank_counts_sum_to_total(self, n, q):
        ranks = count_by_rank(n, q)
        assert sum(ranks.values()) == count_square_zero(n, q)
        assert all(c > 0 for c in ranks.values())

    def test_matrix_rank(self):
        f = FiniteField(3)
        assert matrix_rank(StrictUpperMatrix(3, (0, 0, 0)), f) == 0
        assert matrix_rank(StrictUpperMatrix(3, (1, 0, 0)), f) == 1
        assert matrix_rank(StrictUpperMatrix(3, (1, 0, 1)), f) == 2
        assert matrix_rank(StrictUpperMatrix(3, (0, 1, 2)), f) == 1


class TestWorkerIndependence:
    def test_counts_identical_across_worker_counts(self):
        single = count_square_zero(4, 3, workers=1)
        assert count_square_zero(4, 3, workers=4) == single

    def test_rank_tables_identical_across_worker_counts(self):
        assert count_by_rank(4, 2, workers=3) == count_by_rank(4, 2, workers=1)


@lru_cache(maxsize=None)
def odometer_solutions(n, q):
    """Reference: try every candidate entry vector and keep those whose
    square is zero."""
    field = FiniteField(q)
    return frozenset(
        entries
        for entries in itertools.product(range(q), repeat=n * (n - 1) // 2)
        if square_is_zero(StrictUpperMatrix(n, entries), field)
    )


# Every (n, q) whose q^(n(n-1)/2) candidates the odometer walks in moments.
DIFFERENTIAL_GRID = [
    (n, q) for q in SUPPORTED_ORDERS for n in range(1, 8) if q ** (n * (n - 1) // 2) <= 120_000
]


class TestAgainstOdometer:
    @pytest.mark.parametrize("n,q", DIFFERENTIAL_GRID, ids=lambda v: str(v))
    def test_same_solution_matrices(self, n, q):
        found = [tuple(entries) for entries in _solutions(n, FiniteField(q))]
        assert len(found) == len(set(found)), "a matrix was counted twice"
        assert set(found) == odometer_solutions(n, q)

    @pytest.mark.parametrize("n,q", DIFFERENTIAL_GRID, ids=lambda v: str(v))
    def test_same_rank_counts(self, n, q):
        field = FiniteField(q)
        reference = Counter(
            matrix_rank(StrictUpperMatrix(n, entries), field) for entries in odometer_solutions(n, q)
        )
        assert count_by_rank(n, q) == dict(reference)

    @pytest.mark.parametrize("n,q", [(4, 3), (5, 2)])
    def test_results_identical_for_one_two_and_three_workers(self, n, q):
        totals = {workers: count_square_zero(n, q, workers=workers) for workers in (1, 2, 3)}
        ranks = {workers: count_by_rank(n, q, workers=workers) for workers in (1, 2, 3)}
        assert totals[2] == totals[3] == totals[1] == len(odometer_solutions(n, q))
        assert ranks[2] == ranks[3] == ranks[1]


class TestTrackedRank:
    """The rank carried down the search against a full elimination of each
    leaf, at points beyond the odometer grid."""

    @pytest.mark.parametrize("n,q", [(5, 4), (4, 9), (6, 2)], ids=lambda v: str(v))
    def test_every_leaf_rank_equals_matrix_rank(self, n, q):
        field = FiniteField(q)
        for entries, rank in _solutions(n, field, ranked=True):
            assert rank == matrix_rank(StrictUpperMatrix(n, tuple(entries)), field), entries
