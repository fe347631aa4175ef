"""The examples in README.md and PAPER.md run as doctests, and the public
surface of ``sqzero`` is exactly the names listed here."""

import doctest
from pathlib import Path

import pytest

import sqzero

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_examples_run(name):
    result = doctest.testfile(str(ROOT / name), module_relative=False)
    assert (result.failed, result.attempted) == (0, 5)


def test_public_surface():
    assert sorted(sqzero.__all__) == [
        "BudgetExceededError",
        "DEFAULT_BUDGET",
        "FiniteField",
        "InexactDivisionError",
        "NonPolynomialResultError",
        "ONE",
        "Q",
        "QLaurentPoly",
        "SUPPORTED_ORDERS",
        "ZERO",
        "alternating_qbinomial_sum",
        "alternating_qbinomial_sum_closed",
        "binomial",
        "closed_form",
        "constant_term_entry",
        "constant_term_total",
        "count_by_rank",
        "count_square_zero",
        "qbinomial",
        "recurrence_residual",
        "recurrence_table",
    ]
    assert [name for name in sqzero.__all__ if not hasattr(sqzero, name)] == []
