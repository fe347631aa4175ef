"""Exact counting of strictly upper-triangular matrices over GF(q) whose
square is zero: four independent formula engines plus an enumeration
oracle, all in exact integer arithmetic."""

from .counting import (
    NonPolynomialResultError,
    alternating_qbinomial_sum,
    alternating_qbinomial_sum_closed,
    closed_form,
    constant_term_entry,
    constant_term_total,
    recurrence_residual,
    recurrence_table,
)
from .gf import SUPPORTED_ORDERS, FiniteField
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    count_by_rank,
    count_square_zero,
)
from .qbinom import binomial, qbinomial
from .qpoly import ONE, Q, ZERO, InexactDivisionError, QLaurentPoly

__all__ = [
    "QLaurentPoly",
    "InexactDivisionError",
    "ZERO",
    "ONE",
    "Q",
    "binomial",
    "qbinomial",
    "NonPolynomialResultError",
    "recurrence_table",
    "closed_form",
    "constant_term_entry",
    "constant_term_total",
    "recurrence_residual",
    "alternating_qbinomial_sum",
    "alternating_qbinomial_sum_closed",
    "FiniteField",
    "SUPPORTED_ORDERS",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "count_square_zero",
    "count_by_rank",
]
