"""Binomial coefficients and their Gaussian (q-analogue) counterparts."""

from __future__ import annotations

import math
import threading
from functools import lru_cache

from .qpoly import ONE, ZERO, QLaurentPoly


def binomial(n: int, k: int) -> int:
    """C(n, k), with the out-of-range convention C(n, k) = 0 for k < 0 or k > n.

    Defined for n >= 0 only; a negative upper index is rejected loudly
    rather than silently picking one of the competing extensions.
    """
    if n < 0:
        raise ValueError(f"negative upper index: binomial({n}, {k})")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def _one_minus_q_pow(j: int) -> QLaurentPoly:
    return QLaurentPoly({0: 1, j: -1})


# _rows[m] holds the partial quotients qbinomial(m, 0), qbinomial(m, 1), ...
# computed so far; the lock keeps concurrent callers from appending twice.
_rows: dict[int, list[QLaurentPoly]] = {}
_rows_lock = threading.Lock()


def qbinomial(m: int, n: int) -> QLaurentPoly:
    """Gaussian binomial coefficient, a polynomial in q; zero unless 0 <= n <= m.

    Computed literally from the quotient
    (1-q^m)(1-q^(m-1))...(1-q^(m-n+1)) / (1-q)(1-q^2)...(1-q^n),
    one factor pair at a time.  Its partial quotients are the Gaussian
    binomials qbinomial(m, t) for t <= n, and each is kept in a store per m,
    so the next one costs a single multiply by (1-q^(m-t+1)) and a single
    exact division by (1-q^t).  Every partial quotient is a polynomial, so
    each division is exact; exact_div raising here would reveal a real bug
    instead of hiding it.
    """
    if not 0 <= n <= m:
        return ZERO
    with _rows_lock:
        row = _rows.setdefault(m, [ONE])
        for t in range(len(row), n + 1):
            row.append((row[-1] * _one_minus_q_pow(m - t + 1)).exact_div(_one_minus_q_pow(t)))
        return row[n]
