"""Binomial coefficients and their Gaussian (q-analogue) counterparts."""

from __future__ import annotations

import math
from functools import lru_cache

from .qpoly import ONE, ZERO, QLaurentPoly, _poly


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


# _rows[m] holds the partial quotients qbinomial(m, 0..k) computed so far,
# k <= m//2, as a tuple that is replaced whole and never changed in place.
_rows: dict[int, tuple[QLaurentPoly, ...]] = {}


def qbinomial(m: int, n: int) -> QLaurentPoly:
    """Gaussian binomial coefficient, a polynomial in q; zero unless 0 <= n <= m.

    Computed literally from the quotient
    (1-q^m)(1-q^(m-1))...(1-q^(m-t+1)) / (1-q)(1-q^2)...(1-q^t),
    one factor pair at a time, with t = min(n, m - n): [m, n] = [m, m - n],
    so row m only ever holds its first half, columns 0..m//2.  The partial
    quotients are the Gaussian binomials qbinomial(m, t), and each row is
    kept in a store, so the next column costs a single multiply by
    (1-q^(m-t+1)) and a single exact division by (1-q^t).  Every partial
    quotient is a polynomial, so each division is exact; exact_div raising
    here would reveal a real bug instead of hiding it.

    A row is extended by building a longer tuple and storing it with one
    assignment, so the store needs no lock: threads racing on one row at
    worst build it twice and store equal values.
    """
    if not 0 <= n <= m:
        return ZERO
    n = min(n, m - n)
    row = _rows.get(m, (ONE,))
    if n >= len(row):
        grown = list(row)
        for t in range(len(row), n + 1):
            c = (grown[-1] * _one_minus_q_pow(m - t + 1)).exact_div(_one_minus_q_pow(t))._c
            low = c[: (len(c) + 1) // 2]
            mirrored = low + low[: len(c) // 2][::-1]
            if mirrored != c:
                raise ArithmeticError(f"[{m}, {t}] is not palindromic")
            grown.append(_poly(0, mirrored))
        row = _rows[m] = tuple(grown)
    return row[n]
