"""Formula engines for counting square-zero strictly upper-triangular matrices.

Independent routes produce the same polynomials:

* ``closed_form(n)`` evaluates the alternating-binomial closed form directly.
* ``recurrence_rows()`` yields the rows ``[t(n, 0), ..., t(n, n//2)]``
  for n = 0, 1, 2, ... from their two-term recurrence, holding only the
  row last yielded; ``recurrence_table(n_max)`` is its first n_max + 1 rows
  as a list, ``rows[n]``; ``row_total`` sums a row.
* ``constant_term_entry(n, r)`` rebuilds one table entry as the constant
  term (in w) of a finite Laurent product.
* ``constant_term_total(n)`` rebuilds a whole row sum the same way, with
  the inner alternating q-binomial sum expanded term by term.

``ENGINES`` is the one list of these routes, by the method names the CLI
takes: ``compute --method`` reads its choices from it and ``verify`` checks
every entry.  Adding a route means adding one entry there.

``recurrence_residual`` substitutes the constant-term formula into the
recurrence and returns what must be the zero polynomial;
``alternating_qbinomial_sum`` and its closed form are the two sides of the
identity that collapses the row-sum formula.  Everything is exact:
disagreement surfaces as structural polynomial inequality, never as drift.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from typing import Callable, Iterator, Mapping

from .qbinom import binomial, qbinomial
from .qpoly import ONE, ZERO, QLaurentPoly, linear_combination


class NonPolynomialResultError(ArithmeticError):
    """A constant-term extraction produced negative q-exponents (a bug)."""


class WLaurent:
    """Finite Laurent object in w whose coefficients are QLaurentPoly values.

    The engines never form a whole w-Laurent product: they read off its w^0
    coefficient alone.  This class forms the whole product, and the tests
    check that read-off against it.

    Support is always finite here: every series that feeds a constant-term
    extraction is truncated to the w-exponents that can still reach w^0
    after multiplication, so no formal-power-series machinery is needed.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, QLaurentPoly] | None = None):
        self._terms = {e: p for e, p in (terms or {}).items() if p}

    def constant_term(self) -> QLaurentPoly:
        """The coefficient of w^0."""
        return self._terms.get(0, ZERO)

    def shift(self, k: int) -> WLaurent:
        """Multiply by w**k."""
        if k == 0:
            return self
        return WLaurent({e + k: p for e, p in self._terms.items()})

    def __mul__(self, other: WLaurent) -> WLaurent:
        if not isinstance(other, WLaurent):
            return NotImplemented
        out: dict[int, QLaurentPoly] = {}
        for e1, p1 in self._terms.items():
            for e2, p2 in other._terms.items():
                e = e1 + e2
                prod = p1 * p2
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        return WLaurent(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {p}" for e, p in sorted(self._terms.items()))
        return f"WLaurent({{{inner}}})"


def recurrence_rows() -> Iterator[list[QLaurentPoly]]:
    """The rows t(n, 0..n//2) for n = 0, 1, 2, ..., filled by
    t(n+1, r+1) = q^(r+1) t(n, r+1) + (q^(n-r) - q^r) t(n, r), t(n, 0) = 1.

    Rows stop at r = n//2: at n = 2r the coefficient q^(n-r) - q^r vanishes,
    so the step past the last entry of a row is zero and nothing outside
    0 <= 2r <= n is ever nonzero.  Each row is built from the one before it
    with a zero appended for t(n, n//2 + 1).  Row 0 is the single entry 1
    (the empty matrix counts once), which the recurrence never reads but
    keeps row sums defined for n = 0.  Row n + 1 is built only when asked
    for, and between rows only the row last yielded is held.
    """
    row = [ONE]
    for n in count():
        yield row
        row = [ONE] + [
            _recurrence_step(n, r, same, lower)
            for r, lower, same in zip(range((n + 1) // 2), row, row[1:] + [ZERO])
        ]


def recurrence_table(n_max: int) -> list[list[QLaurentPoly]]:
    """The rows t(n, 0..n//2) for 0 <= n <= n_max: the first n_max + 1 rows
    of ``recurrence_rows``, as a list."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return list(islice(recurrence_rows(), n_max + 1))


def row_total(entries: list[QLaurentPoly]) -> QLaurentPoly:
    """The sum of a row of table entries, as one ``linear_combination``."""
    return linear_combination((1, 0, p) for p in entries)


def _recurrence_step(n: int, r: int, t_same: QLaurentPoly, t_lower: QLaurentPoly) -> QLaurentPoly:
    """The recurrence's right side q^(r+1) t(n, r+1) + (q^(n-r) - q^r) t(n, r),
    given t(n, r+1) and t(n, r), as one sum of shifted terms."""
    return linear_combination(((1, r + 1, t_same), (1, n - r, t_lower), (-1, r, t_lower)))


def closed_form(n: int) -> QLaurentPoly:
    """The count of n x n strictly upper-triangular square-zero matrices
    over a q-element field, as a polynomial in q.

    With n = 2m + odd (odd in {0, 1}) the j-th term is
    [C(n, m-3j) - C(n, m-3j-1)] q^(m^2 + odd*m - 3j^2 - (1+odd)j): for even n
    the exponent is m^2-3j^2-j, for odd n it is m^2+m-3j^2-2j.
    j runs over every integer for which a binomial survives; both vanish
    once |3j| exceeds n+1, so scanning |j| <= n covers the full support.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m, odd = divmod(n, 2)
    terms: dict[int, int] = {}
    for j in range(-n, n + 1):
        c = binomial(n, m - 3 * j) - binomial(n, m - 3 * j - 1)
        if c:
            e = m * m + odd * m - 3 * j * j - (1 + odd) * j
            terms[e] = terms.get(e, 0) + c
    return QLaurentPoly(terms)


def _envelope(n: int, k: int) -> int:
    """The coefficient of w^k in (1 - w)(1 + w)^n: C(n, k) - C(n, k-1)."""
    return binomial(n, k) - binomial(n, k - 1)


def constant_term_entry(n: int, r: int) -> QLaurentPoly:
    """Table entry t(n, r) via constant-term extraction:

    q^(r(n-r)) * CT_w[ (1-w)(1+w)^n w^(-r) *
    sum_i (-1)^i q^(-(i+1)i/2 - i(n-2r)) qbinomial(i+n-2r, i) w^i ].

    Only w^0 is ever formed: series term i meets the envelope coefficient
    of w^(r-i), so the extraction is sum_{i=0}^{r} e_(r-i) s_i with e_k from
    ``_envelope`` and s_i the i-th series term.  Terms with i > r would need
    a negative envelope exponent, so the infinite sum stops at i = r.
    """
    if not 0 <= 2 * r <= n:
        raise ValueError(f"need 0 <= 2r <= n, got n={n}, r={r}")
    result = linear_combination(
        (
            (-1) ** i * _envelope(n, r - i),
            r * (n - r) - ((i + 1) * i) // 2 - i * (n - 2 * r),
            qbinomial(i + n - 2 * r, i),
        )
        for i in range(r + 1)
    )
    if not result.is_polynomial():
        raise NonPolynomialResultError(f"non-polynomial CT result for entry ({n}, {r}): {result}")
    return result


def recurrence_residual(n: int, r: int) -> QLaurentPoly:
    """Substitute the constant-term formula into the recurrence step:

        ct(n+1, r+1) - q^(r+1) ct(n, r+1) - (q^(n-r) - q^r) ct(n, r)

    with ct(n, s) taken as zero when 2s > n.  Identically the zero
    polynomial when the constant-term formula satisfies the recurrence.
    """
    if not (r >= 0 and 2 * (r + 1) <= n + 1):
        raise ValueError(f"recurrence_residual needs r >= 0 and 2(r+1) <= n+1, got n={n}, r={r}")
    same = constant_term_entry(n, r + 1) if 2 * (r + 1) <= n else ZERO
    return constant_term_entry(n + 1, r + 1) - _recurrence_step(n, r, same, constant_term_entry(n, r))


@lru_cache(maxsize=None)
def alternating_qbinomial_sum(m: int) -> QLaurentPoly:
    """sum_{i=0}^{floor(m/2)} (-1)^i q^(i(i-1)/2) qbinomial(m-i, i), expanded
    term by term once per m and then remembered: by the identity each value
    is a monomial or zero, so the memo stays small."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return linear_combination(
        (-1 if i % 2 else 1, i * (i - 1) // 2, qbinomial(m - i, i)) for i in range(m // 2 + 1)
    )


def alternating_qbinomial_sum_closed(m: int) -> QLaurentPoly:
    """The closed form of ``alternating_qbinomial_sum``: zero when
    m = 2 (mod 3), otherwise (-1)^floor(m/3) q^(m(m-1)/6).

    In the surviving residue classes m(m-1)/6 is always an integer; the
    integrality guard is unreachable by number theory and kept as a
    tripwire.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m % 3 == 2:
        return ZERO
    numerator = m * (m - 1)
    if numerator % 6:
        raise ArithmeticError(f"non-integral exponent m(m-1)/6 for m={m}")
    sign = -1 if (m // 3) % 2 else 1
    return QLaurentPoly.monomial(sign, numerator // 6)


def constant_term_total(n: int) -> QLaurentPoly:
    """Row total via a single constant-term extraction:

    CT_w[ (1-w)(1+w)^n * sum_{l=0}^{floor(n/2)} w^(-l) q^(ln-l^2) *
          alternating_qbinomial_sum(n-2l) ],

    read off as sum_l e_l q^(ln-l^2) alternating_qbinomial_sum(n-2l) with
    e_l the envelope coefficient of w^l.  The inner sum is expanded term by
    term, never taken from its closed form.  Equals the row sum of the
    table by construction.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    result = linear_combination(
        (_envelope(n, l), l * n - l * l, alternating_qbinomial_sum(n - 2 * l))
        for l in range(n // 2 + 1)
    )
    if not result.is_polynomial():
        raise NonPolynomialResultError(f"non-polynomial CT result for total ({n}): {result}")
    return result


# Each route to row n, by method name, in the order ``--method`` lists
# them.  ``closed`` and ``sumanna`` give the row total; ``recurrence`` and
# ``anna`` give the entries t(n, 0..n//2).  Each looks its engine up by name
# when called, so a patched or traced module function is the one that runs.
ENGINES: dict[str, Callable[[int], QLaurentPoly | list[QLaurentPoly]]] = {
    "closed": lambda n: closed_form(n),
    "recurrence": lambda n: recurrence_table(n)[n],
    "anna": lambda n: [constant_term_entry(n, r) for r in range(n // 2 + 1)],
    "sumanna": lambda n: constant_term_total(n),
}


def engine_total(name: str, n: int) -> QLaurentPoly:
    """The row total of engine ``name`` at n: its result, or the sum of its entries."""
    out = ENGINES[name](n)
    return out if isinstance(out, QLaurentPoly) else row_total(out)
