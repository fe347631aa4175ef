"""Formula engines for counting square-zero strictly upper-triangular matrices.

Independent routes produce the same polynomials:

* ``closed_form(n)`` evaluates the alternating-binomial closed form directly.
* ``recurrence_table(n_max)`` fills the triangular table of per-index
  polynomials from its two-term recurrence; row sums give the totals.
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

from typing import Callable, Iterator, Mapping

from .qbinom import binomial, qbinomial
from .qpoly import ONE, ZERO, QLaurentPoly


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
        data: dict[int, QLaurentPoly] = {}
        if terms:
            for exp, poly in terms.items():
                if poly:
                    data[exp] = poly
        self._terms = data

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, w_exp: int) -> QLaurentPoly:
        return self._terms.get(w_exp, ZERO)

    def constant_term(self) -> QLaurentPoly:
        """The coefficient of w^0."""
        return self._terms.get(0, ZERO)

    def shift(self, k: int) -> WLaurent:
        """Multiply by w**k."""
        if k == 0:
            return self
        return WLaurent({e + k: p for e, p in self._terms.items()})

    def scale(self, poly: QLaurentPoly) -> WLaurent:
        """Multiply every coefficient by a q-polynomial."""
        return WLaurent({e: p * poly for e, p in self._terms.items()})

    def __add__(self, other: WLaurent) -> WLaurent:
        if not isinstance(other, WLaurent):
            return NotImplemented
        out = dict(self._terms)
        for e, p in other._terms.items():
            out[e] = out.get(e, ZERO) + p
        return WLaurent(out)

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

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {p}" for e, p in sorted(self._terms.items()))
        return f"WLaurent({{{inner}}})"


class TriangularTable:
    """Triangular array of polynomials t(n, r) for 0 <= n <= n_max, 0 <= 2r <= n.

    Outside the stored wedge every entry is zero: the recurrence coefficient
    q^(n-r) - q^r vanishes at n = 2r, so nonzero support can never escape
    0 <= 2r <= n even though the recurrence itself never says so.
    """

    __slots__ = ("n_max", "_entries")

    def __init__(self, n_max: int, entries: dict[tuple[int, int], QLaurentPoly]):
        self.n_max = n_max
        self._entries = entries

    def entry(self, n: int, r: int) -> QLaurentPoly:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} outside table (n_max={self.n_max})")
        return self._entries.get((n, r), ZERO)

    def row(self, n: int) -> list[QLaurentPoly]:
        """The entries t(n, 0..n//2)."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} outside table (n_max={self.n_max})")
        return [self._entries.get((n, r), ZERO) for r in range(n // 2 + 1)]

    def total(self, n: int) -> QLaurentPoly:
        """Row sum over all stored r."""
        return sum(self.row(n), ZERO)

    def items(self) -> Iterator[tuple[tuple[int, int], QLaurentPoly]]:
        return iter(sorted(self._entries.items()))


def recurrence_table(n_max: int) -> TriangularTable:
    """Fill the table by t(n+1, r+1) = q^(r+1) t(n, r+1) + (q^(n-r) - q^r) t(n, r),
    with t(n, 0) = 1 and entries outside 0 <= 2r <= n treated as zero.

    Row 0 is seeded with the single entry 1 (the empty matrix counts once),
    which the recurrence never reads but keeps row sums defined for n = 0.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    entries: dict[tuple[int, int], QLaurentPoly] = {(0, 0): ONE}
    for n in range(n_max):
        entries[(n + 1, 0)] = ONE
        for r in range((n + 1) // 2):
            entries[(n + 1, r + 1)] = _recurrence_step(
                n, r, entries.get((n, r + 1), ZERO), entries.get((n, r), ZERO)
            )
    return TriangularTable(n_max, entries)


def _recurrence_step(n: int, r: int, t_same: QLaurentPoly, t_lower: QLaurentPoly) -> QLaurentPoly:
    """The recurrence's right side q^(r+1) t(n, r+1) + (q^(n-r) - q^r) t(n, r),
    given t(n, r+1) and t(n, r), as shifts alone."""
    return t_same.shift(r + 1) + t_lower.shift(n - r) - t_lower.shift(r)


def closed_form(n: int) -> QLaurentPoly:
    """The count of n x n strictly upper-triangular square-zero matrices
    over a q-element field, as a polynomial in q.

    For n = 2m the j-th term is [C(2m, m-3j) - C(2m, m-3j-1)] q^(m^2-3j^2-j);
    for n = 2m+1 it is [C(2m+1, m-3j) - C(2m+1, m-3j-1)] q^(m^2+m-3j^2-2j).
    j runs over every integer for which a binomial survives; both vanish
    once |3j| exceeds n+1, so scanning |j| <= n covers the full support.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n // 2
    terms: dict[int, int] = {}
    for j in range(-n, n + 1):
        c = binomial(n, m - 3 * j) - binomial(n, m - 3 * j - 1)
        if c:
            if n % 2 == 0:
                e = m * m - 3 * j * j - j
            else:
                e = m * m + m - 3 * j * j - 2 * j
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
    result = ZERO
    for i in range(r + 1):
        term = qbinomial(i + n - 2 * r, i).shift(-((i + 1) * i) // 2 - i * (n - 2 * r))
        e = _envelope(n, r - i)
        result = result + (-e if i % 2 else e) * term
    result = result.shift(r * (n - r))
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


def alternating_qbinomial_sum(m: int) -> QLaurentPoly:
    """sum_{i=0}^{floor(m/2)} (-1)^i q^(i(i-1)/2) qbinomial(m-i, i), expanded
    term by term."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    total = ZERO
    for i in range(m // 2 + 1):
        term = qbinomial(m - i, i).shift(i * (i - 1) // 2)
        total = total - term if i % 2 else total + term
    return total


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
    result = ZERO
    for l in range(n // 2 + 1):
        result = result + _envelope(n, l) * alternating_qbinomial_sum(n - 2 * l).shift(l * n - l * l)
    if not result.is_polynomial():
        raise NonPolynomialResultError(f"non-polynomial CT result for total ({n}): {result}")
    return result


# Each route to row n, by method name, in the order ``--method`` lists
# them.  ``closed`` and ``sumanna`` give the row total; ``recurrence`` and
# ``anna`` give the entries t(n, 0..n//2).  Each looks its engine up by name
# when called, so a patched or traced module function is the one that runs.
ENGINES: dict[str, Callable[[int], QLaurentPoly | list[QLaurentPoly]]] = {
    "closed": lambda n: closed_form(n),
    "recurrence": lambda n: recurrence_table(n).row(n),
    "anna": lambda n: [constant_term_entry(n, r) for r in range(n // 2 + 1)],
    "sumanna": lambda n: constant_term_total(n),
}


def engine_total(name: str, n: int) -> QLaurentPoly:
    """The row total of engine ``name`` at n: its result, or the sum of its entries."""
    out = ENGINES[name](n)
    return out if isinstance(out, QLaurentPoly) else sum(out, ZERO)
