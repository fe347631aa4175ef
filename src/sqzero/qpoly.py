"""Exact Laurent polynomial arithmetic in the single variable q.

A polynomial is stored as its valuation (lowest exponent, possibly negative)
and the tuple of coefficients up to its degree, so memory grows with
degree - valuation + 1; every polynomial the library forms spans O(n^2) or
O(m^2) exponents.  ``terms`` is a read-only exponent -> coefficient view.
Python ints are arbitrary precision, so Catalan-sized coefficients never
overflow.

The tuple is trimmed of zeros at both ends and zero is the empty tuple at
valuation 0, so structural equality is polynomial equality.  Values are
immutable, which makes them safe to share across threads.

Every sum is formed by ``linear_combination``: sum c * q^s * p over triples
(c, s, p) in one list, trimmed once.  ``+``, ``-`` and the product (a sum of
shifted, scaled copies of one operand) are calls of it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, neg, sub
from types import MappingProxyType
from typing import Mapping


class InexactDivisionError(ArithmeticError):
    """Division left a remainder where an exact quotient was required."""


def _poly(lo: int, coeffs) -> QLaurentPoly:
    # sum coeffs[i] q^(lo+i), trimmed of zeros at both ends
    i, j = 0, len(coeffs)
    while j and not coeffs[j - 1]:
        j -= 1
    while i < j and not coeffs[i]:
        i += 1
    poly = QLaurentPoly.__new__(QLaurentPoly)
    poly._lo, poly._c = (lo + i, tuple(coeffs[i:j])) if i < j else (0, ())
    return poly


def linear_combination(terms) -> QLaurentPoly:
    """sum c * q^s * p over the triples (c, s, p) of ``terms``.

    One list spans the extreme exponents of the terms; each term is added in
    one slice update, a coefficient of 1 or -1 without scaling, and the sum
    is trimmed once.  Zero coefficients and zero polynomials are skipped.
    """
    spans = [(c, s + p._lo, p._c) for c, s, p in terms if c and p._c]
    if not spans:
        return ZERO
    lo = min([s for _, s, _ in spans])
    out = [0] * (max([s + len(p) for _, s, p in spans]) - lo)
    (c, s, p), *rest = spans
    # the first term lands on zeros, so it is written rather than added
    out[s - lo : s - lo + len(p)] = p if c == 1 else map(c.__mul__, p)
    for c, s, p in rest:
        i = s - lo
        j = i + len(p)
        if c == 1:
            out[i:j] = map(add, out[i:j], p)
        elif c == -1:
            out[i:j] = map(sub, out[i:j], p)
        else:
            out[i:j] = map(add, out[i:j], map(c.__mul__, p))
    return _poly(lo, out)


class QLaurentPoly:
    """Immutable Laurent polynomial in q with integer coefficients."""

    __slots__ = ("_lo", "_c")

    def __init__(self, terms: Mapping[int, int] | None = None):
        data = {e: c for e, c in terms.items() if c} if terms else {}
        lo = min(data, default=0)
        coeffs = [0] * (max(data, default=-1) - lo + 1)
        for e, c in data.items():
            coeffs[e - lo] = c
        self._lo, self._c = lo, tuple(coeffs)

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> QLaurentPoly:
        """coeff * q**exp"""
        return _poly(exp, (coeff,))

    @property
    def terms(self) -> Mapping[int, int]:
        """Read-only exponent -> coefficient view (never contains zeros)."""
        lo = self._lo
        return MappingProxyType({lo + i: c for i, c in enumerate(self._c) if c})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> QLaurentPoly | None:
        if isinstance(value, QLaurentPoly):
            return value
        if isinstance(value, int):
            return _poly(0, (value,))
        return None

    def __add__(self, other) -> QLaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return linear_combination(((1, 0, self), (1, 0, rhs)))

    __radd__ = __add__

    def __neg__(self) -> QLaurentPoly:
        return _poly(self._lo, tuple(map(neg, self._c)))

    def __sub__(self, other) -> QLaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return linear_combination(((1, 0, self), (-1, 0, rhs)))

    def __rsub__(self, other) -> QLaurentPoly:
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return linear_combination(((1, 0, lhs), (-1, 0, self)))

    def __mul__(self, other) -> QLaurentPoly:
        if isinstance(other, int):
            return linear_combination(((other, 0, self),))
        if not isinstance(other, QLaurentPoly):
            return NotImplemented
        a, b = self, other
        # a shifted, scaled copy of the denser operand per nonzero of the sparser
        if len(a._c) - a._c.count(0) > len(b._c) - b._c.count(0):
            a, b = b, a
        return linear_combination((x, a._lo + i, b) for i, x in enumerate(a._c))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QLaurentPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> QLaurentPoly:
        """Multiply by q**k, i.e. shift every exponent by k."""
        if k == 0 or not self._c:
            return self
        return _poly(self._lo + k, self._c)

    def exact_div(self, divisor: QLaurentPoly | int) -> QLaurentPoly:
        """Exact quotient self / divisor.

        Long division in one upward walk over the quotient's exponents: each
        step cancels the lowest remaining term and subtracts only above it.
        A divisor q^v (1 - q^j) takes a whole-slice path instead: the quotient
        is the prefix sum of the dividend's coefficients along each residue
        class mod j, and the division is exact iff the top j sums are zero.
        Raises InexactDivisionError when a coefficient is not a multiple of
        the divisor's lowest one, when a remainder is left, or when the
        quotient range is empty; that always means a caller bug, so it is
        never truncated silently.  An int divisor is a constant polynomial.
        """
        divisor = self._coerce(divisor)
        if divisor is None:
            raise TypeError("exact_div needs a QLaurentPoly or int divisor")
        d = divisor._c
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._c:
            return ZERO
        rem = list(self._c)
        # an exact quotient spans val(self)-val(divisor) .. deg(self)-deg(divisor)
        n = len(rem) - len(d) + 1
        j = len(d) - 1
        if n > 0 and j and d[0] == 1 and d[-1] == -1 and not any(d[1:-1]):
            for r in range(j):
                rem[r::j] = accumulate(rem[r::j])
            if not any(rem[n:]):
                return _poly(self._lo - divisor._lo, rem[:n])
            raise InexactDivisionError(f"inexact division: ({self}) / ({divisor})")
        lead = d[0]
        rest = [(k, c) for k, c in enumerate(d) if k and c]
        quot = [0] * n
        for i in range(n):
            coeff, residue = divmod(rem[i], lead)
            if residue:
                break
            if coeff:
                quot[i] = coeff
                for k, dk in rest:
                    rem[i + k] -= coeff * dk
        else:
            if quot and not any(rem[n:]):
                return _poly(self._lo - divisor._lo, quot)
        raise InexactDivisionError(f"inexact division: ({self}) / ({divisor})")

    def eval_at(self, x: int) -> int | Fraction:
        """Exact value at q = x: an int for polynomials, else a Fraction.

        x = 0 is rejected when negative exponents are present.
        """
        value = 0
        for c in reversed(self._c):
            value = value * x + c
        if self._lo >= 0:
            return value * x**self._lo
        if x == 0:
            raise ZeroDivisionError("evaluation at zero with negative exponents")
        total = Fraction(value, x**-self._lo)
        return int(total) if total.denominator == 1 else total

    # -- structure ----------------------------------------------------------

    def is_polynomial(self) -> bool:
        """True iff no exponent is negative."""
        return self._lo >= 0

    def degree(self) -> int | None:
        """Highest exponent, or None for the zero polynomial."""
        return self._lo + len(self._c) - 1 if self._c else None

    def valuation(self) -> int | None:
        """Lowest exponent, or None for the zero polynomial."""
        return self._lo if self._c else None

    def leading_coefficient(self) -> int:
        return self._c[-1] if self._c else 0

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._lo == rhs._lo and self._c == rhs._c

    def __hash__(self) -> int:
        # constants hash like the ints they equal
        if self._lo == 0 and len(self._c) < 2:
            return hash(self._c[0] if self._c else 0)
        return hash((self._lo, self._c))

    def __str__(self) -> str:
        """Canonical text: ascending exponents, e.g. ``-q + 2*q^2``."""
        parts: list[str] = []
        for e, c in self.terms.items():
            mag = abs(c)
            var = "q" if e == 1 else f"q^{e}"
            body = str(mag) if e == 0 else var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"QLaurentPoly({dict(self.terms)!r})"


ZERO = QLaurentPoly()
ONE = QLaurentPoly({0: 1})
Q = QLaurentPoly({1: 1})
