"""Exact Laurent polynomial arithmetic in the single variable q.

A polynomial is stored sparsely as a map from integer exponents (negative
allowed) to nonzero integer coefficients.  Python ints are arbitrary
precision, so coefficients that grow combinatorially -- the counting
polynomials here have Catalan-sized leading coefficients -- never overflow.

Canonical form is maintained everywhere: zero coefficients are never
stored and the zero polynomial is the empty map, so structural equality of
the maps is polynomial equality.  Values are immutable and every operation
returns a fresh value, which makes them safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping


class InexactDivisionError(ArithmeticError):
    """Division left a remainder where an exact quotient was required."""


class QLaurentPoly:
    """Immutable Laurent polynomial in q with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    data[exp] = coeff
        self._terms = data

    @classmethod
    def _from_clean(cls, data: dict[int, int]) -> QLaurentPoly:
        # internal: `data` must already be free of zero coefficients
        poly = cls.__new__(cls)
        poly._terms = data
        return poly

    @classmethod
    def constant(cls, c: int) -> QLaurentPoly:
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> QLaurentPoly:
        """coeff * q**exp"""
        return cls({exp: coeff})

    @property
    def terms(self) -> Mapping[int, int]:
        """Read-only exponent -> coefficient view (never contains zeros)."""
        return MappingProxyType(self._terms)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> QLaurentPoly | None:
        if isinstance(value, QLaurentPoly):
            return value
        if isinstance(value, int):
            return QLaurentPoly({0: value})
        return None

    def __add__(self, other) -> QLaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in rhs._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return QLaurentPoly._from_clean(out)

    __radd__ = __add__

    def __neg__(self) -> QLaurentPoly:
        return QLaurentPoly._from_clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> QLaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> QLaurentPoly:
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other) -> QLaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in rhs._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return QLaurentPoly._from_clean(out)

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
        if k == 0 or not self._terms:
            return self
        return QLaurentPoly._from_clean({e + k: c for e, c in self._terms.items()})

    def exact_div(self, divisor: QLaurentPoly) -> QLaurentPoly:
        """Exact quotient self / divisor.

        Long division from the lowest exponent up.  Each step cancels the
        lowest remaining term and subtracts only at higher exponents, so one
        upward walk over the quotient's exponent range visits each exponent
        once.  Raises InexactDivisionError when a coefficient is not a
        multiple of the divisor's lowest coefficient, or when any remainder
        is left after the walk; a remainder here always means a caller bug,
        so it must never be truncated silently.
        """
        if not divisor._terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._terms:
            return ZERO
        div_lo = min(divisor._terms)
        div_lead = divisor._terms[div_lo]
        div_rest = [(e - div_lo, c) for e, c in divisor._terms.items() if e != div_lo]
        # exponents of an exact quotient lie in
        # [min(self)-min(divisor), max(self)-max(divisor)]
        hi_bound = max(self._terms) - max(divisor._terms)
        rem = dict(self._terms)
        quot: dict[int, int] = {}
        for lo in range(min(rem), hi_bound + div_lo + 1):
            c = rem.pop(lo, 0)
            if not c:
                continue
            coeff, residue = divmod(c, div_lead)
            if residue:
                raise InexactDivisionError(f"inexact division: ({self}) / ({divisor})")
            quot[lo - div_lo] = coeff
            for offset, d in div_rest:
                e = lo + offset
                rem[e] = rem.get(e, 0) - coeff * d
        if any(rem.values()):
            raise InexactDivisionError(f"inexact division: ({self}) / ({divisor})")
        return QLaurentPoly._from_clean(quot)

    def eval_at(self, x: int) -> int | Fraction:
        """Exact value at q = x: an int for polynomials, else a Fraction.

        x = 0 is rejected when negative exponents are present.
        """
        whole = 0
        frac = Fraction(0)
        for e, c in self._terms.items():
            if e >= 0:
                whole += c * x**e
            else:
                if x == 0:
                    raise ZeroDivisionError("evaluation at zero with negative exponents")
                frac += Fraction(c, x ** (-e))
        if not frac:
            return whole
        total = frac + whole
        return int(total) if total.denominator == 1 else total

    # -- structure ----------------------------------------------------------

    def is_polynomial(self) -> bool:
        """True iff no exponent is negative."""
        return all(e >= 0 for e in self._terms)

    def degree(self) -> int | None:
        """Highest exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def valuation(self) -> int | None:
        """Lowest exponent, or None for the zero polynomial."""
        return min(self._terms) if self._terms else None

    def leading_coefficient(self) -> int:
        return self._terms[max(self._terms)] if self._terms else 0

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        # constants hash like the ints they equal
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return hash(self._terms[0])
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        """Canonical text: ascending exponents, e.g. ``-q + 2*q^2``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self._terms):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QLaurentPoly({dict(sorted(self._terms.items()))!r})"


ZERO = QLaurentPoly()
ONE = QLaurentPoly({0: 1})
Q = QLaurentPoly({1: 1})
