"""Arithmetic for the finite fields GF(q), q = p^k <= 32.

Elements are plain ints in range(q): the base-p digits of the value are
the coefficients of the element's polynomial representation, so 0 and 1
are always the additive and multiplicative identities and prime fields
are ordinary integers mod p.

Every field precomputes full q x q addition and multiplication tables, so
the enumeration oracle's inner loop is two list lookups.  Extension fields
are built from a fixed irreducible modulus; any irreducible modulus of the
right degree gives an isomorphic field, hence identical counts, so the
built-in choices below only need to be irreducible, not canonical.
"""

from __future__ import annotations

import itertools

_PRIME_ORDERS = frozenset({2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31})

# q -> (p, modulus); modulus coefficients ascending (constant first), monic
_EXTENSION_MODULI: dict[int, tuple[int, tuple[int, ...]]] = {
    4: (2, (1, 1, 1)),         # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),      # x^3 + x + 1
    9: (3, (1, 0, 1)),         # x^2 + 1
    16: (2, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    25: (5, (2, 0, 1)),        # x^2 + 2
    27: (3, (1, 2, 0, 1)),     # x^3 + 2x + 1
}

SUPPORTED_ORDERS: tuple[int, ...] = tuple(sorted(_PRIME_ORDERS | set(_EXTENSION_MODULI)))


def _poly_rem(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a mod b over GF(p); coefficients ascending, b monic."""
    a = [c % p for c in a]
    deg_b = len(b) - 1
    while len(a) > deg_b:
        lead = a[-1]
        if lead:
            off = len(a) - 1 - deg_b
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - lead * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..k//2 over GF(p);
    exhaustive and cheap at the degrees supported here."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not _poly_rem(list(modulus), divisor, p):
                return False
    return True


def _digits(value: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def _value(digits: tuple[int, ...], p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


class FiniteField:
    """GF(q) for q in SUPPORTED_ORDERS; immutable once constructed."""

    __slots__ = ("q", "p", "k", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, q: int):
        if q in _PRIME_ORDERS:
            p, modulus, k = q, None, 1
        elif q in _EXTENSION_MODULI:
            p, modulus = _EXTENSION_MODULI[q]
            k = len(modulus) - 1
            if not _is_irreducible(modulus, p):
                raise ArithmeticError(f"built-in modulus for GF({q}) is not irreducible")
        else:
            raise ValueError(f"not a supported prime power: {q}")
        self.q, self.p, self.k = q, p, k
        self.modulus = modulus
        reduce_by = modulus or (0, 1)  # GF(p) is GF(p)[x]/(x)
        digits = [_digits(v, p, k) for v in range(q)]
        self._add = [
            [_value(tuple((x + y) % p for x, y in zip(da, db)), p) for db in digits]
            for da in digits
        ]
        self._neg = [_value(tuple((-x) % p for x in da), p) for da in digits]
        mul = []
        for da in digits:
            row = []
            for db in digits:
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] += x * y
                rem = _poly_rem(prod, reduce_by, p)
                row.append(_value(tuple(rem) + (0,) * (k - len(rem)), p))
            mul.append(row)
        self._mul = mul
        self._inv = [0] + [mul[a].index(1) for a in range(1, q)]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        """Base-p digits of an element, i.e. its polynomial coefficients."""
        return _digits(a, self.p, self.k)

    def element(self, coeffs) -> int:
        """Element with the given polynomial coefficients (ascending)."""
        coeffs = tuple(coeffs)
        if len(coeffs) > self.k or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"invalid coefficients for GF({self.q}): {coeffs}")
        return _value(coeffs + (0,) * (self.k - len(coeffs)), self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteField):
            return NotImplemented
        return self.q == other.q

    def __hash__(self) -> int:
        return hash(("FiniteField", self.q))

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"
