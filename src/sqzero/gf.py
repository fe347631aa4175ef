"""Arithmetic for the finite fields GF(q), q = p^k <= 32.

Elements are plain ints in range(q): the base-p digits of the value are
the coefficients of the element's polynomial representation, so 0 and 1
are always the additive and multiplicative identities and prime fields
are ordinary integers mod p.

Every field precomputes its q x q addition and multiplication tables and
its negation table as tuples, and those tables are its interface, so the
enumeration oracle's inner loop is tuple lookups.  Extension fields are
built from a fixed monic modulus; any irreducible modulus of the right
degree gives an isomorphic field, hence identical counts, so the built-in
choices below only need to be irreducible, not canonical.  Each field
checks its own multiplication table: a nonzero element with no inverse is
a zero divisor, so the modulus is reducible, and that raises ArithmeticError.
"""

from __future__ import annotations

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


def _digits(value: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        value, d = divmod(value, p)
        out.append(d)
    return tuple(out)


def _value(digits: tuple[int, ...] | list[int], p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


class FiniteField:
    """GF(q) for q in SUPPORTED_ORDERS; immutable once constructed.  Its
    interface is the tables add[a][b], mul[a][b] and neg[a], and inv(a)."""

    __slots__ = ("q", "p", "k", "modulus", "add", "mul", "neg", "_inv")

    def __init__(self, q: int):
        if q in _PRIME_ORDERS:
            p, modulus, k = q, None, 1
        elif q in _EXTENSION_MODULI:
            p, modulus = _EXTENSION_MODULI[q]
            k = len(modulus) - 1
        else:
            raise ValueError(f"not a supported prime power: {q}")
        self.q, self.p, self.k, self.modulus = q, p, k, modulus
        digits = [_digits(v, p, k) for v in range(q)]
        self.add = tuple(
            tuple(_value(tuple((x + y) % p for x, y in zip(da, db)), p) for db in digits)
            for da in digits
        )
        self.neg = tuple(row.index(0) for row in self.add)
        mul = []
        for da in digits:
            row = []
            for db in digits:
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] += x * y
                # x^k = -(m_0 + ... + m_{k-1} x^{k-1}); nothing to fold when k = 1
                for top in range(2 * k - 2, k - 1, -1):
                    for i in range(k):
                        prod[top - k + i] -= prod[top] * modulus[i]
                row.append(_value([c % p for c in prod[:k]], p))
            mul.append(tuple(row))
        if any(1 not in row for row in mul[1:]):
            raise ArithmeticError(f"built-in modulus for GF({q}) is not irreducible")
        self.mul = tuple(mul)
        self._inv = (0,) + tuple(row.index(1) for row in mul[1:])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        """Base-p digits of an element, i.e. its polynomial coefficients."""
        return _digits(a, self.p, self.k)

    def element(self, coeffs) -> int:
        """Element with the given polynomial coefficients (ascending)."""
        coeffs = tuple(coeffs)
        if len(coeffs) > self.k or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"invalid coefficients for GF({self.q}): {coeffs}")
        return _value(coeffs + (0,) * (self.k - len(coeffs)), self.p)

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"
