"""Finite field construction and arithmetic, checked exhaustively."""

import itertools

import pytest

from sqzero import gf
from sqzero.gf import SUPPORTED_ORDERS, FiniteField


class TestConstruction:
    def test_prime_field(self):
        f = FiniteField(5)
        assert (f.p, f.k, f.q) == (5, 1, 5)
        assert f.modulus is None

    def test_gf4_uses_the_unique_irreducible_quadratic(self):
        f = FiniteField(4)
        assert f.modulus == (1, 1, 1)
        assert (f.p, f.k) == (2, 2)

    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 32, 33, 100])
    def test_unsupported_orders_rejected(self, q):
        with pytest.raises(ValueError, match="not a supported prime power"):
            FiniteField(q)

    def test_supported_orders(self):
        assert SUPPORTED_ORDERS == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)
        for q in SUPPORTED_ORDERS:
            FiniteField(q)


class TestArithmeticExamples:
    def test_characteristic_two(self):
        assert FiniteField(2).add[1][1] == 0

    def test_prime_modular(self):
        f = FiniteField(5)
        assert f.add[3][4] == 2
        assert f.mul[2][3] == 1

    def test_gf4(self):
        f = FiniteField(4)
        x = f.element([0, 1])
        assert x == 2
        assert f.add[x][x] == 0
        assert f.mul[x][x] == f.element([1, 1])  # x^2 reduces to x + 1

    def test_gf9(self):
        f = FiniteField(9)
        x = f.element([0, 1])
        assert f.mul[x][x] == 2  # x^2 = -1 = 2 under modulus x^2 + 1

    def test_element_round_trip(self):
        f = FiniteField(8)
        for a in range(f.q):
            assert f.element(f.coeffs_of(a)) == a

    def test_element_validation(self):
        f = FiniteField(4)
        with pytest.raises(ValueError):
            f.element([2, 0])
        with pytest.raises(ValueError):
            f.element([0, 0, 1])


def assert_field_axioms(f: FiniteField) -> None:
    """Exhaustive check of the field axioms for a (small) field."""
    elems = range(f.q)
    for a in elems:
        assert f.add[a][0] == a
        assert f.mul[a][1] == a
        assert f.mul[a][0] == 0
        assert f.add[a][f.neg[a]] == 0
        if a:
            assert f.mul[a][f.inv(a)] == 1
    for a in elems:
        for b in elems:
            assert f.add[a][b] == f.add[b][a]
            assert f.mul[a][b] == f.mul[b][a]
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.add[f.add[a][b]][c] == f.add[a][f.add[b][c]]
                assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]
                assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms(q):
    # the smaller fields here; the acceptance suite covers every supported q
    assert_field_axioms(FiniteField(q))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_no_nonzero_square_root_of_zero(q):
    f = FiniteField(q)
    for a in range(q):
        assert (f.mul[a][a] == 0) == (a == 0)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_tables_are_read_only_tuples(q):
    f = FiniteField(q)
    for table in (f.add, f.mul, f.neg, *f.add, *f.mul):
        assert type(table) is tuple
    with pytest.raises(TypeError):
        f.add[1][1] = 0
    with pytest.raises(TypeError):
        f.mul[1] = f.mul[0]
    with pytest.raises(TypeError):
        f.neg[1] = 1


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_inverses(q):
    f = FiniteField(q)
    for a in range(1, q):
        assert f.mul[a][f.inv(a)] == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def poly_rem(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
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


def reference_tables(q: int) -> tuple[list, list, list, list]:
    """add, mul, neg and inv tables with products reduced by the general
    polynomial remainder above, not by the field's own monic fold."""
    p, modulus = gf._EXTENSION_MODULI.get(q, (q, (0, 1)))  # GF(p) is GF(p)[x]/(x)
    k = len(modulus) - 1
    digits = [tuple(v // p**e % p for e in range(k)) for v in range(q)]

    def value(coeffs):
        return sum(c * p**e for e, c in enumerate(coeffs))

    add = [[value([(x + y) % p for x, y in zip(da, db)]) for db in digits] for da in digits]
    neg = [value([(-x) % p for x in da]) for da in digits]
    mul = []
    for da in digits:
        row = []
        for db in digits:
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] += x * y
            row.append(value(poly_rem(prod, modulus, p)))
        mul.append(row)
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    return add, mul, neg, inv


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_tables_equal_the_polynomial_remainder_construction(q):
    f = FiniteField(q)
    add, mul, neg, inv = reference_tables(q)
    assert (f.add, f.mul, f.neg) == (tuple(map(tuple, add)), tuple(map(tuple, mul)), tuple(neg))
    assert [f.inv(a) for a in range(1, q)] == inv[1:]


@pytest.mark.parametrize("q", sorted(gf._EXTENSION_MODULI))
def test_built_in_moduli_are_irreducible_by_trial_division(q):
    """No monic polynomial of degree 1..k//2 over GF(p) divides the modulus."""
    p, modulus = gf._EXTENSION_MODULI[q]
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            assert poly_rem(list(modulus), tail + (1,), p), (q, tail)


@pytest.mark.parametrize("q, p", [(4, 2), (25, 5)])
def test_reducible_modulus_raises(monkeypatch, q, p):
    # x^2 + 1 = (x + 1)^2 over GF(2) and (x + 2)(x + 3) over GF(5)
    monkeypatch.setitem(gf._EXTENSION_MODULI, q, (p, (1, 0, 1)))
    with pytest.raises(ArithmeticError, match="not irreducible"):
        FiniteField(q)
