"""The enumeration oracle: frozen counts, budget guard, determinism.

The oracle's references live here, not in the package.  The independent
ones share no step with the search: a matrix type, X^2 = 0 from field add
and mul in row-major order, the odometer that tries every candidate, the
rank by Gaussian elimination (matrix_rank), and the echelon basis and
corner rank step as they stood before each basis vector was pivoted at
its last nonzero row and one reduction ranked all q corner values
(previous_reduce, previous_extend, previous_corner_ranks).  The fill order
the search stores X in is defined here on its own (fill_positions), so
each leaf maps back to its row-major tuple.

One earlier search is kept: the search and its rank visitor as they stood
before the search took each diagonal-torus orbit once
(previous_bulk_search, previous_last_column_ranks).  The odometer and full
elimination anchor it leaf for leaf, and the torus search must match its
counts and rank tables, and at q = 2 its leaves in order.  When the search
is rewritten, the search it replaces takes this copy's place.

The bit-sliced q = 2 count (_bitsliced) is checked against _search, which
still counts every q >= 3 and ranks every q, and its passing patterns,
expanded to matrices, against the odometer's solutions.
"""

import itertools
import operator
import pickle
import sys
import types
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqzero
from sqzero.counting import closed_form, recurrence_table
from sqzero.gf import SUPPORTED_ORDERS, FiniteField
from sqzero.oracle import (
    BudgetExceededError,
    _bitsliced,
    _extend,
    _fill_order,
    _last_column_ranks,
    _reduce,
    _roots,
    _search,
    count_by_rank,
    count_square_zero,
)


class StrictUpperMatrix(NamedTuple):
    """n x n matrix with zeros on and below the diagonal.

    ``entries`` holds the n(n-1)/2 above-diagonal values in row-major
    order over positions (i, j) with i < j.
    """

    n: int
    entries: tuple[int, ...]

    def rows(self) -> list[list[int]]:
        """Materialize the full n x n matrix."""
        values = iter(self.entries)
        return [[next(values) if j > i else 0 for j in range(self.n)] for i in range(self.n)]


@lru_cache(maxsize=None)
def square_entry_pairs(n: int) -> tuple:
    """Per entry (i, j) of X^2 with j >= i+2, the entry-vector index pairs
    of X[i][t] and X[t][j], from positions enumerated in row-major order."""
    index = {ij: k for k, ij in enumerate((i, j) for i in range(n) for j in range(i + 1, n))}
    return tuple(
        tuple((index[i, t], index[t, j]) for t in range(i + 1, j))
        for i in range(n)
        for j in range(i + 2, n)
    )


def square_is_zero(mat: StrictUpperMatrix, field: FiniteField) -> bool:
    """True iff every entry of mat squared vanishes over the field.

    Only (i, j) with j >= i+2 is checked: for strictly upper-triangular X the
    diagonal and first superdiagonal of X^2 are identically zero.
    """
    n, x = mat
    if len(x) != n * (n - 1) // 2:
        raise ValueError(f"expected {n * (n - 1) // 2} entries for n={n}, got {len(x)}")
    for pairs in square_entry_pairs(n):
        acc = 0
        for u, v in pairs:
            if x[u] and x[v]:
                acc = field.add[acc][field.mul[x[u]][x[v]]]
        if acc:
            return False
    return True


def _rank_of_rows(rows: list[list[int]], field: FiniteField) -> int:
    """Rank by Gaussian elimination over the field (eliminate below pivots)."""
    m = len(rows)
    if m == 0:
        return 0
    width = len(rows[0])
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        if inv != 1:
            rows[rank] = [field.mul[inv][x] for x in rows[rank]]
        top = rows[rank]
        for i in range(rank + 1, m):
            f = rows[i][col]
            if f:
                rows[i] = [field.add[x][field.neg[field.mul[f][y]]] for x, y in zip(rows[i], top)]
        rank += 1
        if rank == m:
            break
    return rank


def matrix_rank(mat: StrictUpperMatrix, field: FiniteField) -> int:
    return _rank_of_rows(mat.rows(), field)


@lru_cache(maxsize=None)
def fill_positions(n: int) -> dict:
    """The fill order as the tests define it, apart from the search: every
    above-diagonal (i, j), column by column, each column from the bottom
    up, mapped to its place in that order."""
    return {ij: k for k, ij in enumerate((i, j) for j in range(n) for i in range(j - 1, -1, -1))}


def last_column(n: int) -> tuple:
    """The fill-order positions of column n-1, top row first."""
    return tuple(fill_positions(n)[t, n - 1] for t in range(n - 1))


# The search and its last-column rank visitor as they stood before the
# search took each diagonal-torus orbit once: copied unchanged but for the
# names, as the reference the torus search must match count for count and
# rank table for rank table, and the search the leaf-for-leaf tests expand.
def previous_last_column_ranks(ranks: Counter, n: int, field: FiniteField):
    """A visitor adding to ``ranks`` the rank of X at each x in xs at
    (1, n-1) and corner value c.  Column n-1, top row first, is
    v0 + x*e1 + c*e0, v0 with rows 0 and 1 unset.  With row 0 cleared, its
    reduction is L0 + x*L1 (L0, L1 those of v0 and e1, L1 once per basis):
    zero at every x (L1 = 0 = L0), at none (L1 = 0 != L0) or at
    x* = -L0[p]/L1[p] alone.  Each x then takes the corner rule: nonzero
    adds 1 to len(basis) at every c; zero adds 1 at no c if e0 is a basis
    vector, else at all c but one."""
    add, mul, neg, q = field.add, field.mul, field.neg, field.q
    unit = [int(i == 1) for i in range(n - 1)]  # e1; zero at n = 2, with no row 1
    held = l1 = p = over = keep = rank = None

    def visit(entries, basis, xs) -> None:
        nonlocal held, l1, p, over, keep, rank
        if held is not basis:
            held, l1 = basis, _reduce(unit[:], basis, field)
            l1[0] = 0
            p = next((i for i, y in enumerate(l1) if y), None)
            over = p is not None and mul[field.inv(l1[p])]
            keep, rank = q if (0, ((0, 1),)) in basis else 1, len(basis)
        l0 = _reduce(entries[-1:-n:-1], basis, field)
        l0[0] = 0
        if p is None:
            zeros = not any(l0) and len(xs)
        else:  # x* = -t, t = L0[p]/L1[p]; L0 + x*L1 = 0 iff L0 = t*L1
            t = over[l0[p]]
            zeros = neg[t] in xs and l0 == [mul[t][v] for v in l1]
        kept, total = keep * zeros, len(xs) * q  # the (x, c) that keep the rank
        if kept:
            ranks[rank] += kept
        if kept < total:
            ranks[rank + 1] += total - kept

    return visit


def previous_bulk_search(n: int, field: FiniteField, visit=None) -> int:
    """For n >= 2, the number of square-zero X with corner X[0][n-1] = 0,
    each good for q corner values, from a depth-first search that fills
    the reused list ``entries``, X in fill order.  Assigning X[i][j], i > 0,
    completes X[i-1][i]*x + X[i-1][i+1]*X[i+1][j] + h of X^2, h summing
    pairs[1:] of its check: the node at (i+1, j) sums h once for all its
    values y, each giving roots[X[i-1][i]][X[i-1][i+1]*y + h] to (i, j),
    and assigns a single root without a call.  The node before (1, n-1)
    counts (1, n-1)'s roots xs, and with ``visit`` calls
    visit(entries, basis[n-2], xs), which must leave ``entries`` as it was;
    basis[j], the echelon basis of columns 0..j, is then built when (0, j)
    completes, from basis[j-1] and column j's slice, top row first.  n = 2
    has no (1, n-1): its xs is (0,)."""
    order = _fill_order(n)
    corner = len(order) - 1
    settle = corner - 2  # the node before (1, n-1)
    entries, basis = [0] * len(order), [()] * (n - 1)
    add, mul, roots = field.add, field.mul, _roots(field)
    counted = 0
    if settle < 0:
        if visit:
            visit(entries, basis[0], (0,))
        return 1
    # per node: j (0 without visit), then a, b, h of the child's check
    # X[i-1][i]*x + X[i-1][i+1]*y + h; the corner, never set, is a zero term
    spec = []
    for d in range(settle + 1):
        a, pairs = order[d + 1][0] or (corner, ())
        b = pairs[0][0] if pairs else corner
        spec.append((order[d][1] if visit else 0, a if d else None, b, pairs[1:]))
    first = tuple(r[0] for r in roots)  # (1, 2)'s check is X[0][1]*x

    def fill(depth: int, xs) -> None:
        nonlocal counted
        while True:  # the child's roots at each value y are ra[ah[mb[y]]]
            j, a, b, h = spec[depth]
            if a is None:
                ra, mb = first, mul[1]
            else:
                ra, mb = roots[entries[a]], mul[entries[b]]
            s = 0
            for u, v in h:
                s = add[s][mul[entries[u]][entries[v]]]
            ah = add[s]
            if depth == settle and not visit:
                for x in xs:
                    counted += len(ra[ah[mb[x]]])
                return
            for x in xs:
                entries[depth] = x
                if j:
                    column = entries[depth - j + 1 : depth + 1][::-1]
                    basis[j] = _extend(basis[j - 1], column, field)
                ys = ra[ah[mb[x]]]
                if not ys:
                    continue
                if depth == settle:
                    counted += len(ys)
                    visit(entries, basis[n - 2], ys)
                elif len(xs) > 1:
                    fill(depth + 1, ys)
                else:  # one root: go on in this call
                    break
            else:
                return
            depth, xs = depth + 1, ys

    fill(0, range(field.q))
    return counted


def expand_leaves(search, n: int, field, ranked: bool = False) -> list:
    """Every leaf ``search`` finds, in its order, as (X, rank, weight): X
    its row-major entry tuple, rank None unless ``ranked``, and weight that
    of its prefix (1 from a visitor called without one).  The visitor
    expands each prefix into the roots xs at (1, n-1), and each of those
    into its q corner values, each ranked by one reduction of the last
    column against the basis the search carries (previous_corner_ranks)."""
    if n == 1:  # no corner and no search: the one 1 x 1 matrix is zero
        return [((), 0 if ranked else None, 1)]
    found, place, column = [], fill_positions(n), last_column(n)
    row_major = [place[i, j] for i in range(n) for j in range(i + 1, n)]
    corner, settled = place[0, n - 1], place.get((1, n - 1))  # None at n = 2

    def visit(entries, basis, xs, weight=1):
        for x in xs:
            if settled is not None:
                entries[settled] = x
            ranks = list(previous_corner_ranks(entries, basis, column, field)) if ranked else None
            for c in range(field.q):
                entries[corner] = c
                leaf = tuple(entries[k] for k in row_major)
                found.append((leaf, ranks[c] if ranked else None, weight))
        for k in (corner, settled):  # leave entries as the search left them
            if k is not None:
                entries[k] = 0

    search(n, field, visit)
    return found


def search_leaves(n: int, field, ranked: bool = False) -> list:
    """Every square-zero X the copied search finds, in its order, as its
    row-major entry tuple (with its rank, if ``ranked``)."""
    leaves = expand_leaves(previous_bulk_search, n, field, ranked)
    return [(leaf, rank) if ranked else leaf for leaf, rank, _ in leaves]


def torus_leaves(n: int, field, ranked: bool = False) -> list:
    """Every weighted leaf (X, rank, weight) of the torus search, in its
    order: each stands for ``weight`` solutions, one per scaling of its
    normalised entries."""
    return expand_leaves(_search, n, field, ranked)


@lru_cache(maxsize=None)
def previous_bulk_count(n: int, q: int) -> int:
    """count_square_zero(n, q) by the copied search, as _enumerate runs it."""
    return q * previous_bulk_search(n, FiniteField(q)) if n > 1 else 1


@lru_cache(maxsize=None)
def previous_bulk_ranks(n: int, q: int) -> dict:
    """count_by_rank(n, q) by the copied search and rank visitor."""
    if n == 1:
        return {0: 1}
    field, ranks = FiniteField(q), Counter()
    previous_bulk_search(n, field, previous_last_column_ranks(ranks, n, field))
    return dict(sorted(ranks.items()))


# Every (n, q) whose q^(n(n-1)/2) candidates the odometer walks in moments.
DIFFERENTIAL_GRID = [
    (n, q) for q in SUPPORTED_ORDERS for n in range(1, 8) if q ** (n * (n - 1) // 2) <= 120_000
]
# Points past it that the search reaches in moments.
BEYOND_ODOMETER = [(5, 4), (4, 9), (6, 3), (7, 2), (5, 5), (4, 16), (5, 7)]
SEARCH_GRID = sorted(set(DIFFERENTIAL_GRID) | set(BEYOND_ODOMETER))
CORNER_GRID = sorted(
    {(n, q) for n, q in DIFFERENTIAL_GRID if n > 1} | {(5, 4), (4, 9), (6, 3), (5, 5), (4, 16)}
)


class TestSquareIsZero:
    def test_two_by_two_always_squares_to_zero(self):
        f = FiniteField(5)
        for a in range(f.q):
            assert square_is_zero(StrictUpperMatrix(2, (a,)), f)

    def test_three_by_three_product_entry(self):
        f = FiniteField(2)
        # entries (a, b, c); the only checked entry of the square is a*c
        assert not square_is_zero(StrictUpperMatrix(3, (1, 0, 1)), f)
        assert not square_is_zero(StrictUpperMatrix(3, (1, 1, 1)), f)
        assert square_is_zero(StrictUpperMatrix(3, (1, 1, 0)), f)
        assert square_is_zero(StrictUpperMatrix(3, (0, 1, 1)), f)

    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            square_is_zero(StrictUpperMatrix(3, (1, 0)), FiniteField(2))
        for entries in ((0,) * 5, (0,) * 7):
            with pytest.raises(ValueError):
                square_is_zero(StrictUpperMatrix(4, entries), FiniteField(2))


class TestCounts:
    @pytest.mark.parametrize("q", [2, 5, 9])
    def test_one_by_one(self, q):
        assert count_square_zero(1, q) == 1

    def test_two_by_two_counts_all_matrices(self):
        assert count_square_zero(2, 3) == 3

    def test_frozen_anchors(self):
        assert count_square_zero(3, 2) == 6
        assert count_square_zero(4, 2) == 28
        assert count_square_zero(3, 3) == 15

    @pytest.mark.parametrize("n,q", SEARCH_GRID, ids=str)
    def test_agreement_with_closed_form(self, n, q):
        assert count_square_zero(n, q, budget=10**9) == closed_form(n).eval_at(q)

    def test_unsupported_field_rejected(self):
        with pytest.raises(ValueError, match="not a supported prime power"):
            count_square_zero(3, 6)


class TestBudget:
    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            count_square_zero(6, 9, budget=10**4)
        assert excinfo.value.required == 9**15
        assert excinfo.value.budget == 10**4

    @pytest.mark.parametrize("count", [count_square_zero, count_by_rank])
    def test_refused_without_building_the_count(self, count):
        # 2^14365 has 4325 digits, past Python's default cap on int -> str
        with pytest.raises(BudgetExceededError, match=r"2\^14365 candidates > budget 100000000$"):
            count(170, 2)

    def test_survives_a_pickle_round_trip(self):
        error = BudgetExceededError(3, 10, 5)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is BudgetExceededError
        assert (copy.q, copy.cells, copy.budget) == (3, 10, 5)
        assert str(copy) == str(error)

    def test_budget_override_allows_run(self):
        assert count_square_zero(3, 2, budget=8) == 6
        with pytest.raises(BudgetExceededError):
            count_square_zero(3, 2, budget=7)

    @pytest.mark.parametrize("n,q", SEARCH_GRID, ids=str)
    def test_guard_is_exact_at_every_point(self, n, q):
        # a budget of q^(n(n-1)/2) candidates runs; one less is refused
        required = q ** (n * (n - 1) // 2)
        assert count_square_zero(n, q, budget=required) == closed_form(n).eval_at(q)
        for count in (count_square_zero, count_by_rank):
            with pytest.raises(BudgetExceededError) as excinfo:
                count(n, q, budget=required - 1)
            assert excinfo.value.required == required


class TestRanks:
    def test_frozen_rank_tables(self):
        assert count_by_rank(2, 2) == {0: 1, 1: 1}
        assert count_by_rank(1, 5) == {0: 1}
        assert count_by_rank(3, 2) == {0: 1, 1: 5}

    @pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (3, 5)])
    def test_rank_counts_sum_to_total(self, n, q):
        ranks = count_by_rank(n, q)
        assert sum(ranks.values()) == count_square_zero(n, q)
        assert all(c > 0 for c in ranks.values())

    @pytest.mark.parametrize("n,q", SEARCH_GRID, ids=str)
    def test_each_rank_count_is_the_recurrence_entry(self, n, q):
        # t(n, r) at q for every r <= n/2, each of which occurs
        row = recurrence_table(n)[n]
        expected = {r: entry.eval_at(q) for r, entry in enumerate(row)}
        assert count_by_rank(n, q, budget=10**9) == expected

    def test_matrix_rank(self):
        f = FiniteField(3)
        assert matrix_rank(StrictUpperMatrix(3, (0, 0, 0)), f) == 0
        assert matrix_rank(StrictUpperMatrix(3, (1, 0, 0)), f) == 1
        assert matrix_rank(StrictUpperMatrix(3, (1, 0, 1)), f) == 2
        assert matrix_rank(StrictUpperMatrix(3, (0, 1, 2)), f) == 1


class TestWorkerIndependence:
    def test_counts_identical_across_worker_counts(self):
        single = count_square_zero(4, 3, workers=1)
        assert count_square_zero(4, 3, workers=4) == single

    def test_rank_tables_identical_across_worker_counts(self):
        assert count_by_rank(4, 2, workers=3) == count_by_rank(4, 2, workers=1)


@lru_cache(maxsize=None)
def odometer_solutions(n, q):
    """Reference: try every candidate entry vector and keep those whose
    square is zero."""
    field = FiniteField(q)
    return frozenset(
        entries
        for entries in itertools.product(range(q), repeat=n * (n - 1) // 2)
        if square_is_zero(StrictUpperMatrix(n, entries), field)
    )


@lru_cache(maxsize=None)
def odometer_ranks(n, q) -> dict:
    """Each odometer solution's rank, by full elimination."""
    field = FiniteField(q)
    return {e: matrix_rank(StrictUpperMatrix(n, e), field) for e in odometer_solutions(n, q)}


class TestAgainstOdometer:
    @pytest.mark.parametrize("n,q", DIFFERENTIAL_GRID, ids=lambda v: str(v))
    def test_same_solution_matrices(self, n, q):
        # the copied search's leaves, each ranked from the basis it carries
        found = search_leaves(n, FiniteField(q), ranked=True)
        assert len(found) == len({leaf for leaf, _ in found}), "a matrix was counted twice"
        assert dict(found) == odometer_ranks(n, q)

    @pytest.mark.parametrize("n,q", DIFFERENTIAL_GRID, ids=lambda v: str(v))
    def test_same_count(self, n, q):
        # the count-only search, which ranks nothing
        assert count_square_zero(n, q) == len(odometer_solutions(n, q))

    @pytest.mark.parametrize("n,q", DIFFERENTIAL_GRID, ids=lambda v: str(v))
    def test_same_rank_counts(self, n, q):
        assert count_by_rank(n, q) == dict(Counter(odometer_ranks(n, q).values()))

    @pytest.mark.parametrize("n,q", [(4, 3), (5, 2)])
    def test_results_identical_for_one_two_and_three_workers(self, n, q):
        totals = {workers: count_square_zero(n, q, workers=workers) for workers in (1, 2, 3)}
        ranks = {workers: count_by_rank(n, q, workers=workers) for workers in (1, 2, 3)}
        assert totals[2] == totals[3] == totals[1] == len(odometer_solutions(n, q))
        assert ranks[2] == ranks[3] == ranks[1]


# The echelon basis and the corner rank step as they stood before each
# basis vector was pivoted at its last nonzero row and one reduction ranked
# all q corner values: they share no step with the rank visitor, so they
# are the references it and the pivot convention are checked against.
def previous_reduce(column: list[int], basis, field: FiniteField) -> list[int]:
    for p, vector in basis:
        c = column[p]
        if c:
            c = field.neg[c]
            for i, y in vector:
                column[i] = field.add[column[i]][field.mul[c][y]]
    return column


def previous_extend(basis: tuple, column: list[int], field: FiniteField) -> tuple:
    column = previous_reduce(column, basis, field)
    for p, x in enumerate(column):
        if x:
            inv = field.inv(x)
            vector = tuple((i, field.mul[inv][y]) for i, y in enumerate(column) if y)
            return basis + ((p, vector),)
    return basis


def previous_corner_ranks(entries: list[int], basis, column, field: FiniteField):
    """Yield the rank of X for each corner value 0..q-1: column n-1 (indices
    top row first, so the corner first) reduced against columns 0..n-2."""
    last = [entries[k] for k in column]
    for c in range(field.q):
        last[0] = c
        yield len(basis) + any(previous_reduce(last[:], basis, field))


CORNER_BRANCHES = {"none", "one", "all"}
BULK_BRANCHES = {
    "L1 = 0, L0 = 0",
    "L1 = 0, L0 != 0",
    "x* a root",
    "x* not a root",
    "e0 in the basis",
    "e0 not in the basis",
}


def bulk_branches(n: int, field, entries, basis, xs) -> set:
    """The bulk rule's branches at one prefix, from reductions made here:
    L1 zero with L0 zero or not, or L1 nonzero with x* in xs or not; and
    e0 in the span of the basis (so a basis vector) or not."""
    v0 = [entries[k] for k in last_column(n)]  # rows 0 and 1 unset
    l0 = previous_reduce(v0, basis, field)
    l1 = previous_reduce([int(i == 1) for i in range(n - 1)], basis, field)
    l0[0] = l1[0] = 0
    e0 = previous_reduce([1] + [0] * (n - 2), basis, field)
    seen = {"e0 not in the basis" if any(e0) else "e0 in the basis"}
    if not any(l1):
        seen.add("L1 = 0, L0 != 0" if any(l0) else "L1 = 0, L0 = 0")
    else:
        p = next(i for i, y in enumerate(l1) if y)
        x = field.mul[field.neg[l0[p]]][field.inv(l1[p])]
        seen.add("x* a root" if x in xs else "x* not a root")
    return seen


def times(weight: int, counts: Counter) -> Counter:
    return Counter({k: weight * v for k, v in counts.items()})


@lru_cache(maxsize=None)
def corner_rule_branches(n: int, q: int) -> frozenset:
    """Check the search's rank visitor, one for the whole search, against
    the per-(x, c) ranks at every prefix of (n, q), its counts the prefix's
    weight times theirs; return the branches taken: per x, by how many
    corner values keep the rank of columns 0..n-2, "none", "all" or "one",
    and the bulk rule's (bulk_branches)."""
    field, column = FiniteField(q), last_column(n)
    settled = fill_positions(n).get((1, n - 1))  # None at n = 2
    ranks, seen = Counter(), set()
    rule = _last_column_ranks(ranks, n, field)

    def visit(entries, basis, xs, weight):
        before = Counter(ranks)
        rule(entries, basis, xs, weight)
        seen.update(bulk_branches(n, field, entries, basis, xs))
        per_xc = Counter()
        for x in xs:
            if settled is not None:
                entries[settled] = x
            per_corner = Counter(previous_corner_ranks(entries, basis, column, field))
            per_xc += per_corner
            kept = per_corner[len(basis)]
            seen.add("none" if kept == 0 else "all" if kept == q else "one")
        if settled is not None:
            entries[settled] = 0
        assert ranks - before == times(weight, per_xc), (entries, xs)

    _search(n, field, visit)
    return frozenset(seen)


class TestCornerRule:
    """The corner rule extended to (1, n-1), as the search's rank visitor
    applies it: one reduction of v0 per prefix, L1 read off the basis's
    pivots, row 0 cleared, rank every (x, c) of a prefix as the per-(x, c)
    reductions do, and count each the prefix's weight times."""

    @pytest.mark.parametrize("n,q", CORNER_GRID, ids=lambda v: str(v))
    def test_equals_the_per_corner_ranks_at_every_prefix(self, n, q):
        assert corner_rule_branches(n, q)  # it asserts at each prefix

    def test_all_three_branches_occur(self):
        seen = set().union(*(corner_rule_branches(n, q) for n, q in CORNER_GRID))
        assert seen & CORNER_BRANCHES == CORNER_BRANCHES

    def test_every_bulk_branch_occurs(self):
        seen = set().union(*(corner_rule_branches(n, q) for n, q in CORNER_GRID))
        assert seen & BULK_BRANCHES == BULK_BRANCHES

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_x_star_counts_only_as_a_root(self, q):
        # In the search, L0 + x*L1 = 0 makes x* a root: row 0 of X is
        # orthogonal to the span of columns 0..n-2.  So only a direct call
        # reaches x* outside xs: here v0 = 0 and L1 = e1, so x* = 0.
        field, weight = FiniteField(q), q - 1
        for xs in [(1,), tuple(range(1, q)), (0,)]:
            ranks = Counter()
            _last_column_ranks(ranks, 3, field)([0, 0, 0], (), xs, weight)
            expected = Counter()
            for x in xs:
                expected += Counter(previous_corner_ranks([0, x], (), range(2), field))
            assert ranks == times(weight, expected), xs

    @given(st.data())
    def test_equals_the_per_corner_ranks_on_random_columns(self, data):
        # a random basis, and random prefixes of one basis at a random weight
        q = data.draw(st.sampled_from(SUPPORTED_ORDERS), label="q")
        rows = data.draw(st.integers(1, 6), label="rows")  # n - 1
        field, elements = FiniteField(q), st.integers(0, q - 1)
        vectors = st.lists(elements, min_size=rows, max_size=rows)
        columns = data.draw(st.lists(vectors, max_size=rows), label="columns")
        for unit in range(min(rows, 2)):
            if data.draw(st.booleans(), label=f"e{unit} in span"):
                e = [int(i == unit) for i in range(rows)]
                columns.insert(data.draw(st.integers(0, len(columns))), e)
        basis = ()
        for c in columns:
            basis = _extend(basis, c[:], field)
        weight = data.draw(st.integers(1, 10**6), label="weight")
        ranks = Counter()
        rule = _last_column_ranks(ranks, rows + 1, field)
        for _ in range(data.draw(st.integers(1, 3), label="prefixes")):  # one basis, many v0
            if data.draw(st.booleans(), label="w in span"):
                w = [0] * rows
                for c in columns:
                    times_c = field.mul[data.draw(elements)]
                    w = [field.add[x][times_c[y]] for x, y in zip(w, c)]
            else:
                w = data.draw(vectors, label="w")
            xs = {0}  # n = 2, with no (1, n-1), has xs = (0,) in the search
            if rows > 1:
                xs = set(data.draw(st.lists(elements, max_size=q), label="xs"))
                if data.draw(st.booleans(), label="w[1] in xs"):
                    xs.add(w[1])
            xs = tuple(sorted(xs))
            v0 = [0] * min(rows, 2) + w[2:]
            expected = Counter()
            for x in xs:
                column = v0[:]
                if rows > 1:
                    column[1] = x
                expected += Counter(previous_corner_ranks(column, basis, range(rows), field))
            before = Counter(ranks)
            rule(v0[::-1], basis, xs, weight)  # fill order: bottom up
            assert ranks - before == times(weight, expected)


# The odometer points whose weighted leaves, each expanded by all (q-1)^n
# diagonal D, make at most 5 * 10^5 matrices.
EXPANSION_GRID = [
    (n, q) for n, q in DIFFERENTIAL_GRID if (q - 1) ** n * closed_form(n).eval_at(q) <= 5 * 10**5
]
TORUS_GRID = sorted(set(SEARCH_GRID) | {(8, 2)})


def forest_edges(n: int, entries) -> list:
    """The nonzero entries of a prefix, in fill order, that join two
    components of the entries before them, as (position, value)."""
    label = list(range(n))
    edges = []
    for (i, j), k in sorted(fill_positions(n).items(), key=lambda item: item[1]):
        if entries[k] and label[i] != label[j]:
            edges.append((k, entries[k]))
            old = label[j]
            label = [label[i] if t == old else t for t in label]
    return edges


class TestTorusQuotient:
    """The search takes each orbit of the diagonal torus on its prefixes
    once: a new forest edge is tried at 0 and at 1 alone, and 1 weighs
    q - 1.  Its weighted leaves must expand to the odometer's solutions,
    and its counts and rank tables must be the copied search's."""

    @pytest.mark.parametrize("n,q", EXPANSION_GRID, ids=str)
    def test_weighted_leaves_expand_to_each_solution_once(self, n, q):
        # credit D.L with w / (q-1)^n for every D in (GF(q)*)^n: a leaf of
        # weight w stands for w solutions, which make up its orbit when D
        # fixes nothing else, so each solution must total exactly 1
        field = FiniteField(q)
        cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
        scalings = [  # per D, the mul row of d_i / d_j for each (i, j)
            tuple(field.mul[field.mul[d[i]][field.inv(d[j])]] for i, j in cells)
            for d in itertools.product(range(1, q), repeat=n)
        ]
        credit = Counter()
        for leaf, _, weight in torus_leaves(n, field):
            share = Fraction(weight, (q - 1) ** n)
            for rows in scalings:
                credit[tuple(map(operator.getitem, rows, leaf))] += share
        assert set(credit) == odometer_solutions(n, q)
        assert set(credit.values()) == {1}

    def test_expansion_grid_reaches_past_q_2(self):
        assert {(4, 3), (4, 4), (4, 5), (3, 9)} <= set(EXPANSION_GRID)

    @pytest.mark.parametrize("n,q", SEARCH_GRID, ids=lambda v: str(v))
    def test_each_prefix_is_normalised_and_weighs_q_minus_1_per_edge(self, n, q):
        if n == 1:
            return
        prefixes = []

        def visit(entries, basis, xs, weight):
            edges = forest_edges(n, entries)
            assert all(value == 1 for _, value in edges), entries
            assert weight == (q - 1) ** len(edges), (entries, weight)
            prefixes.append(tuple(entries))

        _search(n, FiniteField(q), visit)
        assert len(prefixes) == len(set(prefixes)), "a prefix was visited twice"

    @pytest.mark.parametrize("n,q", TORUS_GRID, ids=lambda v: str(v))
    def test_same_count_and_rank_table_as_the_copied_search(self, n, q):
        total = previous_bulk_count(n, q)
        assert count_square_zero(n, q, budget=10**9) == total
        assert count_by_rank(n, q, budget=10**9) == previous_bulk_ranks(n, q)
        if n > 1:  # the ranked search counts as it ranks
            assert q * _search(n, FiniteField(q), lambda *prefix: None) == total

    @pytest.mark.parametrize("n", range(1, 7))
    def test_q_2_is_the_copied_search_leaf_for_leaf(self, n):
        field = FiniteField(2)
        expected = expand_leaves(previous_bulk_search, n, field, True)
        assert torus_leaves(n, field, True) == expected

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_n_up_to_three(self, q):
        # (0, 1) admits every value and joins 0 and 1: it is tried at 0 and
        # at 1 alone, and 1 weighs q - 1
        field = FiniteField(q)
        assert _search(2, field) == 1 and _search(3, field) == 2 * q - 1
        visits = []
        visit = lambda entries, basis, xs, weight: visits.append((entries[0], xs, weight))
        assert _search(3, field, visit) == 2 * q - 1
        assert visits == [(0, tuple(range(q)), 1), (1, (0,), q - 1)]
        assert torus_leaves(2, field, True) == [((c,), int(c != 0), 1) for c in range(q)]


class TestPivotConvention:
    """Each vector _extend adds is pivoted at its last nonzero row, so the
    pivots >= i of the basis of columns 0..j count the rank of the block of
    rows i.., columns 0..j, on any strictly upper-triangular X."""

    @given(st.data())
    def test_pivots_count_every_south_west_block_rank(self, data):
        q = data.draw(st.sampled_from(SUPPORTED_ORDERS), label="q")
        n = data.draw(st.integers(1, 7), label="n")
        field, size = FiniteField(q), n * (n - 1) // 2
        elements = st.just(0) | st.integers(0, q - 1)
        entries = data.draw(st.lists(elements, min_size=size, max_size=size), label="X")
        rows = StrictUpperMatrix(n, tuple(entries)).rows()
        columns = [[row[j] for row in rows] for j in range(n)]
        new, old = (), ()
        for j, column in enumerate(columns):
            new, old = _extend(new, column[:], field), previous_extend(old, column[:], field)
            assert len(new) == len(old)
            for k in range(j + 1):
                assert not any(_reduce(columns[k][:], new, field))
                assert not any(previous_reduce(columns[k][:], old, field))
            pivots = [p for p, _ in new]
            for k, (p, vector) in enumerate(new):
                values = dict(vector)
                assert all(values.values()) and values[p] == 1 and max(values) == p
                assert not any(values.get(earlier, 0) for earlier in pivots[:k])
            for i in range(n + 1):
                block = [row[: j + 1] for row in rows[i:]]
                assert sum(p >= i for p in pivots) == _rank_of_rows(block, field), (i, j)

    @given(st.data())
    def test_e1_reduces_to_zero_or_to_itself(self, data):
        # what _last_column_ranks reads off the pivots in place of reducing e1
        q = data.draw(st.sampled_from(SUPPORTED_ORDERS), label="q")
        rows = data.draw(st.integers(2, 7), label="rows")
        field, elements = FiniteField(q), st.just(0) | st.integers(0, q - 1)
        vectors = st.lists(elements, min_size=rows, max_size=rows)
        basis = ()
        for column in data.draw(st.lists(vectors, max_size=rows), label="columns"):
            basis = _extend(basis, column, field)
        left = _reduce([int(i == 1) for i in range(rows)], basis, field)
        left[0] = 0
        if any(p == 1 for p, _ in basis):
            assert not any(left)
        else:
            assert left == [int(i == 1) for i in range(rows)]


def public_names(f: FiniteField):
    return types.SimpleNamespace(q=f.q, add=f.add, mul=f.mul, neg=f.neg, inv=f.inv)


class TestPublicInterface:
    """The search and its rank steps read a field only through q, add, mul,
    neg and inv."""

    @pytest.mark.parametrize("n,q", CORNER_GRID, ids=lambda v: str(v))
    def test_a_proxy_of_the_public_names_gives_the_same_leaves(self, n, q):
        f = FiniteField(q)
        real, seen = torus_leaves(n, f, ranked=True), torus_leaves(n, public_names(f), ranked=True)
        for k, (old, new) in enumerate(itertools.zip_longest(real, seen)):
            assert new == old, f"leaf {k}"

    @pytest.mark.parametrize("n,q", CORNER_GRID, ids=lambda v: str(v))
    def test_a_proxy_of_the_public_names_gives_the_same_rank_counts(self, n, q):
        proxy, ranks = public_names(FiniteField(q)), Counter()
        _search(n, proxy, _last_column_ranks(ranks, n, proxy))
        assert dict(sorted(ranks.items())) == count_by_rank(n, q, budget=10**9)


class TestTrackedRank:
    """The torus search's weighted leaves against full elimination, on the
    odometer grid and past it: each leaf squares to zero, none repeats,
    each has the rank a full elimination gives, and by weight they make up
    count_by_rank."""

    @pytest.mark.parametrize("n,q", SEARCH_GRID, ids=lambda v: str(v))
    def test_every_leaf_rank_equals_matrix_rank(self, n, q):
        field, table = FiniteField(q), Counter()
        leaves = torus_leaves(n, field, ranked=True)
        assert len({leaf for leaf, _, _ in leaves}) == len(leaves), "a leaf was found twice"
        for entries, rank, weight in leaves:
            mat = StrictUpperMatrix(n, entries)
            assert square_is_zero(mat, field), entries
            assert rank == matrix_rank(mat, field), entries
            table[rank] += weight
        assert dict(sorted(table.items())) == count_by_rank(n, q, budget=10**9)


class TestRoots:
    """The root table the search assigns from, once per field."""

    @pytest.mark.parametrize("q", SUPPORTED_ORDERS)
    def test_equals_a_brute_force_check(self, q):
        f = FiniteField(q)
        expected = [
            [[x for x in range(q) if f.add[s][f.mul[a][x]] == 0] for s in range(q)]
            for a in range(q)
        ]
        assert [[list(xs) for xs in row] for row in _roots(f)] == expected

    @pytest.mark.parametrize("q", SUPPORTED_ORDERS)
    def test_shape_law(self, q):
        f = FiniteField(q)
        roots = _roots(f)
        for s in range(q):
            assert roots[0][s] == (tuple(range(q)) if s == 0 else ())
            for a in range(1, q):
                assert roots[a][s] == (f.mul[f.neg[s]][f.inv(a)],)


class TestFillOrder:
    """The search stores X in fill order, the entry at depth d at position
    d; counting the corner q at a time rests on its being in no check."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_positions_follow_the_layout(self, n):
        place = fill_positions(n)
        assert place == {(i, j): j * (j - 1) // 2 + (j - 1 - i) for j in range(n) for i in range(j)}
        expected = [None] * len(place)
        for (i, j), k in place.items():
            check = None
            if i:
                pairs = tuple((place[i - 1, t], place[t, j]) for t in range(i + 1, j))
                check = (place[i - 1, i], pairs)
            expected[k] = (check, j if i == 0 else 0)
        assert list(_fill_order(n)) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_j_marks_each_column_s_last_position(self, n):
        ends = {k for k, (_, j) in enumerate(_fill_order(n)) if j}
        assert ends == {fill_positions(n)[0, j] for j in range(1, n)}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_the_corner_alone_is_in_no_check(self, n):
        order = _fill_order(n)
        checked = set()
        for pos, (check, _) in enumerate(order):
            if check:
                a, pairs = check
                checked |= {pos, a, *itertools.chain.from_iterable(pairs)}
        if n == 1:
            assert order == () and checked == set()
            return
        corner = fill_positions(n)[0, n - 1]
        assert corner == len(order) - 1
        assert corner not in checked
        if n >= 3:
            assert checked == set(range(len(order))) - {corner}


def sliced_solutions(n: int) -> list:
    """Every X the q = 2 kernel passes, as its row-major entry tuple: the
    leading block's rows, each passing pattern's bits in the kernel's
    entry order, and both corner values."""
    m, place = n - 2, {}
    for t in range(m):
        place[t, n - 2] = t
    for t in range(1, m + 1):
        place[t, n - 1] = m - 1 + t
    found = []
    for rows, passing in _bitsliced(n, FiniteField(2)):
        x = {(i, j): rows[i] >> j & 1 for i in range(m) for j in range(i + 1, m)}
        for p in range(1 << 2 * m):
            if passing >> p & 1:
                x.update({ij: p >> k & 1 for ij, k in place.items()})
                for corner in (0, 1):
                    x[0, n - 1] = corner
                    found.append(tuple(x[i, j] for i in range(n) for j in range(i + 1, n)))
    return found


class TestBitsliced:
    """count_square_zero at q = 2 evaluates every pattern of the last two
    columns below the corner per square-zero leading block, one big-int
    mask per check."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_twice_the_search(self, n):
        field = FiniteField(2)
        assert count_square_zero(n, 2, budget=2 ** (n * (n - 1) // 2)) == 2 * _search(n, field)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_passing_patterns_are_the_odometer_solutions(self, n):
        found = sliced_solutions(n)
        assert len(found) == len(set(found)), "a matrix was passed twice"
        assert set(found) == odometer_solutions(n, 2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_one_block_per_square_zero_matrix_of_size_n_minus_2(self, n):
        blocks = [tuple(rows) for rows, _ in _bitsliced(n, FiniteField(2))]
        assert len(blocks) == len(set(blocks)) == len(odometer_solutions(n - 2, 2))

    @pytest.mark.parametrize(
        "add,mul",
        [
            (((0, 1), (1, 1)), ((0, 0), (0, 1))),  # add is OR
            (((0, 1), (1, 0)), ((0, 0), (0, 0))),  # mul is 0
            (((0, 1), (1, 0)), ((0, 1), (1, 1))),  # mul is OR
        ],
    )
    def test_a_field_without_xor_and_and_is_refused(self, monkeypatch, add, mul):
        fake = types.SimpleNamespace(q=2, add=add, mul=mul, neg=(0, 1), inv=FiniteField(2).inv)
        with pytest.raises(ArithmeticError, match="not XOR and AND"):
            next(_bitsliced(4, fake))
        monkeypatch.setattr(sqzero.oracle, "FiniteField", lambda q: fake)
        with pytest.raises(ArithmeticError, match="not XOR and AND"):
            count_square_zero(4, 2)


class TestEdgeCases:
    """n = 1 has no corner; at n = 2 the corner is the only entry."""

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
    def test_counts_and_ranks(self, q):
        assert count_square_zero(1, q) == 1
        assert count_by_rank(1, q) == {0: 1}
        assert count_square_zero(2, q) == q
        assert count_by_rank(2, q) == {0: 1, 1: q - 1}


class TestIndependence:
    """The oracle's whole value as a cross-check is that it shares no code
    with the polynomial engines it checks."""

    def test_reaches_only_gf_and_oracle(self):
        package = Path(sqzero.__file__).resolve().parent
        reached = set()

        def profile(frame, event, arg):
            if event == "call":
                path = Path(frame.f_code.co_filename).resolve()
                if path.is_relative_to(package):
                    reached.add(path.relative_to(package).as_posix())

        sys.setprofile(profile)
        try:
            count_square_zero(4, 3)
            count_square_zero(4, 2)  # the bit-sliced kernel
            count_by_rank(4, 3)
        finally:
            sys.setprofile(None)
        assert reached == {"gf.py", "oracle.py"}
