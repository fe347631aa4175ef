"""The enumeration oracle: frozen counts, budget guard, determinism.

The oracle's references live here, not in the package: a matrix type,
X^2 = 0 from field add and mul in row-major order, and the rank by
Gaussian elimination.  None of them uses the search's fill order or its
incremental checks, so they stay independent of the code they check.  The
search as it stood before its checks read the field's tables directly, and
the corner rank step as it stood before one reduction ranked all q corner
values, are kept here too, so the rewritten kernels can be held to the same
leaves in the same order.
"""

import itertools
import sys
import types
from collections import Counter
from functools import lru_cache, partial
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqzero
from sqzero.counting import closed_form
from sqzero.gf import SUPPORTED_ORDERS, FiniteField
from sqzero.oracle import (
    BudgetExceededError,
    _corner_ranks,
    _extend,
    _fill_order,
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


def search_leaves(n: int, field, ranked: bool = False) -> list:
    """Every square-zero X the search finds, in its order, as its entry tuple
    (with its rank, if ``ranked``): the visitor expands each checked prefix
    into its q corner values, each ranked by one reduction of the last
    column against the basis the search carries (previous_corner_ranks)."""
    found = []
    if n == 1:  # no corner: the one prefix is the one leaf
        _search(n, field, lambda *prefix: found.append(((), 0) if ranked else ()), ranked)
        return found
    corner, _, (_, column) = _fill_order(n)[-1]

    def visit(entries, basis, wide):
        ranks = list(previous_corner_ranks(entries, basis, column, field)) if ranked else None
        for c in range(field.q):
            entries[corner] = c
            found.append((tuple(entries), ranks[c]) if ranked else tuple(entries))

    _search(n, field, visit, ranked)
    return found


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

    def test_agreement_with_closed_form(self):
        for q in (2, 3):
            for n in range(1, 5):
                assert count_square_zero(n, q) == closed_form(n).eval_at(q)

    def test_unsupported_field_rejected(self):
        with pytest.raises(ValueError, match="not a supported prime power"):
            count_square_zero(3, 6)


class TestBudget:
    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            count_square_zero(6, 9, budget=10**4)
        assert excinfo.value.required == 9**15
        assert excinfo.value.budget == 10**4

    def test_budget_override_allows_run(self):
        assert count_square_zero(3, 2, budget=8) == 6
        with pytest.raises(BudgetExceededError):
            count_square_zero(3, 2, budget=7)


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


# Every (n, q) whose q^(n(n-1)/2) candidates the odometer walks in moments.
DIFFERENTIAL_GRID = [
    (n, q) for q in SUPPORTED_ORDERS for n in range(1, 8) if q ** (n * (n - 1) // 2) <= 120_000
]


class TestAgainstOdometer:
    @pytest.mark.parametrize("n,q", DIFFERENTIAL_GRID, ids=lambda v: str(v))
    def test_same_solution_matrices(self, n, q):
        found = search_leaves(n, FiniteField(q))
        assert len(found) == len(set(found)), "a matrix was counted twice"
        assert set(found) == odometer_solutions(n, q)

    @pytest.mark.parametrize("n,q", DIFFERENTIAL_GRID, ids=lambda v: str(v))
    def test_same_rank_counts(self, n, q):
        field = FiniteField(q)
        reference = Counter(
            matrix_rank(StrictUpperMatrix(n, entries), field) for entries in odometer_solutions(n, q)
        )
        assert count_by_rank(n, q) == dict(reference)

    @pytest.mark.parametrize("n,q", [(4, 3), (5, 2)])
    def test_results_identical_for_one_two_and_three_workers(self, n, q):
        totals = {workers: count_square_zero(n, q, workers=workers) for workers in (1, 2, 3)}
        ranks = {workers: count_by_rank(n, q, workers=workers) for workers in (1, 2, 3)}
        assert totals[2] == totals[3] == totals[1] == len(odometer_solutions(n, q))
        assert ranks[2] == ranks[3] == ranks[1]


# The search as it stood before each check's fixed part was summed once per
# node and the field's tables were bound once: copied unchanged but for the
# names and for field arithmetic written as table lookups, as the reference
# the rewritten kernel must match leaf for leaf.
@lru_cache(maxsize=None)
def previous_fill_order(n: int) -> tuple:
    index = {ij: k for k, ij in enumerate((i, j) for i in range(n) for j in range(i + 1, n))}
    return tuple(
        (
            index[i, j],
            tuple((index[i, t], index[t, j]) for t in range(i + 1, j)),
            (j, tuple(index[t, j] for t in range(j))) if i == 0 else None,
        )
        for j in range(n)
        for i in range(j - 1, -1, -1)
    )


def previous_square_entry(entries, field: FiniteField, pairs) -> int:
    acc = 0
    for u, v in pairs:
        x = entries[u]
        if x:
            y = entries[v]
            if y:
                acc = field.add[acc][field.mul[x][y]]
    return acc


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


def previous_solutions(n: int, field: FiniteField, ranked: bool = False):
    order = previous_fill_order(n)
    entries = [0] * len(order)
    if not order:
        yield (entries, 0) if ranked else entries
        return
    last = len(order) - 1
    basis = [()] * n  # basis[j]: echelon basis of columns 0..j
    tries = [iter(range(field.q))]  # (0, 1) has nothing to check
    while tries:
        depth = len(tries) - 1
        pos = order[depth][0]
        for x in tries[depth]:
            entries[pos] = x
            if depth == last:
                if ranked:
                    j, column = order[depth][2]
                    left = previous_reduce([entries[k] for k in column], basis[j - 1], field)
                    yield entries, len(basis[j - 1]) + any(left)
                else:
                    yield entries
            elif not previous_square_entry(entries, field, order[depth + 1][1]):
                if ranked and order[depth][2]:
                    j, column = order[depth][2]
                    basis[j] = previous_extend(basis[j - 1], [entries[k] for k in column], field)
                tries.append(iter(range(field.q)))
                break
        else:
            tries.pop()


PREVIOUS_GRID = sorted(set(DIFFERENTIAL_GRID) | {(5, 4), (4, 9), (6, 2), (6, 3)})


class TestAgainstPreviousKernel:
    @pytest.mark.parametrize("ranked", [False, True], ids=["count", "ranked"])
    @pytest.mark.parametrize("n,q", PREVIOUS_GRID, ids=lambda v: str(v))
    def test_same_leaves_in_the_same_order(self, n, q, ranked):
        field = FiniteField(q)
        previous = (
            (tuple(leaf[0]), leaf[1]) if ranked else tuple(leaf)
            for leaf in previous_solutions(n, field, ranked)
        )
        pairs = itertools.zip_longest(search_leaves(n, field, ranked), previous)
        for k, (new, old) in enumerate(pairs):
            assert new == old, f"leaf {k}"


CORNER_GRID = sorted(set(PREVIOUS_GRID) - {(1, q) for q in SUPPORTED_ORDERS} | {(5, 5), (4, 16)})


@lru_cache(maxsize=None)
def corner_rule_branches(n: int, q: int) -> frozenset:
    """Check the one-reduction corner rule against the q per-corner ranks at
    every checked prefix of (n, q), and return the branches taken, named by
    how many corner values keep the rank of columns 0..n-2: "none" (v
    outside span(wide)), "all" (e in span(basis)) or "one" (the rest)."""
    field, column = FiniteField(q), _fill_order(n)[-1][2][1]
    seen = set()

    def visit(entries, basis, wide):
        new, per_corner = Counter(), Counter(previous_corner_ranks(entries, basis, column, field))
        _corner_ranks(new, column, field, entries, basis, wide)
        assert new == per_corner, entries
        kept = per_corner[len(basis)]
        seen.add("none" if kept == 0 else "all" if kept == q else "one")

    _search(n, field, visit, ranked=True)
    return frozenset(seen)


class TestCornerRule:
    """One reduction against ``wide`` ranks the q corner values of each
    prefix as the q per-corner reductions it replaced do."""

    @pytest.mark.parametrize("n,q", CORNER_GRID, ids=lambda v: str(v))
    def test_equals_the_per_corner_ranks_at_every_prefix(self, n, q):
        assert corner_rule_branches(n, q)  # it asserts at each prefix

    def test_all_three_branches_occur(self):
        seen = set().union(*(corner_rule_branches(n, q) for n, q in CORNER_GRID))
        assert seen == {"none", "one", "all"}

    @given(st.data())
    def test_equals_the_per_corner_ranks_on_random_columns(self, data):
        q = data.draw(st.sampled_from(SUPPORTED_ORDERS), label="q")
        rows = data.draw(st.integers(1, 6), label="rows")  # n - 1
        field, elements = FiniteField(q), st.integers(0, q - 1)
        vectors = st.lists(elements, min_size=rows, max_size=rows)
        columns = data.draw(st.lists(vectors, max_size=rows), label="columns")
        if data.draw(st.booleans(), label="e in span"):
            columns.insert(data.draw(st.integers(0, len(columns))), [1] + [0] * (rows - 1))
        basis = ()
        for c in columns:
            basis = _extend(basis, c[:], field)
        if data.draw(st.booleans(), label="v in span"):
            last = [0] * rows
            for c in columns:
                times = field.mul[data.draw(elements)]
                last = [field.add[x][times[y]] for x, y in zip(last, c)]
        else:
            last = data.draw(vectors, label="v")
        wide = _extend(basis, [1] + [0] * (rows - 1), field)
        new, column = Counter(), tuple(range(rows))
        _corner_ranks(new, column, field, last, basis, wide)
        assert new == Counter(previous_corner_ranks(last, basis, column, field))


def public_names(f: FiniteField):
    return types.SimpleNamespace(q=f.q, add=f.add, mul=f.mul, neg=f.neg, inv=f.inv)


class TestPublicInterface:
    """The search and its rank steps read a field only through q, add, mul,
    neg and inv."""

    @pytest.mark.parametrize("n,q", [(5, 4), (4, 9), (6, 2), (5, 3)], ids=lambda v: str(v))
    def test_a_proxy_of_the_public_names_gives_the_same_leaves(self, n, q):
        f = FiniteField(q)
        real, seen = search_leaves(n, f, ranked=True), search_leaves(n, public_names(f), ranked=True)
        for k, (old, new) in enumerate(itertools.zip_longest(real, seen)):
            assert new == old, f"leaf {k}"

    @pytest.mark.parametrize("n,q", [(5, 4), (4, 9), (6, 2), (5, 3)], ids=lambda v: str(v))
    def test_a_proxy_of_the_public_names_gives_the_same_rank_counts(self, n, q):
        proxy, ranks, column = public_names(FiniteField(q)), Counter(), _fill_order(n)[-1][2][1]
        _search(n, proxy, partial(_corner_ranks, ranks, column, proxy), ranked=True)
        assert dict(sorted(ranks.items())) == count_by_rank(n, q)


class TestTrackedRank:
    """The rank carried down the search against a full elimination of each
    leaf, at points beyond the odometer grid."""

    @pytest.mark.parametrize("n,q", [(5, 4), (4, 9), (6, 2)], ids=lambda v: str(v))
    def test_every_leaf_rank_equals_matrix_rank(self, n, q):
        field = FiniteField(q)
        for entries, rank in search_leaves(n, field, ranked=True):
            assert rank == matrix_rank(StrictUpperMatrix(n, entries), field), entries


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
    """Counting the corner q at a time rests on its being in no check."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_the_corner_alone_is_in_no_check(self, n):
        order = _fill_order(n)
        checked = set()
        for pos, check, _ in order:
            if check:
                a, pairs = check
                checked |= {pos, a, *itertools.chain.from_iterable(pairs)}
        if n == 1:
            assert order == () and checked == set()
            return
        corner = order[-1][0]
        assert corner == n - 2  # (0, n-1) in row-major order
        assert corner not in checked
        if n >= 3:
            assert checked == set(range(len(order))) - {corner}


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
            count_by_rank(4, 3)
        finally:
            sys.setprofile(None)
        assert reached == {"gf.py", "oracle.py"}
