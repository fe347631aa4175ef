"""Ground truth: enumerate strictly upper-triangular matrices over GF(q)
whose square is zero, and count them totally and by rank.

Its entire value as a cross-check comes from sharing no machinery with the
polynomial engines it is compared against, so the search takes no algebraic
shortcut: it prunes only on entries of X^2 computed with field add and mul,
and ranks by reducing columns with field add, mul, neg and inv.

Only strictly upper-triangular matrices are enumerated.  That loses
nothing: for a triangular X the diagonal of X^2 consists of the squares of
X's own diagonal entries, and a field has no nonzero element whose square
is zero, so every upper-triangular solution of X^2 = 0 already has a zero
diagonal and the two counts coincide.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .gf import FiniteField

DEFAULT_BUDGET = 10**8


class BudgetExceededError(Exception):
    """The enumeration would exceed the candidate budget.

    Carries the required candidate count so a caller can rerun with a
    deliberately raised budget instead of silently waiting forever.
    """

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration budget exceeded: {required} candidates > budget {budget}"
        )
        self.required = required
        self.budget = budget


class StrictUpperMatrix(NamedTuple):
    """n x n matrix with zeros on and below the diagonal.

    ``entries`` holds the n(n-1)/2 above-diagonal values in row-major
    order over positions (i, j) with i < j.
    """

    n: int
    entries: tuple[int, ...]

    def rows(self) -> list[list[int]]:
        """Materialize the full n x n matrix."""
        out = [[0] * self.n for _ in range(self.n)]
        pos = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                out[i][j] = self.entries[pos]
                pos += 1
        return out


def flat_index(n: int, i: int, j: int) -> int:
    """Position of entry (i, j), i < j, in the row-major entry vector."""
    if not 0 <= i < j < n:
        raise ValueError(f"not an above-diagonal position: ({i}, {j}) for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _square_entry_pairs(n: int, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Entry-vector index pairs (of X[i][t] and X[t][j]) summing to (X^2)ij."""
    return tuple((flat_index(n, i, t), flat_index(n, t, j)) for t in range(i + 1, j))


@lru_cache(maxsize=None)
def _fill_order(n: int) -> tuple:
    """Every above-diagonal (i, j), column by column, each column from the
    bottom up, as its entry-vector index, the index pairs summing to (X^2)ij,
    and what it completes: at (0, j), the last of column j in this order, the
    pair (j, entry-vector indices of column j top row first); elsewhere None."""
    return tuple(
        (
            flat_index(n, i, j),
            _square_entry_pairs(n, i, j),
            (j, tuple(flat_index(n, t, j) for t in range(j))) if i == 0 else None,
        )
        for j in range(n)
        for i in range(j - 1, -1, -1)
    )


def _square_entry(entries, field: FiniteField, pairs) -> int:
    acc = 0
    for u, v in pairs:
        x = entries[u]
        if x:
            y = entries[v]
            if y:
                acc = field.add(acc, field.mul(x, y))
    return acc


def square_is_zero(mat: StrictUpperMatrix, field: FiniteField) -> bool:
    """True iff every entry of mat squared vanishes over the field.

    Only (i, j) with j >= i+2 is checked: for strictly upper-triangular X the
    diagonal and first superdiagonal of X^2 are identically zero.
    """
    n = mat.n
    if len(mat.entries) != n * (n - 1) // 2:
        raise ValueError(f"expected {n * (n - 1) // 2} entries for n={n}, got {len(mat.entries)}")
    return not any(_square_entry(mat.entries, field, pairs) for _, pairs, _ in _fill_order(n))


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
            rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        top = rows[rank]
        for i in range(rank + 1, m):
            f = rows[i][col]
            if f:
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], top)]
        rank += 1
        if rank == m:
            break
    return rank


def matrix_rank(mat: StrictUpperMatrix, field: FiniteField) -> int:
    return _rank_of_rows(mat.rows(), field)


def _reduce(column: list[int], basis, field: FiniteField) -> list[int]:
    """Subtract from ``column``, in place, its components along an echelon
    basis: (pivot, vector) pairs, each vector a tuple of its nonzero
    (row, value) entries with value 1 at its pivot and 0 at every earlier
    pair's pivot.  What is left is zero iff the column lies in the span."""
    for p, vector in basis:
        c = column[p]
        if c:
            c = field.neg(c)
            for i, y in vector:
                column[i] = field.add(column[i], field.mul(c, y))
    return column


def _extend(basis: tuple, column: list[int], field: FiniteField) -> tuple:
    """The echelon basis of span(basis, column)."""
    column = _reduce(column, basis, field)
    for p, x in enumerate(column):
        if x:
            inv = field.inv(x)
            vector = tuple((i, field.mul(inv, y)) for i, y in enumerate(column) if y)
            return basis + ((p, vector),)
    return basis


def _solutions(n: int, field: FiniteField, ranked: bool = False):
    """Yield every square-zero X as its row-major entry list, by a depth-first
    search that fills X column by column, each column from the bottom up.

    When the search reaches (i, j), every X[i][t] and X[t][j] with i < t < j
    is already filled, so (X^2)ij is fixed; a nonzero one prunes the subtree
    before any value of X[i][j] is tried.  Each entry of X^2 with j >= i+2 is
    checked exactly once on the path to a leaf, so every yielded X is fully
    checked.  The yielded list is reused.

    With ``ranked``, each leaf is yielded as (entries, rank of X), the rank
    kept as a column echelon basis along the search, one slot per column:
    once the position completing column j is assigned and survives its
    check, the column is reduced against basis[j-1] into basis[j], and
    backtracking just overwrites the slot.  A leaf reduces only its last
    column.  Without ``ranked`` the search does no rank work.
    """
    order = _fill_order(n)
    entries = [0] * len(order)
    if not order:
        yield (entries, 0) if ranked else entries
        return
    last = len(order) - 1
    basis = [()] * n  # basis[j]: echelon basis of columns 0..j
    tries = [iter(field.elements())]  # (0, 1) has nothing to check
    while tries:
        depth = len(tries) - 1
        pos = order[depth][0]
        for x in tries[depth]:
            entries[pos] = x
            if depth == last:
                if ranked:
                    j, column = order[depth][2]
                    left = _reduce([entries[k] for k in column], basis[j - 1], field)
                    yield entries, len(basis[j - 1]) + any(left)
                else:
                    yield entries
            elif not _square_entry(entries, field, order[depth + 1][1]):
                if ranked and order[depth][2]:
                    j, column = order[depth][2]
                    basis[j] = _extend(basis[j - 1], [entries[k] for k in column], field)
                tries.append(iter(field.elements()))
                break
        else:
            tries.pop()


def _enumerate(n: int, q: int, budget: int, by_rank: bool):
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    field = FiniteField(q)  # validates q before the budget check
    required = q ** (n * (n - 1) // 2)
    if required > budget:
        raise BudgetExceededError(required, budget)
    solutions = _solutions(n, field, ranked=by_rank)
    if not by_rank:
        return sum(1 for _ in solutions)
    return Counter(rank for _, rank in solutions)


def count_square_zero(
    n: int, q: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> int:
    """Exact number of n x n strictly upper-triangular matrices over GF(q)
    whose square is zero, by a pruned search that fully checks each one it
    counts; the budget bounds all q^(n(n-1)/2) candidates.

    The search always runs in the calling process.  ``workers`` is accepted
    and ignored, only because the benchmark still passes it."""
    return _enumerate(n, q, budget, by_rank=False)


def count_by_rank(
    n: int, q: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> dict[int, int]:
    """Square-zero count partitioned by matrix rank; only ranks that occur
    appear, and the values sum to count_square_zero(n, q).

    The rank is kept as a column echelon basis along the same search that
    count_square_zero runs: each column is reduced once, when it is
    complete, so a leaf costs one reduction of its last column.  Counting
    alone does no rank work.  ``workers`` is ignored, as in
    count_square_zero."""
    ranks = _enumerate(n, q, budget, by_rank=True)
    return dict(sorted(ranks.items()))
