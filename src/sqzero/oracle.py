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


def _fill_order(n: int) -> tuple:
    """Every above-diagonal (i, j), column by column, each column from the
    bottom up, as its index in the row-major entry vector; for i > 0, the
    check that assigning it completes, (X^2)[i-1][j], as the index of
    X[i-1][i] and the index pairs (of X[i-1][t] and X[t][j], i < t < j)
    of its fixed part, else None; and what it completes: at (0, j), the
    last of column j in this order, (j, column j's indices top row first);
    elsewhere None.  All are read from one row-major index."""
    index = {ij: k for k, ij in enumerate((i, j) for i in range(n) for j in range(i + 1, n))}
    return tuple(
        (
            index[i, j],
            (index[i - 1, i], tuple((index[i - 1, t], index[t, j]) for t in range(i + 1, j)))
            if i
            else None,
            (j, tuple(index[t, j] for t in range(j))) if i == 0 else None,
        )
        for j in range(n)
        for i in range(j - 1, -1, -1)
    )


def _reduce(column: list[int], basis, field: FiniteField) -> list[int]:
    """Subtract from ``column``, in place, its components along an echelon
    basis: (pivot, vector) pairs, each vector a tuple of its nonzero
    (row, value) entries with value 1 at its pivot and 0 at every earlier
    pair's pivot.  What is left is zero iff the column lies in the span."""
    add, mul, neg = field.add, field.mul, field.neg
    for p, vector in basis:
        c = column[p]
        if c:
            times = mul[neg[c]]
            for i, y in vector:
                column[i] = add[column[i]][times[y]]
    return column


def _extend(basis: tuple, column: list[int], field: FiniteField) -> tuple:
    """The echelon basis of span(basis, column)."""
    column = _reduce(column, basis, field)
    for p, x in enumerate(column):
        if x:
            times = field.mul[field.inv(x)]
            vector = tuple((i, times[y]) for i, y in enumerate(column) if y)
            return basis + ((p, vector),)
    return basis


def _solutions(n: int, field: FiniteField, ranked: bool = False):
    """Yield every square-zero X as its row-major entry list, by a depth-first
    search that fills X column by column, each column from the bottom up.

    Assigning X[i][j] with i > 0 completes (X^2)[i-1][j] = X[i-1][i]*X[i][j]
    + s, where s, the sum over i < t < j of X[i-1][t]*X[t][j], reads only
    entries filled earlier.  So s is summed once, when the search enters
    (i, j), and kept per depth until it backtracks; each value x tried there
    is then checked in full as add[s][mul[X[i-1][i]][x]], read from the
    field's tables, and a nonzero entry prunes the subtree.  Each entry of
    X^2 with j >= i+2 is checked exactly once on the path to a leaf, so
    every yielded X is fully checked.  The yielded list is reused.

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
    add, mul, values = field.add, field.mul, range(field.q)
    last = len(order) - 1
    basis = [()] * n  # basis[j]: echelon basis of columns 0..j
    tries = [iter(values)]
    fixed = [None]  # per depth: (add[s], mul[X[i-1][i]]), None at i = 0
    while tries:
        depth = len(tries) - 1
        pos, _, done = order[depth]
        check = fixed[depth]
        if check:
            plus_s, times_a = check
        for x in tries[depth]:
            entries[pos] = x
            if depth == last:
                if ranked:
                    j, column = done
                    left = _reduce([entries[k] for k in column], basis[j - 1], field)
                    yield entries, len(basis[j - 1]) + any(left)
                else:
                    yield entries
            elif not (check and plus_s[times_a[x]]):
                if ranked and done:
                    j, column = done
                    basis[j] = _extend(basis[j - 1], [entries[k] for k in column], field)
                tries.append(iter(values))
                entering = order[depth + 1][1]
                if entering:
                    a, pairs = entering
                    s = 0
                    for u, v in pairs:
                        s = add[s][mul[entries[u]][entries[v]]]
                    entering = add[s], mul[entries[a]]
                fixed.append(entering)
                break
        else:
            tries.pop()
            fixed.pop()


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
