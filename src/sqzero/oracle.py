"""Ground truth: enumerate strictly upper-triangular matrices over GF(q)
whose square is zero, and count them totally and by rank.

Its entire value as a cross-check comes from sharing no machinery with the
polynomial engines it is compared against, so the search takes no algebraic
shortcut: it assigns a value only if the entry of X^2 it completes is zero
by field add and mul, read from a table of roots built once per field, so
every counted X is fully checked; the corner X[0][n-1], in no entry of X^2,
counts q times.  It ranks by reducing columns with add, mul, neg and inv.

Only strictly upper-triangular matrices are enumerated.  That loses
nothing: for a triangular X the diagonal of X^2 consists of the squares of
X's own diagonal entries, and a field has no nonzero element whose square
is zero, so every upper-triangular solution of X^2 = 0 already has a zero
diagonal and the two counts coincide.
"""

from __future__ import annotations

from collections import Counter
from itertools import count

from .gf import FiniteField

DEFAULT_BUDGET = 10**8


class BudgetExceededError(Exception):
    """The enumeration would exceed the candidate budget.

    Carries the required candidate count so a caller can rerun with a
    deliberately raised budget instead of silently waiting forever.
    """

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration budget exceeded: {required} candidates > budget {budget}")
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


def _roots(field: FiniteField) -> tuple:
    """roots[a][s]: every x, in ascending order, with add[s][mul[a][x]] == 0."""
    add, mul, r = field.add, field.mul, range(field.q)
    return tuple(tuple(tuple(x for x in r if not add[s][mul[a][x]]) for s in r) for a in r)


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


def _corner_ranks(entries: list[int], basis, column, field: FiniteField):
    """Yield the rank of X for each corner value 0..q-1: column n-1 (indices
    top row first, so the corner first) reduced against columns 0..n-2."""
    last = [entries[k] for k in column]
    for c in range(field.q):
        last[0] = c
        yield len(basis) + any(_reduce(last[:], basis, field))


def _search(n: int, field: FiniteField, visit, ranked: bool = False) -> None:
    """Call visit(entries, basis) on each checked prefix: a square-zero X
    but for its corner X[0][n-1], as the reused row-major list ``entries``.
    The search is depth first and fills X column by column, each column
    from the bottom up.  Assigning X[i][j], i > 0, completes
    (X^2)[i-1][j] = X[i-1][i]*x + s, with s summed on entering (i, j) from
    entries filled earlier; only the x in roots[X[i-1][i]][s] are assigned,
    so each entry of X^2 with j >= i+2 is checked, once, on the way to a
    prefix.  The corner is in no entry of X^2 (row n-1 and column 0 of X
    are zero), so each of its q values completes a prefix to a solution.

    With ``ranked``, ``basis`` is the echelon basis of columns 0..n-2, kept
    one slot per column: the position completing column j reduces it
    against basis[j-1] into basis[j].  Without it, no rank work is done.
    """
    order = _fill_order(n)
    entries = [0] * len(order)
    basis = [()] * n  # basis[j]: echelon basis of columns 0..j
    add, mul, values, roots = field.add, field.mul, range(field.q), _roots(field)
    corner = len(order) - 1

    def fill(depth: int) -> None:
        if depth >= corner:
            visit(entries, basis[n - 2])
            return
        pos, check, done = order[depth]
        choices = values
        if check:
            a, pairs = check
            s = 0
            for u, v in pairs:
                s = add[s][mul[entries[u]][entries[v]]]
            choices = roots[entries[a]][s]
        for x in choices:
            entries[pos] = x
            if ranked and done:
                j, column = done
                basis[j] = _extend(basis[j - 1], [entries[k] for k in column], field)
            fill(depth + 1)

    fill(0)


def _enumerate(n: int, q: int, budget: int, by_rank: bool):
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    field = FiniteField(q)  # validates q before the budget check
    required = q ** (n * (n - 1) // 2)
    if required > budget:
        raise BudgetExceededError(required, budget)
    if n == 1:  # no corner: the one 1 x 1 matrix is zero
        return Counter({0: 1}) if by_rank else 1
    if not by_rank:
        prefixes = count()  # after k visits, next() gives k
        _search(n, field, lambda entries, basis: next(prefixes))
        return q * next(prefixes)  # each prefix with each of the corner's q values
    ranks, column = Counter(), _fill_order(n)[-1][2][1]
    _search(n, field, lambda e, b: ranks.update(_corner_ranks(e, b, column, field)), True)
    return ranks


def count_square_zero(n: int, q: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Exact number of n x n strictly upper-triangular matrices over GF(q)
    whose square is zero, by a search that assigns only values that zero
    the entry of X^2 they complete, so each counted X is fully checked with
    field add and mul; each checked prefix counts once per value of the
    free corner.  The budget bounds all q^(n(n-1)/2) candidates.

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
    complete, and each of the q corner values of a checked prefix costs one
    reduction of the last column.  Counting alone does no rank work.
    ``workers`` is ignored, as in count_square_zero."""
    ranks = _enumerate(n, q, budget, by_rank=True)
    return dict(sorted(ranks.items()))
