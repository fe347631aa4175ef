"""Ground truth: enumerate strictly upper-triangular matrices over GF(q)
whose square is zero, and count them totally and by rank.

Its value as a cross-check is that it shares no machinery with the
polynomial engines it checks, so the search takes no algebraic shortcut:
it assigns a value only if the entry of X^2 it completes is zero by field
add and mul, read from a table of roots built once per field.  The corner
X[0][n-1], in no entry of X^2, counts q times, and one reduction of the
last column ranks all q of its values.  Ranks use add, mul, neg and inv.

Only strictly upper-triangular X are enumerated.  That loses nothing: the
diagonal of X^2 holds the squares of X's diagonal, and in a field only 0
squares to 0, so every triangular solution already has a zero diagonal.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import count

from .gf import FiniteField

DEFAULT_BUDGET = 10**8


class BudgetExceededError(Exception):
    """The enumeration would exceed the candidate budget.  Carries the
    required count, so a caller can rerun with a raised budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration budget exceeded: {required} candidates > budget {budget}")
        self.required = required
        self.budget = budget


def _fill_order(n: int) -> tuple:
    """Every above-diagonal (i, j), column by column, each column from the
    bottom up, as its index in the row-major entry vector; for i > 0, the
    check that assigning it completes, (X^2)[i-1][j], as the index of
    X[i-1][i] and the index pairs (of X[i-1][t] and X[t][j], i < t < j) of
    its fixed part, else None; and at (0, j), the last of column j in this
    order, what it completes: (j, column j's indices top row first)."""
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


def _corner_ranks(ranks: Counter, column, field: FiniteField, entries, basis, wide) -> None:
    """Add to ``ranks`` the rank of X at each of its q corner values c.
    Column n-1 (indices top row first) runs through v + c*e, e the corner's
    unit column, so one reduction of v against ``wide`` decides: outside
    span(wide), each c adds 1 to len(basis); else, with e in span(basis),
    none does; else all but one c do."""
    rank = len(basis)
    if any(_reduce([entries[k] for k in column], wide, field)):
        ranks[rank + 1] += field.q
    elif len(wide) == rank:
        ranks[rank] += field.q
    else:
        ranks[rank] += 1
        ranks[rank + 1] += field.q - 1


def _search(n: int, field: FiniteField, visit, ranked: bool = False) -> None:
    """Call visit(entries, basis, wide) on each checked prefix: a square-zero
    X but for its corner X[0][n-1], as the reused row-major list ``entries``.
    Depth first, X is filled column by column, each from the bottom up.
    Assigning X[i][j], i > 0, completes (X^2)[i-1][j] = X[i-1][i]*x + s, s
    summed on entering (i, j), so only the x in roots[X[i-1][i]][s] are
    tried and each entry of X^2 with j >= i+2 is checked once on the way.
    The corner is in no entry of X^2, so its q values each complete a prefix.
    With ``ranked``, basis[j], the echelon basis of columns 0..j, is built
    from basis[j-1] when column j completes; the unused slot basis[n-1]
    holds ``wide``, basis[n-2] and the corner's unit column.  Without
    ``ranked``, no rank work is done."""
    order = _fill_order(n)
    entries = [0] * len(order)
    basis = [()] * n  # basis[j]: echelon basis of columns 0..j
    unit = [1] + [0] * (n - 2)  # the corner's unit column, top row first
    if ranked and n > 1:
        basis[n - 1] = _extend((), unit[:], field)
    add, mul, values, roots = field.add, field.mul, range(field.q), _roots(field)
    corner = len(order) - 1

    def fill(depth: int) -> None:
        if depth >= corner:
            visit(entries, basis[n - 2], basis[n - 1])
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
                if j == n - 2:
                    basis[j + 1] = _extend(basis[j], unit[:], field)
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
        _search(n, field, lambda entries, basis, wide: next(prefixes))
        return q * next(prefixes)  # each prefix with each of the corner's q values
    ranks, column = Counter(), _fill_order(n)[-1][2][1]
    _search(n, field, partial(_corner_ranks, ranks, column, field), True)
    return ranks


def count_square_zero(n: int, q: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Exact number of n x n strictly upper-triangular X over GF(q) with
    X^2 = 0, by a search that assigns only values that zero the entry of
    X^2 they complete; each checked prefix counts once per value of the free
    corner.  The budget bounds all q^(n(n-1)/2) candidates.  The search runs
    in the calling process; ``workers`` is ignored (the benchmark passes it)."""
    return _enumerate(n, q, budget, by_rank=False)


def count_by_rank(
    n: int, q: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> dict[int, int]:
    """Square-zero count by matrix rank; only ranks that occur appear, and
    the values sum to count_square_zero(n, q).  A column echelon basis is
    kept along the same search, each column reduced once when complete, and
    one reduction of the last column ranks all q corner values of a checked
    prefix.  ``workers`` is ignored, as in count_square_zero."""
    ranks = _enumerate(n, q, budget, by_rank=True)
    return dict(sorted(ranks.items()))
