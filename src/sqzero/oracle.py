"""Ground truth: enumerate strictly upper-triangular matrices over GF(q)
whose square is zero, and count them totally and by rank.

Its value as a cross-check is that it shares no machinery with the
polynomial engines it checks, so the search takes no algebraic shortcut:
it assigns a value only if the entry of X^2 it completes is zero by field
add and mul, read from a table of roots built once per field.  X is kept
in fill order, so a completed column is a slice.  The corner X[0][n-1],
in no entry of X^2, counts q times, and one reduction of the last column
ranks all q of its values.  Ranks use add, mul, neg and inv.

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
    """The enumeration would exceed the candidate budget.  ``required``
    builds the count, q^cells, only when asked."""

    def __init__(self, q: int, cells: int, budget: int):
        super().__init__(f"enumeration budget exceeded: {q}^{cells} candidates > budget {budget}")
        self.q, self.cells, self.budget = q, cells, budget

    def __reduce__(self):
        return type(self), (self.q, self.cells, self.budget)

    @property
    def required(self) -> int:
        return self.q**self.cells


def _fill_order(n: int) -> tuple:
    """(check, j) per position of the fill order: column by column, each
    from the bottom up, so (i, j) is at j(j-1)/2 + (j-1-i).  For i > 0,
    check is (X^2)[i-1][j], which assigning (i, j) completes: the position
    of X[i-1][i] and the position pairs of X[i-1][t] and X[t][j],
    i < t < j, of its fixed part; else None.  j is 0 but at (0, j)."""
    at = lambda i, j: j * (j - 1) // 2 + (j - 1 - i)
    return tuple(
        (
            (at(i - 1, i), tuple((at(i - 1, t), at(t, j)) for t in range(i + 1, j))) if i else None,
            0 if i else j,
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
    """The echelon basis of span(basis, column), the new vector pivoted at
    the last nonzero row of the reduced column.  So the pivots >= i of the
    basis of columns 0..j count the rank of rows i.., columns 0..j."""
    column = _reduce(column, basis, field)
    for p in reversed(range(len(column))):
        if column[p]:
            times = field.mul[field.inv(column[p])]
            return basis + ((p, tuple((i, times[y]) for i, y in enumerate(column) if y)),)
    return basis


def _corner_ranks(ranks: Counter, n: int, field: FiniteField, entries, basis) -> None:
    """Add to ``ranks`` the rank of X at each of its q corner values c.
    Column n-1, entries[-1:-n:-1] (corner first), is v + c*e, e the
    corner's unit column.  Each vector's pivot is its last nonzero row, so
    one pivoted at row 0 is e: e is in span(basis) iff in ``basis``, and
    the reductions of v + c*e and of v differ in row 0 alone.  So with row
    0 cleared, if any of v is left, each c adds 1 to len(basis); else, with
    e in ``basis``, none does; else all but one c do."""
    rank = len(basis)
    left = _reduce(entries[-1:-n:-1], basis, field)
    left[0] = 0
    if any(left):
        ranks[rank + 1] += field.q
    elif (0, ((0, 1),)) in basis:
        ranks[rank] += field.q
    else:
        ranks[rank] += 1
        ranks[rank + 1] += field.q - 1


def _search(n: int, field: FiniteField, visit, ranked: bool = False) -> None:
    """For n >= 2, call visit(entries, basis) on each checked prefix: a
    square-zero X but for its corner X[0][n-1], as the reused list
    ``entries`` in fill order, entries[d] set at depth d of a depth-first
    search, and basis[n-2].  Assigning X[i][j], i > 0, completes
    (X^2)[i-1][j] = X[i-1][i]*x + s, s summed on entering (i, j), so only
    the x in roots[X[i-1][i]][s] are tried and each entry of X^2 with
    j >= i+2 is checked once on the way.  The corner is in no entry of X^2,
    so its q values each complete a prefix.  With ``ranked``, basis[j], the
    echelon basis of columns 0..j, is built from basis[j-1] and column j's
    slice, top row first, when (0, j) completes; else no rank work is done."""
    order = _fill_order(n)
    entries = [0] * len(order)
    basis = [()] * (n - 1)
    add, mul, values, roots = field.add, field.mul, range(field.q), _roots(field)
    corner = len(order) - 1

    def fill(depth: int) -> None:
        if depth >= corner:
            visit(entries, basis[n - 2])
            return
        check, j = order[depth]
        choices = values
        if check:
            a, pairs = check
            s = 0
            for u, v in pairs:
                s = add[s][mul[entries[u]][entries[v]]]
            choices = roots[entries[a]][s]
        for x in choices:
            entries[depth] = x
            if ranked and j:
                basis[j] = _extend(basis[j - 1], entries[depth - j + 1 : depth + 1][::-1], field)
            fill(depth + 1)

    fill(0)


def _enumerate(n: int, q: int, budget: int, by_rank: bool):
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    field = FiniteField(q)  # validates q before the budget check
    cells = n * (n - 1) // 2
    if q ** min(cells, budget.bit_length()) > budget:  # exact, as q >= 2
        raise BudgetExceededError(q, cells, budget)
    if n == 1:  # no corner: the one 1 x 1 matrix is zero
        return Counter({0: 1}) if by_rank else 1
    if not by_rank:
        prefixes = count()  # after k visits, next() gives k
        _search(n, field, lambda entries, basis: next(prefixes))
        return q * next(prefixes)  # each prefix with each of the corner's q values
    ranks = Counter()
    _search(n, field, partial(_corner_ranks, ranks, n, field), True)
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
    the values sum to count_square_zero(n, q).  The search keeps a column
    echelon basis, each column reduced once when complete, and one reduction
    of the last column against it ranks a prefix's q corner values.
    ``workers`` is ignored, as in count_square_zero."""
    ranks = _enumerate(n, q, budget, by_rank=True)
    return dict(sorted(ranks.items()))
