"""Ground truth: enumerate strictly upper-triangular matrices over GF(q)
whose square is zero, and count them totally and by rank.

Its value as a cross-check is that it shares no machinery with the
polynomial engines it checks, so the search's one shortcut is a symmetry
of the problem, not an identity of the engines: it assigns a value only if
the entry of X^2 it completes is zero by field add and mul, read from a
table of roots built once per field, and it searches each orbit of the
diagonal torus X -> D X D^-1 on its partial matrices once, weighting a
normalised entry 1 by the q - 1 nonzero values it stands for.  X is kept
in fill order, so a completed column is a slice.  The corner X[0][n-1],
in no entry of X^2, counts q times.  The last checked entry, X[1][n-1],
is settled in bulk from the roots table, and one reduction of the last
column's known rows ranks all its values with every corner value.  Ranks
use add, mul, neg and inv.

At q = 2 the torus is trivial, so counting evaluates instead: for each
square-zero leading block of size n - 2 it checks all 2^(2n-4) values of
the last two columns' entries below the corner at once, bit-sliced, one
big-int mask per entry and per check (Biham 1997), with XOR and AND
asserted to be GF(2)'s add and mul tables.

Only strictly upper-triangular X are enumerated.  That loses nothing: the
diagonal of X^2 holds the squares of X's diagonal, and in a field only 0
squares to 0, so every triangular solution already has a zero diagonal.
"""

from __future__ import annotations

from collections import Counter

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


def _last_column_ranks(ranks: Counter, n: int, field: FiniteField):
    """A visitor adding to ``ranks``, ``weight`` times over, the rank of X
    at each x in xs at (1, n-1) and corner value c.  Column n-1, top row
    first, is v0 + x*e1 + c*e0, v0 with rows 0 and 1 unset.  With row 0
    cleared, its reduction is L0 + x*L1, L0 that of v0; L1, that of e1, is
    0 if a basis vector is pivoted at row 1 (or n = 2, with no row 1), else
    e1 itself, as each vector is pivoted at its last nonzero row.  So the
    residue is zero at every x (L1 = 0 = L0), at none (L1 = 0 != L0) or at
    x* = -L0[1] alone, when L0 is zero below row 1.  Each x then takes the
    corner rule: nonzero adds 1 to len(basis) at every c; zero adds 1 at no
    c if e0 is a basis vector, else at all c but one."""
    neg, q = field.neg, field.q

    def visit(entries, basis, xs, weight) -> None:
        l0 = _reduce(entries[-1:-n:-1], basis, field)
        l0[0] = 0
        if n < 3 or any(p == 1 for p, _ in basis):  # L1 = 0
            zeros = not any(l0) and len(xs)
        else:  # L1 = e1
            zeros = neg[l0[1]] in xs and not any(l0[2:])
        keep, rank = q if (0, ((0, 1),)) in basis else 1, len(basis)
        kept, total = keep * zeros, len(xs) * q  # the (x, c) that keep the rank
        if kept:
            ranks[rank] += weight * kept
        if kept < total:
            ranks[rank + 1] += weight * (total - kept)

    return visit


def _search(n: int, field: FiniteField, visit=None) -> int:
    """For n >= 2, the number of square-zero X with corner X[0][n-1] = 0,
    each good for q corner values, from a depth-first search that fills
    the reused list ``entries``, X in fill order.  Assigning X[i][j], i > 0,
    completes X[i-1][i]*x + X[i-1][i+1]*X[i+1][j] + h of X^2, h summing
    pairs[1:] of its check: the node at (i+1, j) sums h once for all its
    values y, each giving roots[X[i-1][i]][X[i-1][i+1]*y + h] to (i, j),
    and assigns a single root without a call.

    The diagonal torus acts by X -> D X D^-1, which keeps X^2 = 0 and the
    rank.  Where (i, j) admits all q values and i, j lie in different
    components of the nonzero entries placed so far (``labels``), scaling
    j's component maps the subtree of x = 1 onto that of any x != 0 and
    fixes every placed entry.  So for q > 2 ``split`` tries only 0 and 1
    there and counts the 1 branch q - 1 times: the count adds (q - 2)
    times the branch's own count when it returns, and ``weight``, the
    prefix's product of those q - 1, goes to ``visit``.  A forced nonzero
    root joins indices already connected through its check, so labels
    change only at these positions, and are restored there.  Counting
    alone settles the node before (1, n-1) without the rule.

    The node before (1, n-1) counts (1, n-1)'s roots xs, and with
    ``visit`` calls visit(entries, basis[n-2], xs, weight), which must
    leave ``entries`` as it was; basis[j], the echelon basis of columns
    0..j, is then built when (0, j) completes, from basis[j-1] and column
    j's slice, top row first.  n = 2 has no (1, n-1): its xs is (0,)."""
    order = _fill_order(n)
    corner = len(order) - 1
    settle = corner - 2  # the node before (1, n-1)
    entries, basis = [0] * len(order), [()] * (n - 1)
    add, mul, roots, q = field.add, field.mul, _roots(field), field.q
    counted, weight = 0, 1
    if settle < 0:
        if visit:
            visit(entries, basis[0], (0,), weight)
        return 1
    # per node: j (0 without visit), then a, b, h of the child's check
    # X[i-1][i]*x + X[i-1][i+1]*y + h; the corner, never set, is a zero term
    spec = []
    for d in range(settle + 1):
        a, pairs = order[d + 1][0] or (corner, ())
        b = pairs[0][0] if pairs else corner
        spec.append((order[d][1] if visit else 0, a if d else None, b, pairs[1:]))
    first = tuple(r[0] for r in roots)  # (1, 2)'s check is X[0][1]*x
    ends = [(i, j) for j in range(n) for i in range(j - 1, -1, -1)]  # per depth
    labels = list(range(n))  # a component's label, per index
    full = q if q > 2 else 0  # the rule's len(xs); at q = 2 a 1 branch is one value

    def split(depth: int) -> bool:
        """At a node whose xs is all q values: if it adds a forest edge,
        search 0 and 1, count the 1 branch q - 1 times, and say so."""
        nonlocal counted, weight
        i, j = ends[depth]
        li, lj = labels[i], labels[j]
        if li == lj:
            return False
        fill(depth, (0,))
        saved, before, w = labels[:], counted, weight
        labels[:] = [li if label == lj else label for label in labels]
        weight *= q - 1
        fill(depth, (1,))
        labels[:], weight = saved, w
        counted += (q - 2) * (counted - before)
        return True

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
            if full and len(xs) == full and split(depth):
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
                    visit(entries, basis[-1], ys, weight)
                elif len(xs) > 1:
                    fill(depth + 1, ys)
                else:  # one root: go on in this call
                    break
            else:
                return
            depth, xs = depth + 1, ys

    fill(0, range(q))
    return counted


def _xors(values) -> list[int]:
    """table[s]: the XOR of values[t] over the bits t of s."""
    table = [0]
    for v in values:
        table += [u ^ v for u in table]
    return table


def _bitsliced(n: int, field: FiniteField):
    """For n >= 2, yield (rows, passing) per square-zero leading block Y of
    size m = n - 2, in one reused list.  Row t of Y is the bitmask of its
    nonzero columns; rows are chosen bottom up, and row i passes when the
    rows it picks XOR to zero (row i of Y^2).  Bit p of ``passing`` is set
    iff X^2 = 0 at pattern p of the 2m sliced entries: X[t][n-2] is bit t
    of p, X[t][n-1] bit m - 1 + t (0 < t <= m).  checks[i][s], for row i of
    Y = s << (i + 1), ORs the masks of row i's checks in columns n-2 and
    n-1: XORs of entry masks, and at n-1 the AND X[i][n-2]*X[n-2][n-1]."""
    if field.q != 2 or field.add != ((0, 1), (1, 0)) or field.mul != ((0, 0), (0, 1)):
        raise ArithmeticError("GF(2)'s add and mul tables are not XOR and AND")
    m = n - 2
    ones = (1 << (1 << 2 * m)) - 1
    masks = []
    for k in range(2 * m):  # 2^k zeros then 2^k ones, repeated: bit k of p
        half = 1 << k
        masks.append((((1 << half) - 1) << half) * (ones // ((1 << 2 * half) - 1)))
    last = [0, *masks[m:]]  # the corner X[0][n-1] is in no check
    checks = []
    for i in range(m):
        quad = masks[i] & last[m]
        linear = zip(_xors(masks[i + 1 : m]), _xors(last[i + 1 : m]))
        checks.append([a | (b ^ quad) for a, b in linear])
    rows = [0] * m

    def walk(i: int, bad: int):
        if i < 0:
            yield rows, ones ^ bad
            return
        for s, v in enumerate(_xors(rows[i + 1 :])):
            if not v:
                rows[i] = s << (i + 1)
                yield from walk(i - 1, bad | checks[i][s])

    return walk(m - 1, 0)


def _enumerate(n: int, q: int, budget: int, by_rank: bool):
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    field = FiniteField(q)  # validates q before the budget check
    cells = n * (n - 1) // 2
    if q ** min(cells, budget.bit_length()) > budget:  # exact, as q >= 2
        raise BudgetExceededError(q, cells, budget)
    if n == 1:  # no corner: the one 1 x 1 matrix is zero
        return Counter({0: 1}) if by_rank else 1
    if not by_rank:  # each with each of the corner's q values
        if q == 2:
            return 2 * sum(passing.bit_count() for _, passing in _bitsliced(n, field))
        return q * _search(n, field)
    ranks = Counter()
    _search(n, field, _last_column_ranks(ranks, n, field))
    return ranks


def count_square_zero(n: int, q: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Exact number of n x n strictly upper-triangular X over GF(q) with
    X^2 = 0, by a search that takes only values that zero the entry of X^2
    they complete; each X found counts once per value of the free corner,
    and an entry normalised to 1 by the torus once per nonzero value.  At
    q = 2, each square-zero leading block of size n - 2 instead counts the
    passing patterns of the last two columns, bit-sliced, twice for the
    corner.  The budget bounds all q^(n(n-1)/2) candidates.  The count runs
    in the calling process; ``workers`` is ignored (the benchmark passes
    it)."""
    return _enumerate(n, q, budget, by_rank=False)


def count_by_rank(
    n: int, q: int, *, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> dict[int, int]:
    """Square-zero count by matrix rank; only ranks that occur appear, and
    the values sum to count_square_zero(n, q).  The search keeps a column
    echelon basis, each column reduced once when complete, and one reduction
    of the last column's known rows against it ranks a prefix's values of
    X[1][n-1] and the corner.  ``workers`` is ignored, as in
    count_square_zero."""
    ranks = _enumerate(n, q, budget, by_rank=True)
    return dict(sorted(ranks.items()))
