"""
Four engines, one family of polynomials
=======================================

The number of n x n strictly upper-triangular matrices over GF(q) whose
square is zero is a polynomial in q.  This library computes it four
independent ways and insists the answers agree exactly:

1. a closed form with alternating binomial coefficients,
2. a two-term triangular recurrence,
3. a constant-term (in w) formula for each recurrence entry,
4. a single constant-term formula for each row total.
"""

from sqzero import (
    binomial,
    closed_form,
    constant_term_entry,
    constant_term_total,
    recurrence_residual,
    recurrence_table,
)

print("Count polynomials, four ways")
print("=" * 40)

###############################################################################
# The polynomials themselves
# --------------------------

N_MAX = 10
table = recurrence_table(N_MAX)
for n in range(1, N_MAX + 1):
    poly = closed_form(n)
    assert poly == sum(table[n]) == constant_term_total(n)
    print(f"n={n:2d}  {poly}")
print(f"closed form, recurrence, and constant-term totals agree for n <= {N_MAX}")

###############################################################################
# Per-entry agreement
# -------------------
# The constant-term formula reproduces every entry of the recurrence
# table, not just the row sums.

for n in range(N_MAX + 1):
    for r in range(n // 2 + 1):
        assert constant_term_entry(n, r) == table[n][r]
print("constant-term entries match the recurrence table entry by entry")

print("\nthe triangular table for n <= 6:")
for n in range(1, 7):
    row = "  |  ".join(str(entry) for entry in table[n])
    print(f"  n={n}: {row}")

###############################################################################
# The recurrence residual
# -----------------------
# Substituting the constant-term formula into the recurrence must leave
# nothing behind.

assert all(
    not recurrence_residual(n, r) for n in range(12) for r in range((n + 1) // 2)
)
print("\nrecurrence residual vanishes identically for n <= 12")

###############################################################################
# Structure of the closed form
# ----------------------------
# Degrees follow a parabola and the leading coefficients of the even
# cases are the Catalan numbers.

print("\n m   deg C_2m   lead coeff   Catalan(m)")
for m in range(1, 9):
    poly = closed_form(2 * m)
    catalan = binomial(2 * m, m) - binomial(2 * m, m - 1)
    print(f"{m:2d}   {poly.degree():7d}   {poly.leading_coefficient():10d}   {catalan:10d}")
