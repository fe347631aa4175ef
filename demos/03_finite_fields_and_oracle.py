"""
Finite fields and the enumeration oracle
========================================

The formulas predict counts over any prime power q; the oracle checks them
the hard way, by searching the strictly upper-triangular matrices over a
concrete field for those whose square is zero, computing every entry of
the square with the field's own arithmetic.  Nothing is shared between
the two routes, which is the point.
"""

from sqzero import (
    FiniteField,
    SUPPORTED_ORDERS,
    closed_form,
    constant_term_entry,
    count_by_rank,
    count_square_zero,
)

print("Concrete fields")
print("=" * 40)
print(f"supported orders: {SUPPORTED_ORDERS}")

###############################################################################
# Extension-field arithmetic
# --------------------------
# Elements are ints; base-p digits are polynomial coefficients.  GF(4) is
# built from the modulus x^2 + x + 1, so x * x = x + 1.

f4 = FiniteField(4)
x = f4.element([0, 1])
print(f"GF(4): x = {x}, x + x = {f4.add(x, x)}, x * x = {f4.mul(x, x)} (= x + 1)")

f9 = FiniteField(9)
x = f9.element([0, 1])
print(f"GF(9): x * x = {f9.mul(x, x)} (modulus x^2 + 1, so x^2 = -1 = 2)")

###############################################################################
# Oracle vs formula
# -----------------
# Enumeration over small (n, q) grids, compared with the closed form
# evaluated at q.  The search prunes a partial matrix as soon as an entry
# of its square is fixed and nonzero, so each counted matrix is checked.

print("\n n  q   oracle   formula")
for q in (2, 3, 4, 5):
    for n in range(1, 5):
        counted = count_square_zero(n, q)
        predicted = closed_form(n).eval_at(q)
        status = "" if counted == predicted else "   <-- MISMATCH"
        print(f"{n:2d} {q:2d} {counted:8d} {predicted:9d}{status}")
        assert counted == predicted

###############################################################################
# Rank refinement
# ---------------
# The oracle can split the solutions by matrix rank.  The per-index
# constant-term formulas evaluated at q reproduce these refined counts
# (acceptance criterion 9 and `oracle --by-rank` assert it).

print("\nrank refinement at n=5, q=2:")
ranks = count_by_rank(5, 2)
for r, c in ranks.items():
    formula = constant_term_entry(5, r).eval_at(2)
    print(f"  rank {r}: oracle {c:4d}   entry formula {formula:4d}")
print(f"  total: {sum(ranks.values())} = {closed_form(5).eval_at(2)}")

###############################################################################
# One process
# -----------
# The search always runs in the calling process. A process pool was removed
# because it did not pay for itself: on 2 vCPU, count_square_zero(8, 2) took
# 2.00 s and 2.09 s with 1 worker and 2.15 s and 2.19 s with 2. The
# `workers=` keyword and `--workers` are still accepted and ignored, until
# the benchmark stops passing them.
