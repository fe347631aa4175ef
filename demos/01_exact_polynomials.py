"""
Exact Laurent polynomials and Gaussian binomials
================================================

Everything in this library runs on exact integer arithmetic: polynomials
in q are stored as their valuation (possibly negative) and a tuple of
Python int coefficients, so memory grows with degree - valuation + 1.
Every polynomial the library forms spans O(n^2) or O(m^2) exponents, and
``terms`` is a read-only exponent -> coefficient view.  Results never
drift and equality checks are structural.
"""

from sqzero import ONE, Q, InexactDivisionError, QLaurentPoly, qbinomial

print("Exact polynomial arithmetic")
print("=" * 40)

###############################################################################
# Construction and arithmetic
# ---------------------------
# Build polynomials from term maps or compose them with operators.

p = 1 + Q  # 1 + q
print(f"p           = {p}")
print(f"p * (1 - q) = {p * (1 - Q)}")
print(f"p ** 4      = {p ** 4}")

# Negative exponents are first-class: q^-1 * q == 1.
laurent = QLaurentPoly({-1: 1})
print(f"q^-1 * q    = {laurent * Q}")

###############################################################################
# Exact division
# --------------
# Division either succeeds exactly or raises; nothing is ever truncated.

quotient = QLaurentPoly({0: 1, 3: -1}).exact_div(QLaurentPoly({0: 1, 1: -1}))
print(f"(1 - q^3) / (1 - q) = {quotient}")

try:
    QLaurentPoly({0: 1, 2: 1}).exact_div(1 + Q)
except InexactDivisionError as exc:
    print(f"inexact division raises: {exc}")

###############################################################################
# Evaluation
# ----------
# eval_at substitutes an integer for q, returning an int (or an exact
# Fraction when negative exponents are involved).

counting_poly = QLaurentPoly({2: 2, 1: -1})  # 2q^2 - q
for x in (1, 2, 3, 5):
    print(f"(2q^2 - q)(q={x}) = {counting_poly.eval_at(x)}")

###############################################################################
# Gaussian binomials
# ------------------
# qbinomial(m, n) is the q-analogue of C(m, n): a polynomial in q that
# specializes to the ordinary binomial at q = 1 and counts n-dimensional
# subspaces of an m-dimensional space over a q-element field.

for m, n in [(2, 1), (4, 2), (5, 2)]:
    gauss = qbinomial(m, n)
    print(f"qbinomial({m},{n}) = {gauss}   at q=1: {gauss.eval_at(1)}")

assert qbinomial(4, 2).eval_at(2) == 35  # 35 lines through the origin in GF(2)^4
print("35 2-subspaces of GF(2)^4, as expected")
