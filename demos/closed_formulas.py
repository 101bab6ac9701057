"""Closed formulas for maximal-tangency curve counts, and the chains tying them together.

Run:  python demos/closed_formulas.py
"""

from wallcross import (
    binomial_identity_check,
    dt_kronecker_numeric,
    gw_local_p1,
    gw_selfnodal,
    load_p2_table,
    log_local_factor,
)
from wallcross.combinat import divisor_sum, minus_one_pow

# ---------------------------------------------------------------------------
# The degree-d counts on the weight-r pair come from a single binomial
# formula: (r+2)/d^2 * C((r+1)^2 d - 1, d - 1).  For r = 1 these are the
# plane-curve counts relative a nodal cubic.

print("degree-d counts relative a nodal plane cubic (r = 1):")
for d in range(1, 7):
    print(f"  d = {d}:  {gw_selfnodal(1, d)}")

# The shipped fixture table also carries the counts relative a *smooth*
# cubic, which are strictly larger in every degree: the nodal counts are
# only one contribution (multiple covers of a single line) to the smooth
# ones.

print("\nnodal vs smooth column (fixtures):")
for d, nodal, smooth in load_p2_table():
    print(f"  d = {d}:  {nodal}  <  {smooth}")

# ---------------------------------------------------------------------------
# Chain one: Moebius inversion of the Kronecker-quiver DT formula lands on
# the same numbers.  The quiver has m = r + 2 arrows and dimension (d, d).

print("\nMoebius chain at r = 2 (4 = (-1)^(4*1-1) * Omega alone at d = 1):")
m = 4
totals = divisor_sum([dt_kronecker_numeric(m, d) for d in range(1, 5)],
                     lambda l, omega: omega / (l * l))
for d in range(1, 5):
    sign = minus_one_pow(m * d - 1)
    total = totals[d - 1]
    print(f"  d = {d}:  {gw_selfnodal(2, d)} == {sign} * {total}"
          f"  -> {gw_selfnodal(2, d) == sign * total}")

# ---------------------------------------------------------------------------
# Chain two: the counts on the local curve O(r) + O(-r-2) differ by the
# sign/multiplicity factor (-1)^(D.beta + 1) * D.beta with D.beta = d(r+2).

print("\nlocal conversion at r = 1:")
for d in range(1, 7):
    factor = log_local_factor(d * 3)
    print(f"  d = {d}:  {gw_selfnodal(1, d)} = ({factor}) * ({gw_local_p1(1, d)})")

# ---------------------------------------------------------------------------
# The binomial identity that powers the simplification:
# C((r+1)^2 d - 1, d) = r(r+2) C((r+1)^2 d - 1, d - 1).

print("\nbinomial identity on a grid:")
print("  all hold:", all(binomial_identity_check(r, d)
                         for r in range(1, 7) for d in range(1, 13)))
