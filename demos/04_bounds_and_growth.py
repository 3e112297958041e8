"""Almost every long tuple is cyclic, exponentially so.

The fraction of the n-cube that is provably NOT cyclic is squeezed
between two exponentials via the regions whose adjacent pairwise sums
are uniformly small (or large).  Their volumes reduce to counting
up-down alternating permutations, which this script enumerates, bounds,
and compares against seeded Monte Carlo brackets.
"""

import math

from cyclictuples import (
    EstimatorSpec,
    alternating_count,
    andre_series,
    estimate,
    pi_n,
    pn_bounds,
    vol_dn_star,
)

print("The achievable minimum coordinate pi_n climbs toward 3/4:")
for n in (3, 4, 5, 6, 10, 50, 1000):
    print(f"  pi_{n:<5d}= {pi_n(n):.9f}")
print()

print("Up-down alternating permutation counts A_n and the classical series:")
print(f"  {'n':>3s} {'A_n':>8s} {'A_n/n!':>12s} {'series(50 terms)':>17s}")
for n in range(1, 11):
    ratio = alternating_count(n) / math.factorial(n)
    print(f"  {n:3d} {alternating_count(n):8d} {ratio:12.8f} {andre_series(n, 50):17.8f}")
print()

print("Exact volumes of the all-small-sums region with minimal first coordinate:")
for n in (3, 4, 5, 6, 8):
    v = vol_dn_star(n)
    print(f"  n={n}: {str(v):>9s} = {float(v):.8f}")
print()

print("Brackets on p_n (fraction of the cube that is cyclic), 10^6 samples:")
print(f"  {'n':>3s} {'closed lower':>13s} {'MC lower':>10s} {'MC upper':>10s} {'closed upper':>13s}")
for n in range(4, 9):
    res = estimate(EstimatorSpec(target="pn_bracket", samples=1_000_000, seed=100 + n, n=n))
    b = pn_bounds(n)
    print(
        f"  {n:3d} {b.lower:13.6f} {res['lower'].estimate:10.6f}"
        f" {res['upper'].estimate:10.6f} {b.upper:13.6f}"
    )
print()
print("The MC lines track the sharper closed bounds 1 - A_(n-1)/(n-1)! and 1 - 2(1 - pi_n)^n:")
for n in range(4, 9):
    b = pn_bounds(n)
    print(f"  n={n}: sharper lower = {b.sharper_lower:.6f}, sharper upper = {b.sharper_upper:.6f}")
