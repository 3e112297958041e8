"""Independent oracle for the benchmark's correctness checks.

Nothing here imports the library.  Every value is computed from the
paper's closed forms or from first principles, with its own code:

* p3, p3*, vol_I and vol_II from their closed forms, in mpmath;
* the zigzag numbers A_n from the convolution recurrence
  2 A_{n+1} = sum_k C(n, k) A_k A_{n-k} (not the boustrophedon triangle);
* Trybula's criterion and the up-down witness condition on Fractions;
* pi_n = 1 - 1/(4 cos^2(pi/(n+2))) in mpmath;
* the order-statistic densities f1/f2/f3 in closed form, their bin
  masses and statistics by mpmath quadrature, and, as a cross-check of
  the closed forms, the same densities as slice areas of the cyclic
  region (``slice_density``);
* cycle probabilities of a witness, by sorted prefix sums in Fractions.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.dps = 25
_mpf = mpmath.mpf

SQRT5 = mpmath.sqrt(5)
OMEGA = (SQRT5 - 1) / 2            # positive root of w^2 + w = 1
ONE_MINUS_OMEGA = (3 - SQRT5) / 2  # = OMEGA^2
LN2 = mpmath.log(2)

# Closed forms: vol_II = 3/16 - ln 2/8, vol_I = ln 2/8 - ln(2w) + 11w/12 - 7/16,
# p3 = 11 sqrt5/4 - 17/4 - 6 ln(sqrt5 - 1), p3* = 3 vol_I.
VOL_II = _mpf(3) / 16 - LN2 / 8
VOL_I = LN2 / 8 - mpmath.log(2 * OMEGA) + 11 * OMEGA / 12 - _mpf(7) / 16
P3 = 11 * SQRT5 / 4 - _mpf(17) / 4 - 6 * mpmath.log(SQRT5 - 1)
P3_STAR = 11 * SQRT5 / 8 - _mpf(43) / 16 - 3 * mpmath.log(SQRT5 - 1) + 3 * LN2 / 8


def volumes() -> dict[str, float]:
    """The four closed-form volumes as floats, keyed like the library's
    ``exact_volumes``."""
    return {"p3": float(P3), "p3_star": float(P3_STAR), "vol_I": float(VOL_I), "vol_II": float(VOL_II)}


# ---------------------------------------------------------------- zigzag numbers

@lru_cache(maxsize=None)
def zigzag(n: int) -> int:
    """A_n, the number of up-down permutations of n (A_0 = A_1 = 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:
        return 1
    m = n - 1
    return sum(math.comb(m, k) * zigzag(k) * zigzag(m - k) for k in range(m + 1)) // 2


def vol_dn_star(n: int) -> Fraction:
    """Volume A_{n-1} / (2n (n-1)!) of D*_n."""
    return Fraction(zigzag(n - 1), 2 * n * math.factorial(n - 1))


def pn_bounds(n: int) -> dict[str, float]:
    """1 - 3(2/pi)^n <= 1 - A_{n-1}/(n-1)! <= p_n <= 1 - 2 (1/4)^n."""
    return {
        "lower": float(1 - 3 * (2 / mpmath.pi) ** n),
        "sharper_lower": float(1 - Fraction(zigzag(n - 1), math.factorial(n - 1))),
        "upper": float(1 - 2 * _mpf(4) ** -n),
    }


def pi_n(n: int) -> mpmath.mpf:
    """Largest achievable minimum coordinate of a cyclic n-tuple."""
    return 1 - 1 / (4 * mpmath.cos(mpmath.pi / (n + 2)) ** 2)


# ---------------------------------------------------------------- exact decisions

def trybula_cyclic(x: Fraction, y: Fraction, z: Fraction) -> bool:
    """Trybula's criterion, non-strict, in exact arithmetic."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if not (x + y * z <= 1 or y + z * x <= 1 or z + x * y <= 1):
        return False
    a, b, c = 1 - x, 1 - y, 1 - z
    return a + b * c <= 1 or b + c * a <= 1 or c + a * b <= 1


def updown_holds(values) -> bool:
    """Some i has x_i + x_{i+1} >= 1 and x_{i+2} + x_{i+3} <= 1 (exact)."""
    xs = [Fraction(v) for v in values]
    n = len(xs)
    s = [xs[i] + xs[(i + 1) % n] for i in range(n)]
    return any(s[i] >= 1 and s[(i + 2) % n] <= 1 for i in range(n))


def pi_n_excludes(values) -> bool:
    """The necessity test, min > pi_n or max < 1 - pi_n, against pi_n at
    25 digits.  A value within 1e-20 of the threshold counts as on it,
    since pi_4 = 2/3 is rational and rational inputs can equal it."""
    p = pi_n(len(values))
    eps = _mpf(10) ** -20
    lo = min(Fraction(v) for v in values)
    hi = max(Fraction(v) for v in values)
    return (_mpf(lo.numerator) / lo.denominator > p + eps
            or _mpf(hi.numerator) / hi.denominator < 1 - p - eps)


def cycle_probabilities(dists) -> list[Fraction]:
    """P(U_{i+1} > U_i) for each i, where ``dists[i]`` is a list of
    (point, weight) pairs; exact, by sorted prefix sums."""
    n = len(dists)
    out = []
    for i in range(n):
        lower = sorted((Fraction(p), Fraction(w)) for p, w in dists[i])
        points = [p for p, _ in lower]
        prefix = [Fraction(0)]
        for _, w in lower:
            prefix.append(prefix[-1] + w)
        total = Fraction(0)
        for p, w in dists[(i + 1) % n]:
            total += Fraction(w) * prefix[bisect.bisect_left(points, Fraction(p))]
        out.append(total)
    return out


# ---------------------------------------------------------------- densities

def _f1_raw(x):
    if x <= ONE_MINUS_OMEGA:
        return x**3 - 3 * x**2 + (1 - x) / (2 - x) - (1 - x) * mpmath.log(1 - x)
    if x <= _mpf(1) / 2:
        return x**2 - 3 * x + 1 - (1 - x) * mpmath.log(1 - x)
    if x <= OMEGA:
        return x**2 + x - 1 + (1 - x) * mpmath.log(1 - x) - 2 * (1 - x) * mpmath.log(x)
    return _mpf(0)


def f1(x) -> mpmath.mpf:
    """Density of the smallest coordinate of a uniform cyclic triple."""
    x = _mpf(x)
    return 3 / P3 * _f1_raw(x) if 0 <= x <= 1 else _mpf(0)


def f2(x) -> mpmath.mpf:
    """Density of the middle coordinate; symmetric about 1/2."""
    x = _mpf(x)
    if x > _mpf(1) / 2:
        x = 1 - x
    if x < 0:
        return _mpf(0)
    if x <= ONE_MINUS_OMEGA:
        return 3 / P3 * (3 * x**2 - x**3)
    return 6 / P3 * (3 * x - x**2 - 1 / (2 * (1 - x)))


def f3(x) -> mpmath.mpf:
    """Density of the largest coordinate, f3(x) = f1(1 - x)."""
    return f1(1 - _mpf(x))


DENSITIES = {"f1": f1, "f2": f2, "f3": f3}
# every density is smooth between these points (f3 mirrors f1's)
BREAKPOINTS = [_mpf(0), ONE_MINUS_OMEGA, _mpf(1) / 2, OMEGA, _mpf(1)]


def cdf(which: str, x) -> mpmath.mpf:
    """Integral of the density from 0 to x, split at the breakpoints."""
    x = _mpf(x)
    pts = [p for p in BREAKPOINTS if p < x] + [x]
    return mpmath.quad(DENSITIES[which], pts) if len(pts) > 1 else _mpf(0)


@lru_cache(maxsize=None)
def bin_masses(which: str, bins: int) -> list[float]:
    """Probability of each of ``bins`` equal bins of [0, 1]."""
    cuts = [cdf(which, _mpf(k) / bins) for k in range(bins + 1)]
    return [float(b - a) for a, b in zip(cuts, cuts[1:])]


@lru_cache(maxsize=None)
def f1_stats() -> dict[str, float]:
    """Mean, median and mode of f1 (f3's are 1 minus these, f2's are 1/2)."""
    mean = mpmath.quad(lambda u: u * f1(u), BREAKPOINTS)
    median = mpmath.findroot(lambda m: cdf("f1", m) - _mpf(1) / 2, _mpf("0.197"))
    # the mode is the interior critical point on the first piece
    mode = mpmath.findroot(lambda u: mpmath.diff(f1, u), _mpf("0.107"))
    return {"mean": float(mean), "median": float(median), "mode": float(mode)}


def stats(which: str) -> dict[str, float]:
    if which == "f2":
        return {"mean": 0.5, "median": 0.5, "mode": 0.5}
    s = f1_stats()
    if which == "f1":
        return dict(s)
    return {k: 1.0 - v for k, v in s.items()}


@lru_cache(maxsize=None)
def moments(which: str) -> tuple[float, float]:
    """Mean and variance of the density."""
    f = DENSITIES[which]
    mean = mpmath.quad(lambda u: u * f(u), BREAKPOINTS)
    second = mpmath.quad(lambda u: u * u * f(u), BREAKPOINTS)
    return float(mean), float(second - mean**2)


def _z_interval(x: float, y: float) -> tuple[float, float]:
    """For fixed (x, y), the z with (x, y, z) cyclic form one interval
    [L, U]: each Trybula inequality is a union of half-lines in z."""
    inf = math.inf
    upper = max((1 - x) / y if y > 0 else inf, (1 - y) / x if x > 0 else inf, 1 - x * y)
    a, b = 1 - x, 1 - y
    w = max((1 - a) / b if b > 0 else inf, (1 - b) / a if a > 0 else inf, 1 - a * b)
    return 1 - w, upper


def slice_density(which: str, t: float) -> float:
    """f1/f2/f3 at t as a slice area of the cyclic region, by adaptive
    quadrature over y of the exact z-interval length.  Independent of
    the closed forms above; used to test them."""
    from scipy.integrate import quad

    def length(y: float, zlo: float, zhi: float) -> float:
        lo, hi = _z_interval(t, y)
        return max(0.0, min(hi, zhi) - max(lo, zlo))

    if which == "f1":    # t smallest: y, z in [t, 1]
        area, mult = quad(length, t, 1, args=(t, 1.0), limit=400, epsabs=1e-13)[0], 3
    elif which == "f3":  # t largest: y, z in [0, t]
        area, mult = quad(length, 0, t, args=(0.0, t), limit=400, epsabs=1e-13)[0], 3
    else:                # y < t < z
        area, mult = quad(length, 0, t, args=(t, 1.0), limit=400, epsabs=1e-13)[0], 6
    return mult * area / float(P3)
