"""Small derivative-free numerics: adaptive Simpson quadrature, bisection,
and golden-section maximization.

These are deliberately self-contained so the density computations are
bit-reproducible and free of external tolerances.  Every quadrature runs
at one absolute tolerance, ``_TOL = 1e-11``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_DEPTH = 48  # halvings after which adaptive_simpson accepts a piece as it is
_TOL = 1e-11  # absolute tolerance of every quadrature


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, m, b, fa, fm, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive(f, a, lm, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive(
        f, m, rm, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate f on [a, b] with adaptive Simpson refinement."""
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive(f, a, m, b, fa, fm, fb, whole, _TOL, _MAX_DEPTH)


def integrate_piecewise(f: Callable[[float], float], points: Sequence[float]) -> float:
    """Integrate over [points[0], points[-1]] split at the interior points,
    so piecewise-defined integrands never straddle a breakpoint.  A single
    point or a zero-length piece adds nothing."""
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b > a:
            total += adaptive_simpson(f, a, b)
    return total


def bisect_root(g: Callable[[float], float], a: float, b: float,
                xtol: float = 1e-10) -> float:
    """Root of g on [a, b] by bisection; g(a) and g(b) must differ in sign."""
    ga = g(a)
    gb = g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga > 0) == (gb > 0):
        raise ValueError("bisection requires a sign change on [a, b]")
    while b - a > xtol:
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0.0:
            return m
        if (gm > 0) == (ga > 0):
            a, ga = m, gm
        else:
            b = m
    return 0.5 * (a + b)


def golden_max(f: Callable[[float], float], a: float, b: float,
               xtol: float = 1e-10) -> tuple[float, float]:
    """Locate a maximum of f on [a, b] by golden-section search.

    Converges to the maximum for unimodal f; for monotone f it converges
    to the better endpoint.  Returns (x, f(x)).
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while d - c > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (c + d)
    return x, f(x)
