"""Complete analysis of cyclic triples (n = 3).

The n = 3 case is fully decidable: a triple (x, y, z) is cyclic exactly
when both of

    min(x + yz, y + zx, z + xy) <= 1
    min(X + YZ, Y + ZX, Z + XY) <= 1      with X = 1-x, Y = 1-y, Z = 1-z

hold (Trybula's criterion, non-strict by convention).  This module gives
the exact decision, membership tests for the standard sub-regions, the
closed-form volumes, the order-statistic densities of a uniform random
cyclic triple, their summary statistics, and a rejection sampler.

Each region is written once, here, as a predicate of (x, y, z): ``cyclic``
(from ``trybula``), ``nontransitive``, ``c3_i``, ``c3_ii`` and
``ordered_cyclic``.  They use only + - * and comparisons joined by & and |,
every comparison made by ``core.le``/``core.lt``, and 1/2 is the float 0.5,
which is only compared.  So one function decides scalars of every kind
exactly in ``is_cyclic_triple`` and ``in_region``, and numpy columns, and
``symbolic.trace`` records it as the program that the sampler and ``mc`` run.

The criterion is invariant under all six permutations of (x, y, z), so the
sampler sorts each uniform cube point and then accepts it if it is cyclic:
that samples the ordered region x <= y <= z uniformly at acceptance p3,
about 0.628, rather than the p3/6 of rejecting unsorted points.

The constant ``OMEGA = (sqrt(5)-1)/2`` (positive root of w^2 + w = 1)
appears throughout: it is both the largest possible minimum coordinate of
a cyclic triple and the right endpoint of the smallest-element density's
support.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import rng, symbolic
from .core import (
    InvalidTupleError,
    Number,
    ProbTuple,
    Reason,
    Verdict,
    as_tuple,
    decide_exactly,
    in_region,
    le,
    lt,
)
from .numeric import adaptive_simpson, bisect_root, golden_max, integrate_piecewise

_SQRT5 = math.sqrt(5.0)
OMEGA = (_SQRT5 - 1.0) / 2.0
ONE_MINUS_OMEGA = (3.0 - _SQRT5) / 2.0
# sample_ordered_cyclic holds every row it returns: 10^8 rows are 2.4 GB.
MAX_SAMPLE_ROWS = 10**8

# Closed-form volumes: vol_II = 3/16 - ln(2)/8 and
# vol_I = ln(2)/8 - ln(2w) + 11w/12 - 7/16, with the cyclic and
# nontransitive probabilities p3 = 6(vol_I + vol_II), p3* = 3 vol_I.
VOL_C3_II = 3.0 / 16.0 - math.log(2.0) / 8.0
VOL_C3_I = math.log(2.0) / 8.0 - math.log(2.0 * OMEGA) + 11.0 * OMEGA / 12.0 - 7.0 / 16.0
P3 = 11.0 * _SQRT5 / 4.0 - 17.0 / 4.0 - 6.0 * math.log(_SQRT5 - 1.0)
P3_STAR = 11.0 * _SQRT5 / 8.0 - 43.0 / 16.0 - 3.0 * math.log(_SQRT5 - 1.0) + 3.0 * math.log(2.0) / 8.0


def trybula(x, y, z):
    """Trybula's first inequality, min(x + yz, y + zx, z + xy) <= 1.  The
    second is the same inequality on (1-x, 1-y, 1-z)."""
    return le(x + y * z, 1) | le(y + z * x, 1) | le(z + x * y, 1)


def cyclic(x, y, z):
    """The cyclic region C3: both of Trybula's inequalities hold."""
    return trybula(x, y, z) & trybula(1 - x, 1 - y, 1 - z)


def nontransitive(x, y, z):
    """The nontransitive region C3*: cyclic with every coordinate above 1/2."""
    return cyclic(x, y, z) & lt(0.5, x) & lt(0.5, y) & lt(0.5, z)


def c3_i(x, y, z):
    """C3_I: cyclic, 1/2 < x <= OMEGA, x <= y, x <= z.  Products replace
    quotients (y <= (1-x)/x becomes x*y <= 1-x) and x <= OMEGA is written
    x*x + x <= 1, so no constant is rounded."""
    return (
        lt(0.5, x)
        & le(x * x + x, 1)
        & le(x, y)
        & le(x * y, 1 - x)
        & le(x, z)
        & le(y * z, 1 - x)
    )


def c3_ii(x, y, z):
    """C3_II: cyclic, x < 1/2 < y, z."""
    return (
        lt(x, 0.5)
        & lt(0.5, z)
        & ((lt(0.5, y) & le(y, 1 - x)) | (lt(1 - x, y) & le(y * z, 1 - x)))
    )


def ordered_cyclic(x, y, z):
    """The ordered cyclic region: x <= y <= z, x + yz <= 1 and
    (1-z) + (1-x)(1-y) <= 1, which is Trybula's criterion on sorted
    coordinates."""
    return (
        le(x, y)
        & le(y, z)
        & le(x + y * z, 1)
        & le((1 - z) + (1 - x) * (1 - y), 1)
    )


def _as_triple(t: ProbTuple | Sequence[Number]) -> ProbTuple:
    t = as_tuple(t)
    if t.n != 3:
        raise InvalidTupleError(f"expected a triple, got n={t.n}")
    return t


# The three triple verdicts, built once: constructing a Verdict costs about 1 us.
_INEQ1_FAILS = Verdict(Reason.TRYBULA_INEQ1_FAILS)
_INEQ2_FAILS = Verdict(Reason.TRYBULA_INEQ2_FAILS)
_BOTH_HOLD = Verdict(Reason.TRYBULA_BOTH_HOLD)


def _trybula_verdict(x, y, z) -> Verdict:
    if not trybula(x, y, z):
        return _INEQ1_FAILS
    if not trybula(1 - x, 1 - y, 1 - z):
        return _INEQ2_FAILS
    return _BOTH_HOLD


def is_cyclic_triple(t: ProbTuple | Sequence[Number]) -> Verdict:
    """Exact decision for n = 3; never returns Unknown.

    Membership is non-strict on the boundary and decided on the exact value
    of the coordinates (floats included); the reason names the violated
    inequality when the verdict is NotCyclic.
    """
    return decide_exactly(_trybula_verdict, _as_triple(t).values)


def is_nontransitive_triple(t: ProbTuple | Sequence[Number]) -> bool:
    """Cyclic with every coordinate strictly above 1/2."""
    return in_region(_as_triple(t), nontransitive)


def exact_volumes() -> dict[str, float]:
    """Closed-form probabilities that a uniform random triple is cyclic
    (p3), nontransitive (p3_star), and the two building-block volumes."""
    return {"p3": P3, "p3_star": P3_STAR, "vol_I": VOL_C3_I, "vol_II": VOL_C3_II}


# Density breakpoints.  At a breakpoint the left piece is evaluated; the
# formulas are continuous there, so this only pins bit-reproducibility.
F1_BREAKPOINTS = (ONE_MINUS_OMEGA, 0.5, OMEGA)


def _f1(x: float) -> float:
    if x <= ONE_MINUS_OMEGA:
        v = x * x * x - 3.0 * x * x + (1.0 - x) / (2.0 - x) - (1.0 - x) * math.log1p(-x)
    elif x <= 0.5:
        v = x * x - 3.0 * x + 1.0 - (1.0 - x) * math.log1p(-x)
    elif x <= OMEGA:
        v = x * x + x - 1.0 + (1.0 - x) * math.log1p(-x) - 2.0 * (1.0 - x) * math.log(x)
    else:
        return 0.0
    return 3.0 / P3 * v


def _f2(x: float) -> float:
    if x <= ONE_MINUS_OMEGA:
        return 3.0 / P3 * (3.0 * x * x - x * x * x)
    if x <= 0.5:
        return 6.0 / P3 * (3.0 * x - x * x - 0.5 / (1.0 - x))
    return _f2(1.0 - x)


def _f3(x: float) -> float:
    return _f1(1.0 - x)


# Each density with the breakpoints of its support, ends included.
_DENSITIES = {
    "f1": (_f1, (0.0, *F1_BREAKPOINTS)),
    "f2": (_f2, (0.0, ONE_MINUS_OMEGA, 0.5, 1.0 - ONE_MINUS_OMEGA, 1.0)),
    "f3": (_f3, (1.0 - OMEGA, 0.5, 1.0 - ONE_MINUS_OMEGA, 1.0)),  # f1's mirror image
}


def _density(which: str):
    if which not in _DENSITIES:
        raise ValueError(f"unknown density {which!r}")
    return _DENSITIES[which]


def density(which: str, x: float) -> float:
    """Evaluate the order-statistic density f1, f2, or f3 at x in [0, 1].

    f1 is the density of the smallest coordinate of a uniform random
    cyclic triple (supported on [0, OMEGA]), f2 of the middle coordinate
    (symmetric about 1/2), and f3(x) = f1(1-x) of the largest.
    """
    f, _ = _density(which)
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"abscissa {x} outside [0, 1]")
    return f(x)


def integrate_density(which: str, upper: float | None = None) -> float:
    """Integral of the density from the lower support end to ``upper``
    (default: the full mass)."""
    f, pts = _density(which)
    hi = pts[-1] if upper is None else float(upper)
    if math.isnan(hi):
        raise ValueError("upper limit is nan")
    return integrate_piecewise(f, [p for p in pts if p < hi] + [min(hi, pts[-1])])


def density_stats(which: str) -> dict[str, float]:
    """Mean, median, and mode of the selected density.

    Mean by adaptive quadrature of x*f(x) split at the breakpoints, median
    by bisection on the quadrature CDF (1e-10 interval tolerance), mode by
    golden-section search within each smooth piece.
    """
    f, pts = _density(which)
    pieces = list(zip(pts[:-1], pts[1:]))
    lo, hi = pts[0], pts[-1]

    mean = integrate_piecewise(lambda u: u * f(u), pts)

    # cumulative mass at piece ends makes each CDF evaluation one local
    # integral instead of a full pass
    cum = [0.0]
    for a, b in pieces:
        cum.append(cum[-1] + adaptive_simpson(f, a, b))

    def cdf(m: float) -> float:
        for i, (a, b) in enumerate(pieces):
            if m < b:
                return cum[i] + (adaptive_simpson(f, a, m) if m > a else 0.0)
        return cum[-1]

    median = bisect_root(lambda m: cdf(m) - 0.5, lo, hi, xtol=1e-10)

    best_x, best_v = lo, f(lo)
    for a, b in pieces:
        for cx, cv in (golden_max(f, a, b, xtol=1e-10), (b, f(b))):
            if cv > best_v:
                best_x, best_v = cx, cv
    return {"mean": mean, "median": median, "mode": best_x}


def unrestricted_min_stats() -> dict[str, float]:
    """Mean 1/4 and median 1 - 2**(-1/3) of the smallest coordinate of an
    unrestricted uniform random triple, density 3(1-x)^2: the baseline for f1."""
    return {"mean": 0.25, "median": 1.0 - 2.0 ** (-1.0 / 3.0)}


def _sort_rows(cols: np.ndarray, lo: np.ndarray) -> None:
    """Sort each point of a 3 x N array of columns in place, so that
    ``cols[0] <= cols[1] <= cols[2]``, with an exact min/max network (no
    arithmetic, so every value is kept bit for bit); ``lo`` is an N-float
    scratch column."""
    a, b, c = cols
    np.minimum(a, b, out=lo)
    np.maximum(a, b, out=b)  # hi
    np.minimum(lo, c, out=a)
    np.maximum(lo, c, out=lo)
    np.maximum(b, c, out=c)
    np.minimum(b, lo, out=b)  # the middle one, min(hi, max(lo, c))


def sample_ordered_cyclic(count: int, seed: int) -> np.ndarray:
    """Draw ``count`` points uniform on the ordered cyclic region.

    Each uniform cube point is sorted and then accepted if it lies in the
    ordered cyclic region (``ordered_cyclic``).  Cyclicity does not
    depend on the order of the coordinates, so this is uniform on the
    region at acceptance rate p3, about 0.628.  Each draw asks for about
    as many rows as the remaining request needs, so small requests draw
    few random words.

    The output is the first ``count`` accepted rows of the seed's stream,
    in stream order: deterministic for fixed (count, seed).  The rows are
    drawn in the blocks that ``rng.block_buffers`` sizes, at most 16,384
    rows into the thread's kept buffers, as three C-contiguous columns;
    the sort and the ``ordered_cyclic`` program run in their workspace.
    The accepted rows of a block are gathered one column at a time, by
    their indices, into a column of the output: gathering whole rows from
    the transposed block is about as slow as drawing it.  ``count`` is at
    most ``MAX_SAMPLE_ROWS``.  Returns a C-ordered array of shape
    (count, 3) with rows satisfying x <= y <= z.
    """
    if not 1 <= count <= MAX_SAMPLE_ROWS:
        raise ValueError(f"count must be in [1, {MAX_SAMPLE_ROWS}], got {count}")
    block_rows, buffers = rng.block_buffers(3)
    out = np.empty((count, 3))
    have = word = 0
    while have < count:
        need = count - have
        # The accepted count of n rows is Binomial(n, p3) with standard
        # deviation below sqrt(need) at n ~ need/p3, so asking for four
        # deviations more makes a second draw rare.
        rows = min(block_rows, int((need + 4.0 * math.sqrt(need) + 8.0) / P3))
        cols = rng.uniform_words(seed, word, rows * 3, 3, out=buffers)
        word += rows * 3
        _sort_rows(cols, *buffers.slots([np.float64]))
        ((mask,),) = buffers.run(symbolic.trace((ordered_cyclic,), 3))
        keep = np.flatnonzero(mask)[:need]
        for j in range(3):
            np.take(cols[j], keep, out=out[have : have + len(keep), j])
        have += len(keep)
    return out
