"""General-n machinery: the pi_n threshold, sound partial decisions,
explicit witness construction, D-regions, alternating permutation counts,
and volume bounds.

No complete characterization of cyclic n-tuples is known for n >= 4, so
``decide_ntuple`` is honestly three-valued there: Cyclic verdicts carry an
exactly verified witness, NotCyclic verdicts follow from the pi_n
necessity threshold, and everything else is Unknown.

The D-regions (``d_i``, ``d_ii``, ``d_star``), the pi_n necessity tests
(``min_above_pi_n``, ``max_below_one_minus_pi_n``), the n >= 4
``certificates`` and ``status_code`` are predicates of the coordinates
written with + - * and comparisons joined by & and |, every comparison
going through ``core.le``/``core.lt``, and the pi_n thresholds plain
floats that are only compared.  So ``core.in_region`` and ``decide_ntuple``
decide them on exact scalar values, and ``symbolic.trace`` records them as
programs: ``mc`` counts their float masks with these (``pn_bracket`` counts
``certificates``), and ``core.decide_columns`` decides them exactly on
numpy columns (``checks.symmetry``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    DiscreteDist,
    HypothesisNotMetError,
    InvalidTupleError,
    Number,
    ProbTuple,
    Reason,
    Verdict,
    WitnessSystem,
    as_tuple,
    decide_exactly,
    le,
    lt,
)
from .triple import is_cyclic_triple

# Largest n that pn_bounds and the n-tuple Monte Carlo targets accept:
# A_{n-1} costs O(n^2) big-integer additions (pn_bounds(1024) takes about
# 0.25 s, pn_bounds(4000) about 14 s), and mc draws n words per sample.
MAX_N = 1024


def pi_n(n: int) -> float:
    """Evaluate pi_n; rejects n < 3.  pi_3 = (sqrt(5)-1)/2, pi_4 = 2/3."""
    if n < 3:
        raise ValueError(f"pi_n requires n >= 3, got {n}")
    c = math.cos(math.pi / (n + 2))
    return 1.0 - 1.0 / (4.0 * c * c)


@functools.cache
def _pi_n_upper(n: int) -> float:
    # At or above the true pi_n for every n in [3, MAX_N] (checked at 50
    # digits by the tests), so the necessity filter can never misclassify a
    # boundary tuple (e.g. the all-2/3 4-tuple) as NotCyclic.
    v = pi_n(n)
    return v + 8.0 * math.ulp(v)


def _all(conditions):
    """The conditions joined by &, rather than all(), so numpy columns give
    a mask.  The first condition seeds the result, so a column is only ever
    combined with a column: ``True & column`` would run numpy's slow
    scalar-array loop.  A scalar False stops early, so later conditions are
    never evaluated."""
    result = True
    for c in conditions:
        result = c if result is True else result & c
        if result is False:
            break
    return result


def _any(conditions):
    """The conditions joined by |, seeded like ``_all``; a scalar True
    stops early."""
    result = False
    for c in conditions:
        result = c if result is False else result | c
        if result is True:
            break
    return result


def _adjacent_sums(xs):
    return [a + b for a, b in zip(xs, xs[1:] + xs[:1])]


def d_i(*xs):
    """D_I: every adjacent sum x_i + x_{i+1} is below 1."""
    return _all(lt(s, 1) for s in _adjacent_sums(xs))


def d_ii(*xs):
    """D_II: every adjacent sum x_i + x_{i+1} is above 1."""
    return _all(lt(1, s) for s in _adjacent_sums(xs))


def d_star(*xs):
    """D*_n: D_I with x_1 minimal (ties count, a measure-zero convention)."""
    return d_i(*xs) & _all(le(xs[0], x) for x in xs[1:])


def min_above_pi_n(*xs):
    """Every coordinate exceeds pi_n, so the tuple is not cyclic."""
    t = _pi_n_upper(len(xs))
    return _all(lt(t, x) for x in xs)


def max_below_one_minus_pi_n(*xs):
    """Every coordinate is below 1 - pi_n, so the tuple is not cyclic."""
    t = 1.0 - _pi_n_upper(len(xs))  # exact: pi_n >= 1/2
    return _all(lt(x, t) for x in xs)


def _updown(s_i, s_i2):
    # the up-down condition s_i >= 1 >= s_{i+2} on two adjacent sums
    return le(1, s_i) & le(s_i2, 1)


def _updown_index(*xs) -> int | None:
    """Smallest 0-based i with s_i >= 1 and s_{i+2} <= 1."""
    s = _adjacent_sums(xs)
    for i in range(len(s)):
        if _updown(s[i], s[(i + 2) % len(s)]):
            return i
    return None


def certificates(*xs):
    """The two n >= 4 certificates, on scalars or numpy columns:
    (cyclic, not_cyclic).  cyclic is the up-down condition s_i >= 1 >= s_{i+2}
    at some index, the hypothesis of ``build_witness``; not_cyclic is either
    pi_n test.  On exact values at most one of the two holds."""
    # cyclic is "neither D_I nor D_II" (mixed sums), also on computed float
    # sums, so pn_bracket's lower end still estimates sharper_lower.  Along
    # i -> i+2 a sum >= 1 with no up-down forces the next sum > 1: so each
    # orbit is all < 1 or all > 1.  For even n both orbits' exact sums total
    # sum(xs), and fl(s) > 1 implies s > 1, so the orbits cannot split.
    s = _adjacent_sums(xs)
    cyclic = _any(_updown(s[i], s[(i + 2) % len(s)]) for i in range(len(s)))
    return cyclic, min_above_pi_n(*xs) | max_below_one_minus_pi_n(*xs)


def status_code(*xs):
    """The n >= 4 status that ``decide_ntuple`` reaches through the same
    three tests, on scalars or numpy columns: -1 NotCyclic, 1 Cyclic,
    0 Unknown, from ``certificates``."""
    cyclic, not_cyclic = certificates(*xs)
    return 1 * cyclic - 1 * not_cyclic  # 1 * makes a bool or a mask an int


def build_witness(t: ProbTuple | Sequence[Number], index: int | None = None) -> WitnessSystem:
    """Construct independent two- and three-point distributions realizing
    the tuple's cycle probabilities exactly.

    Requires n >= 4 and an index i (0-based) with x_i + x_{i+1} >= 1 and
    x_{i+2} + x_{i+3} <= 1; with ``index=None`` the smallest such i is
    used.  The hypothesis is decided on the exact values of the coordinates,
    which are converted to exact rationals (losslessly).  The returned
    system satisfies P(U_{j+1} > U_j) = x_j for every j, verifiable with
    ``verify_witness``.
    """
    t = as_tuple(t)
    n = t.n
    if n < 4:
        raise InvalidTupleError("witness construction requires n >= 4")
    # Each coordinate as its reduced ratio p/q, so each distribution's
    # weights are integers on one small denominator.  (A common
    # denominator for all coordinates would make each numerator as long
    # as the lcm of n denominators.)
    ratios = [v.as_integer_ratio() for v in t.values]
    if index is None:
        index = decide_exactly(_updown_index, t.values)
        if index is None:
            raise HypothesisNotMetError(
                "no index i has x_i + x_{i+1} >= 1 and x_{i+2} + x_{i+3} <= 1"
            )
    else:
        index %= n
        abcd = [t[index + j] for j in range(4)]
        if not decide_exactly(lambda a, b, c, d: _updown(a + b, c + d), abcd):
            a, b, c, d = map(Fraction, abcd)
            raise HypothesisNotMetError(
                f"index {index}: need s_i >= 1 and s_(i+2) <= 1, got {a + b} and {c + d}"
            )

    # Rotate so the hypothesis sits at position n-3 (0-based): then
    # y[n-3] + y[n-2] >= 1 and y[n-1] + y[0] <= 1, each y[j] a ratio (p, q).
    k = (index + 3) % n
    y = ratios[k:] + ratios[:k]

    (p0, q0), (pl, ql) = y[0], y[n - 1]
    # The ratio y[0]/(1 - y[n-1]) is num/den.  y[n-1] = 1 forces y[0] = 0;
    # the ratio is then 0 by continuity and every verification identity
    # still holds.
    num, den = p0 * ql, q0 * (ql - pl) or 1
    (pa, qa), (pb, qb) = y[n - 3], y[n - 2]

    # Each distribution as its (point, weight numerator) pairs, sorted by
    # point, and the weights' denominator.
    raw = [([(0, ql - pl), (n + 1, pl)], ql), ([(-2, den - num), (2, num)], den)]
    for i in range(3, n - 1):  # interior variables, values -i and i
        p, q = y[i - 2]
        raw.append(([(-i, q - p), (i, p)], q))
    middle = pb * qa + pa * qb - qa * qb
    raw.append(([(1 - n, (qa - pa) * qb), (n - 1, middle), (n + 2, (qb - pb) * qa)], qa * qb))
    raw.append(([(n, 1)], 1))

    dists_y = [DiscreteDist(*zip(*[a for a in atoms if a[1]]), dw=d) for atoms, d in raw]
    # Undo the rotation: distribution m of the original tuple is
    # distribution (m - k) mod n of the rotated one.
    return WitnessSystem(tuple(dists_y[(m - k) % n] for m in range(n)))


def verify_witness(w: WitnessSystem, t: ProbTuple | Sequence[Number]) -> bool:
    """Exact check that P(U_{i+1} > U_i) equals x_i for every i.

    Each probability is computed exactly by one merge of two sorted
    supports (``WitnessSystem.cycle_probabilities``) and compared with the
    exact value of its coordinate as a reduced integer ratio.
    """
    t = as_tuple(t)
    if w.n != t.n:
        return False
    probs = w.cycle_probabilities()
    return all(p.as_integer_ratio() == v.as_integer_ratio() for p, v in zip(probs, t.values))


# The witness-free verdicts, built once: constructing a Verdict costs about 1 us.
_MIN_EXCEEDS_PI_N = Verdict(Reason.MIN_EXCEEDS_PI_N)
_MAX_BELOW_ONE_MINUS_PI_N = Verdict(Reason.MAX_BELOW_ONE_MINUS_PI_N)
_MIXED_PAIRWISE_SUMS = Verdict(Reason.MIXED_PAIRWISE_SUMS)
_UNDECIDED = Verdict(Reason.UNDECIDED)


def _pi_n_verdict_or_updown_index(*xs) -> Verdict | int | None:
    """The n >= 4 tests of ``decide_ntuple`` in its order, on scalars: the
    NotCyclic verdict of either pi_n test, else the smallest up-down index,
    else None.  One function, so ``decide_exactly`` converts a tuple once
    and decides a near tie again once."""
    if min_above_pi_n(*xs):
        return _MIN_EXCEEDS_PI_N
    if max_below_one_minus_pi_n(*xs):
        return _MAX_BELOW_ONE_MINUS_PI_N
    return _updown_index(*xs)


def decide_ntuple(t: ProbTuple | Sequence[Number], with_witness: bool = True) -> Verdict:
    """Sound three-valued decision for n >= 3.

    n = 3 delegates to the exact triple decision.  For n >= 4: NotCyclic
    when min > pi_n or max < 1 - pi_n (necessity); Cyclic when some index
    satisfies the pairwise-sum condition s_i >= 1, s_{i+2} <= 1, with the
    constructed witness attached (``with_witness=False`` skips the
    construction and reports the equivalent mixed-sums certificate);
    Unknown otherwise.  Never incorrectly Cyclic or NotCyclic.
    """
    t = as_tuple(t)
    if t.n == 3:
        return is_cyclic_triple(t)

    found = decide_exactly(_pi_n_verdict_or_updown_index, t.values)
    if isinstance(found, Verdict):
        return found
    if found is None:
        return _UNDECIDED
    if with_witness:
        return Verdict(Reason.UP_DOWN_CONDITION_MET, witness=build_witness(t, found))
    return _MIXED_PAIRWISE_SUMS


@functools.cache
def alternating_count(n: int) -> int:
    """A_n, the number of up-down alternating permutations of length n
    (x_1 < x_2 > x_3 < ...), by the boustrophedon recurrence."""
    if n < 1:
        raise ValueError(f"alternating_count requires n >= 1, got {n}")
    row = [1]
    for m in range(1, n + 1):
        new = [0]
        for k in range(1, m + 1):
            new.append(new[k - 1] + row[m - k])
        row = new
    return row[-1]


def andre_series(n: int, terms: int) -> float:
    """Partial sum of the classical series for A_n / n!:

        2 (2/pi)^(n+1) * sum_k (+-1)^k / (2k+1)^(n+1)

    with alternating signs for even n and all-positive terms for odd n.
    Converges to alternating_count(n)/n! as ``terms`` grows; for even n
    the one-term truncation 2(2/pi)^(n+1) is an upper bound.
    """
    if n < 1 or terms < 1:
        raise ValueError("need n >= 1 and terms >= 1")
    alternating = n % 2 == 0
    total = 0.0
    for k in range(terms):
        term = (2 * k + 1) ** -(n + 1.0)
        total += -term if alternating and k % 2 == 1 else term
    return 2.0 * (2.0 / math.pi) ** (n + 1) * total


def vol_dn_star(n: int) -> Fraction:
    """Exact volume A_{n-1} / ((2n) (n-1)!) of the region D_star."""
    if n < 3:
        raise ValueError(f"vol_dn_star requires n >= 3, got {n}")
    return Fraction(alternating_count(n - 1), 2 * n * math.factorial(n - 1))


@dataclass(frozen=True)
class PnBounds:
    """Bracketing bounds on the probability p_n that a uniform random
    n-tuple is cyclic."""

    n: int
    lower: float          # 1 - 3 (2/pi)^n
    sharper_lower: float  # 1 - A_{n-1}/(n-1)!, always >= lower
    sharper_upper: float  # 1 - 2 (1 - pi_n)^n, always <= upper
    upper: float          # 1 - 2 (1/4)^n

    def to_dict(self) -> dict:
        return asdict(self)


def pn_bounds(n: int) -> PnBounds:
    """Closed-form bounds for p_n, n >= 4: the (2/pi)^n / (1/4)^n pair and
    the sharper bounds they are derived from.

    ``sharper_lower`` is the volume of the mixed-sums region (provably
    cyclic), and ``sharper_upper`` is one minus the volume of the pi_n
    necessity test, P(min > pi_n) + P(max < 1 - pi_n) = 2 (1 - pi_n)^n
    (disjoint events, as pi_n > 1/2): the exact values that the two ends
    of the Monte Carlo ``pn_bracket`` estimate.
    """
    if not 4 <= n <= MAX_N:
        raise ValueError(f"pn_bounds requires n in [4, {MAX_N}], got {n}")
    return PnBounds(
        n=n,
        lower=1.0 - 3.0 * (2.0 / math.pi) ** n,
        sharper_lower=1.0 - alternating_count(n - 1) / math.factorial(n - 1),
        sharper_upper=1.0 - 2.0 * (1.0 - pi_n(n)) ** n,
        upper=1.0 - 2.0 * 0.25**n,
    )


def efron_dice() -> tuple[WitnessSystem, ProbTuple]:
    """The classical four-dice cycle: each die beats the previous with
    probability 2/3, so the system witnesses (2/3, 2/3, 2/3, 2/3)."""
    system = WitnessSystem(
        (
            DiscreteDist.from_faces([0, 0, 4, 4, 4, 4]),
            DiscreteDist.from_faces([1, 1, 1, 5, 5, 5]),
            DiscreteDist.from_faces([2, 2, 2, 2, 6, 6]),
            DiscreteDist.from_faces([3, 3, 3, 3, 3, 3]),
        )
    )
    return system, ProbTuple((Fraction(2, 3),) * 4)


def moon_moser_dice() -> tuple[WitnessSystem, ProbTuple]:
    """The classical three-dice cycle witnessing (5/9, 5/9, 5/9)."""
    system = WitnessSystem(
        (
            DiscreteDist.from_faces([1, 5, 9]),
            DiscreteDist.from_faces([2, 6, 7]),
            DiscreteDist.from_faces([3, 4, 8]),
        )
    )
    return system, ProbTuple((Fraction(5, 9),) * 3)
