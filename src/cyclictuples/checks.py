"""Every acceptance-level quantity, measured in one place.

Each function returns the JSON-ready section that ``cyclictuples report``
emits under its name; ``tests/test_acceptance.py`` calls the same functions
and asserts its own tolerances on the returned numbers.  The Monte Carlo
sections are formatted from the ``mc`` estimates they are given, so the
caller chooses how to draw them: ``report`` makes one ``mc.estimate_many``
call for all of them.  Library functions are called through their modules
(``triple.is_cyclic_triple``), so a patched or traced function is the one
that runs.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np

from . import core, mc, ntuple, triple
from .core import HypothesisNotMetError, ProbTuple


def _estimate(target: str, samples: int, seed: int, chunks: int, n: int | None = None):
    return mc.estimate(mc.EstimatorSpec(target=target, samples=samples, seed=seed, chunks=chunks, n=n))


def exact_volumes() -> dict:
    """Closed-form triple volumes, with the relative errors of the
    identities p3* = 3 vol_I and p3 = 6 (vol_I + vol_II)."""
    v = triple.exact_volumes()
    return {
        **v,
        "identity_p3_star_rel_err": abs(3 * v["vol_I"] - v["p3_star"]) / v["p3_star"],
        "identity_p3_rel_err": abs(6 * (v["vol_I"] + v["vol_II"]) - v["p3"]) / v["p3"],
    }


def _sigmas_off(est, truth: float) -> float:
    """|estimate - truth| in standard errors: the estimate's, or when it is 0
    (an estimate of 0 or 1) those of the exact p in (0, 1), sqrt(p(1-p)/N)."""
    stderr = est.stderr or math.sqrt(truth * (1 - truth) / est.samples)
    return abs(est.estimate - truth) / stderr


def mc_volumes(estimates: dict) -> dict:
    """Monte Carlo p3 and p3*, given as {target: estimate}, each with its
    distance from the closed form in standard errors."""
    vols = triple.exact_volumes()
    return {
        target: {**est.to_dict(), "closed_form": vols[target], "sigmas_off": _sigmas_off(est, vols[target])}
        for target, est in estimates.items()
    }


def densities() -> dict:
    """Normalization errors of f1, f2, f3, and the largest errors of
    f2(x) = f2(1-x) and f3(x) = f1(1-x) on 1000 points."""
    grid = np.linspace(0.0, 1.0, 1000)
    f = triple.density
    return {
        "normalization_error": {w: abs(triple.integrate_density(w) - 1.0) for w in ("f1", "f2", "f3")},
        "f2_symmetry_max_err": max(abs(f("f2", x) - f("f2", 1 - x)) for x in grid),
        "f3_reflection_max_err": max(abs(f("f3", x) - f("f1", 1 - x)) for x in grid),
    }


def f1_stats() -> dict:
    """f1's mean, median and mode beside the published table, and the
    statistics of the unrestricted minimum."""
    return {
        **triple.density_stats("f1"),
        "published": {"mean": 0.211, "median": 0.197, "mode": 0.107},
        "baseline": triple.unrestricted_min_stats(),
    }


def histograms(samples: int, seed: int) -> dict:
    """Sup-norm errors of 50-bin f1 and f2 histograms against the closed
    forms, and the smallest coordinates above OMEGA, from one sample."""
    pts = triple.sample_ordered_cyclic(samples, seed)
    section = {}
    for which in ("f1", "f2"):
        grid = mc.bin_sample(which, pts, 50)
        sup = max(abs(v - triple.density(which, x)) for x, v in grid.points())
        section[which] = {"samples": samples, "bins": 50, "sup_norm_error": sup}
    section["f1_mass_above_omega"] = float((pts[:, 0] > triple.OMEGA).sum())
    return section


def dn_star_volume(n: int, est) -> dict:
    """Exact volume A_{n-1}/(2n (n-1)!) of D*_n beside its Monte Carlo estimate ``est``."""
    exact = ntuple.vol_dn_star(n)
    off = _sigmas_off(est, float(exact))
    return {"exact": str(exact), "exact_float": float(exact), **est.to_dict(), "sigmas_off": off}


def alternating() -> dict:
    """A_1..A_10, and the largest ratio of A_n/n! to 3 (2/pi)^(n+1) for n <= 30."""
    return {
        "A_1_to_10": [ntuple.alternating_count(n) for n in range(1, 11)],
        "andre_bound_max_ratio": max(
            ntuple.alternating_count(n) / math.factorial(n) / (3 * (2 / math.pi) ** (n + 1))
            for n in range(1, 31)
        ),
    }


# False-alarm rate of the exact test of each bracket end.
_FALSE_ALARM = 1e-9


def _near_exact(est, p: float) -> bool:
    """Whether the Monte Carlo estimate ``est`` of a probability whose exact
    value is p passes a two-sided Chernoff test at ``_FALSE_ALARM``: a
    binomial share q of N samples lies beyond q on its side of p with
    probability at most exp(-N KL(q || p)), at any N, where a normal
    approximation fails for the few misses of a bracket's upper end."""
    q = est.estimate
    kl = sum(a * math.log(a / b) for a, b in ((q, p), (1 - q, 1 - p)) if a > 0)
    return est.samples * kl <= math.log(2 / _FALSE_ALARM)


def pn_bracket(n: int, res: dict) -> dict:
    """The Monte Carlo bracket ``res`` on p_n (a ``pn_bracket`` estimate)
    beside the closed-form bounds; consistent when it is ordered, meets the
    loose bounds within 4 standard errors, and each end passes the exact
    test of ``_near_exact`` against the value it estimates: the lower end
    ``sharper_lower``, the upper ``sharper_upper``."""
    bounds = ntuple.pn_bounds(n)
    lo, up = res["lower"], res["upper"]
    consistent = (
        lo.estimate <= up.estimate
        and lo.estimate - 4 * lo.stderr <= bounds.upper
        and up.estimate + 4 * up.stderr >= bounds.lower
        and _near_exact(lo, bounds.sharper_lower)
        and _near_exact(up, bounds.sharper_upper)
    )
    return {"lower": lo.to_dict(), "upper": up.to_dict(), "bounds": bounds.to_dict(), "consistent": consistent}


def witnesses(count: int, seed: int) -> dict:
    """Build and exactly verify ``count`` witnesses for random rational
    n-tuples (n in 4..10, one denominator q <= 99 per tuple; a tuple outside
    the construction's hypothesis is redrawn), then the two dice fixtures."""
    rnd = random.Random(seed)
    built = failures = 0
    while built < count:
        n = rnd.randint(4, 10)
        q = rnd.randint(1, 99)
        t = ProbTuple(tuple(Fraction(rnd.randint(0, q), q) for _ in range(n)))
        try:
            witness = ntuple.build_witness(t)
        except HypothesisNotMetError:
            continue
        built += 1
        failures += not ntuple.verify_witness(witness, t)
    return {
        "random_tuples_verified": built - failures,
        "random_tuples_failed": failures,
        "efron_verifies": ntuple.verify_witness(*ntuple.efron_dice()),
        "moon_moser_verifies": ntuple.verify_witness(*ntuple.moon_moser_dice()),
        "pass": failures == 0,
    }


# Rows of one block of symmetry's columns: a block's arrays, not the sample
# count, set what the section holds at once.
_BLOCK_ROWS = 4096
# The other orderings of a triple's coordinates, the reverse last.
_TRIPLE_ORDERINGS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


@functools.cache
def _complemented(fn):
    """``fn`` on the complements 1 - x of its arguments: exact on Fractions,
    fl(1 - x) on float columns.  One function per ``fn``, so that its
    program is traced once."""
    return lambda *xs: fn(*[1 - x for x in xs])


def _blocks(total: int):
    """Row counts of consecutive blocks of at most _BLOCK_ROWS covering total."""
    for start in range(0, total, _BLOCK_ROWS):
        yield min(_BLOCK_ROWS, total - start)


def symmetry(samples: int, seed: int) -> dict:
    """Verdicts under the symmetry group.  Each of ``samples // 2`` random
    triples is compared with its other orderings and its complement (each
    disagreeing image is one violation), and each of as many n-tuples,
    n in 4..8, with a random rotation, its reverse and its complement (a
    comparison with an Unknown side is exempt).

    The tuples are decided in blocks of ``_BLOCK_ROWS`` on numpy columns
    by ``core.decide_columns``, which runs the traced programs of
    ``triple.cyclic`` and ``ntuple.status_code``: each verdict is the exact
    one that ``triple.is_cyclic_triple`` and ``ntuple.decide_ntuple`` give.
    A complement is the predicate ``_complemented`` on the drawn columns, so
    a near tie is decided again on 1 - Fraction(x)."""
    rnd = random.Random(seed)
    triple_bad = ntuple_bad = exempt = 0
    for rows in _blocks(samples // 2):
        values = np.array([rnd.random() for _ in range(3 * rows)]).reshape(rows, 3).T.copy()
        base = core.decide_columns(triple.cyclic, values)
        for order in _TRIPLE_ORDERINGS:
            triple_bad += int((core.decide_columns(triple.cyclic, values[list(order)]) != base).sum())
        triple_bad += int((core.decide_columns(_complemented(triple.cyclic), values) != base).sum())
    for rows in _blocks(samples // 2):
        drawn = []  # (n, values, rotation) in the order they are drawn
        for _ in range(rows):
            n = rnd.randint(4, 8)
            drawn.append((n, [rnd.random() for _ in range(n)], rnd.randrange(1, n)))
        for n in range(4, 9):
            group = [(xs, k) for m, xs, k in drawn if m == n]
            if not group:
                continue
            values = np.array([xs for xs, _ in group]).T.copy()
            shift = np.array([k for _, k in group])
            rotated = np.take_along_axis(values, (np.arange(n)[:, None] + shift) % n, axis=0)
            base = core.decide_columns(ntuple.status_code, values)
            for other in (
                core.decide_columns(ntuple.status_code, rotated),
                core.decide_columns(ntuple.status_code, values[::-1]),
                core.decide_columns(_complemented(ntuple.status_code), values),
            ):
                unknown = (base == 0) | (other == 0)
                exempt += int(unknown.sum())
                ntuple_bad += int((~unknown & (other != base)).sum())
    return {
        "samples": samples,
        "triple_violations": triple_bad,
        "ntuple_violations": ntuple_bad,
        "unknown_exempted": exempt,
        "pass": triple_bad == 0 and ntuple_bad == 0,
    }


def determinism(samples: int, seed: int, chunk_counts: tuple[int, ...]) -> dict:
    """A rerun p3 estimate is identical, and splitting it into each of
    ``chunk_counts`` chunks leaves its estimate and stderr unchanged."""
    first = _estimate("p3", samples, seed, 1)
    again = _estimate("p3", samples, seed, 1)
    split = [_estimate("p3", samples, seed, c) for c in chunk_counts]
    return {
        "repeat_identical": again == first,
        "chunk_invariant": all((e.estimate, e.stderr) == (first.estimate, first.stderr) for e in split),
    }


def passed(report: dict) -> bool:
    """True when every pass/fail flag of a composed report holds."""
    w = report["witnesses"]
    flags = [w["pass"], w["efron_verifies"], w["moon_moser_verifies"], report["symmetry"]["pass"]]
    flags += [b["consistent"] for b in report["pn_brackets"].values()]
    return all(flags + list(report["determinism"].values()))
