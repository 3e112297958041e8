"""Every acceptance-level quantity, measured in one place.

Each function returns the JSON-ready section that ``cyclictuples report``
emits under its name; ``tests/test_acceptance.py`` calls the same functions
and asserts its own tolerances on the returned numbers.  Library functions
are called through their modules (``triple.is_cyclic_triple``), so a
patched or traced function is the one that runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import mc, ntuple, triple
from .core import HypothesisNotMetError, ProbTuple, Status, complement, reverse, rotate


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


def mc_volumes(samples: int, seed: int, chunks: int) -> dict:
    """Monte Carlo p3 and p3*, each with its distance from the closed form
    in standard errors."""
    vols = triple.exact_volumes()
    section = {}
    for target in ("p3", "p3_star"):
        est, truth = _estimate(target, samples, seed, chunks), vols[target]
        off = abs(est.estimate - truth) / est.stderr
        section[target] = {**est.to_dict(), "closed_form": truth, "sigmas_off": off}
    return section


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


def dn_star_volume(n: int, samples: int, seed: int, chunks: int) -> dict:
    """Exact volume A_{n-1}/(2n (n-1)!) of D*_n beside its Monte Carlo estimate."""
    exact = ntuple.vol_dn_star(n)
    est = _estimate("vol_Dn_star", samples, seed, chunks, n)
    off = abs(est.estimate - float(exact)) / est.stderr
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


def pn_bracket(n: int, samples: int, seed: int, chunks: int) -> dict:
    """Monte Carlo bracket on p_n beside the closed-form bounds; consistent
    when it is ordered and meets the bounds within 4 standard errors."""
    res = _estimate("pn_bracket", samples, seed, chunks, n)
    bounds = ntuple.pn_bounds(n)
    lo, up = res["lower"], res["upper"]
    consistent = (
        lo.estimate <= up.estimate
        and lo.estimate - 4 * lo.stderr <= bounds.upper
        and up.estimate + 4 * up.stderr >= bounds.lower
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


def symmetry(samples: int, seed: int) -> dict:
    """Verdicts under the symmetry group.  Each of ``samples // 2`` random
    triples is compared with its other orderings and its complement (each
    disagreeing image is one violation), and each of as many n-tuples,
    n in 4..8, with a random rotation, its reverse and its complement (a
    comparison with an Unknown side is exempt)."""
    rnd = random.Random(seed)
    triple_bad = ntuple_bad = exempt = 0
    for _ in range(samples // 2):
        t = ProbTuple(tuple(rnd.random() for _ in range(3)))
        base = triple.is_cyclic_triple(t).status
        x, y, z = t.values
        for u in ((x, z, y), (y, x, z), (y, z, x), (z, x, y), reverse(t), complement(t)):
            triple_bad += triple.is_cyclic_triple(u).status is not base
    for _ in range(samples // 2):
        n = rnd.randint(4, 8)
        t = ProbTuple(tuple(rnd.random() for _ in range(n)))
        base = ntuple.decide_ntuple(t, with_witness=False).status
        for u in (rotate(t, rnd.randrange(1, n)), reverse(t), complement(t)):
            other = ntuple.decide_ntuple(u, with_witness=False).status
            if Status.UNKNOWN in (base, other):
                exempt += 1
            else:
                ntuple_bad += other is not base
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
