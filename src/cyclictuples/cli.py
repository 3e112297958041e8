"""Command-line front end.

Every operation is exposed with machine-readable output: JSON for
decisions, witnesses, statistics, bounds, and estimates; CSV for density
grids and histograms.  Exit codes for ``check``: 0 Cyclic, 1 NotCyclic,
3 Unknown; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np

from . import mc, ntuple, triple
from .core import (
    HypothesisNotMetError,
    InvalidTupleError,
    ProbTuple,
    Status,
    WitnessSystem,
    complement,
    format_tuple,
    parse_tuple,
    reverse,
    rotate,
)

STATUS_EXIT = {Status.CYCLIC: 0, Status.NOT_CYCLIC: 1, Status.UNKNOWN: 3}


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, default=_json_default))


# sample_ordered_cyclic holds every row it returns: 10^8 rows are 2.4 GB.
HISTOGRAM_MAX_SAMPLES = 10**8
# report's histograms draw 1e6 * scale rows, so scale 100 meets the cap above.
REPORT_MAX_SCALE = 100
DENSITY_MAX_GRID = 10**6


def _samples(text: str) -> int:
    value = float(text)
    if not (math.isfinite(value) and value >= 1):
        raise argparse.ArgumentTypeError(f"samples must be a finite number >= 1, got {text!r}")
    return int(value)


def _histogram_samples(text: str) -> int:
    value = _samples(text)
    if value > HISTOGRAM_MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"samples must be at most 1e8, got {text!r}")
    return value


def _samples_scale(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and 0 < value <= REPORT_MAX_SCALE):
        raise argparse.ArgumentTypeError(f"scale must be in (0, {REPORT_MAX_SCALE}], got {text!r}")
    return value


def _grid(text: str) -> int:
    value = int(text)
    if not 1 <= value <= DENSITY_MAX_GRID:
        raise argparse.ArgumentTypeError(f"grid must be in [1, {DENSITY_MAX_GRID}], got {text!r}")
    return value


def cmd_check(args) -> int:
    tup = parse_tuple(args.tuple)
    if args.verify_witness is not None:
        if args.verify_witness == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.verify_witness) as fh:
                data = json.load(fh)
        witness = WitnessSystem.from_json_dict(data)
        ok = ntuple.verify_witness(witness, parse_tuple(args.tuple, exact=True))
        _emit({"tuple": format_tuple(tup), "verified": ok})
        return 0 if ok else 1
    verdict = ntuple.decide_ntuple(tup, with_witness=not args.no_witness)
    _emit({"tuple": format_tuple(tup), **verdict.to_dict()})
    return STATUS_EXIT[verdict.status]


def cmd_witness(args) -> int:
    tup = parse_tuple(args.tuple, exact=True)
    try:
        witness = ntuple.build_witness(tup, index=args.index)
    except (HypothesisNotMetError, InvalidTupleError) as exc:
        _emit({"tuple": format_tuple(tup), "error": str(exc)})
        return 1
    _emit({"tuple": format_tuple(tup), **witness.to_json_dict()})
    return 0


def cmd_exact(args) -> int:
    _emit(triple.exact_volumes())
    return 0


def cmd_density(args) -> int:
    xs = np.linspace(0.0, 1.0, args.grid)
    names = ["f1", "f2", "f3"] if args.which == "all" else [args.which]
    print("x," + ",".join(names))
    for x in xs:
        row = [triple.density(name, float(x)) for name in names]
        print(",".join([repr(float(x))] + [repr(v) for v in row]))
    return 0


def cmd_stats(args) -> int:
    if args.which == "unrestricted":
        _emit({"which": "unrestricted", **triple.unrestricted_min_stats()})
    else:
        _emit({"which": args.which, **triple.density_stats(args.which)})
    return 0


def cmd_bounds(args) -> int:
    if args.n < 4:
        print(f"error: bounds requires n >= 4, got {args.n}", file=sys.stderr)
        return 2
    _emit(ntuple.pn_bounds(args.n).to_dict())
    return 0


def cmd_estimate(args) -> int:
    spec = mc.EstimatorSpec(
        target=args.target, samples=args.samples, seed=args.seed, chunks=args.chunks, n=args.n
    )
    result = mc.estimate(spec)
    head = {"target": args.target}
    if args.n is not None:
        head["n"] = args.n
    if isinstance(result, dict):
        _emit({**head, "lower": result["lower"].to_dict(), "upper": result["upper"].to_dict()})
    else:
        _emit({**head, **result.to_dict()})
    return 0


def cmd_histogram(args) -> int:
    grid = mc.histogram(args.which, args.samples, args.bins, args.seed)
    print(f"x,{args.which}")
    for x, v in grid.points():
        print(f"{x!r},{v!r}")
    return 0


def _random_rational_tuple(rnd: random.Random, n: int) -> ProbTuple:
    values = []
    for _ in range(n):
        q = rnd.randint(1, 99)
        values.append(Fraction(rnd.randint(0, q), q))
    return ProbTuple(tuple(values))


def _report_symmetry(samples: int, seed: int) -> dict:
    rnd = random.Random(seed)
    triple_bad = 0
    for _ in range(samples // 2):
        t = ProbTuple(tuple(rnd.random() for _ in range(3)))
        base = triple.is_cyclic_triple(t).status
        x, y, z = t.values
        perms = [(x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x)]
        if any(triple.is_cyclic_triple(ProbTuple(p)).status is not base for p in perms):
            triple_bad += 1
        if triple.is_cyclic_triple(complement(t)).status is not base:
            triple_bad += 1
    ntuple_bad = 0
    exempt = 0
    for _ in range(samples // 2):
        n = rnd.randint(4, 8)
        t = ProbTuple(tuple(rnd.random() for _ in range(n)))
        base = ntuple.decide_ntuple(t, with_witness=False).status
        for u in (rotate(t, rnd.randrange(1, n)), reverse(t), complement(t)):
            other = ntuple.decide_ntuple(u, with_witness=False).status
            if Status.UNKNOWN in (base, other):
                exempt += 1
            elif other is not base:
                ntuple_bad += 1
    return {
        "samples": samples,
        "triple_violations": triple_bad,
        "ntuple_violations": ntuple_bad,
        "unknown_exempted": exempt,
        "pass": triple_bad == 0 and ntuple_bad == 0,
    }


def _report_witnesses(count: int, seed: int) -> dict:
    rnd = random.Random(seed)
    built = 0
    failures = 0
    while built < count:
        t = _random_rational_tuple(rnd, rnd.randint(4, 10))
        try:
            witness = ntuple.build_witness(t)
        except HypothesisNotMetError:
            continue
        built += 1
        if not ntuple.verify_witness(witness, t):
            failures += 1
    efron_w, efron_t = ntuple.efron_dice()
    moon_w, moon_t = ntuple.moon_moser_dice()
    return {
        "random_tuples_verified": built - failures,
        "random_tuples_failed": failures,
        "efron_verifies": ntuple.verify_witness(efron_w, efron_t),
        "moon_moser_verifies": ntuple.verify_witness(moon_w, moon_t),
        "pass": failures == 0,
    }


def _report_histograms(samples: int, seed: int) -> dict:
    pts = triple.sample_ordered_cyclic(samples, seed)
    section = {}
    for which in ("f1", "f2"):
        grid = mc.bin_sample(which, pts, 50)
        sup = max(abs(v - triple.density(which, x)) for x, v in grid.points())
        section[which] = {"samples": samples, "bins": 50, "sup_norm_error": sup}
    section["f1_mass_above_omega"] = float((pts[:, 0] > triple.OMEGA).sum())
    return section


def cmd_report(args) -> int:
    """One composite JSON covering every acceptance-level quantity."""
    scale = args.samples_scale
    seed = args.seed
    n_big = max(1000, int(1e7 * scale))
    n_mid = max(1000, int(1e6 * scale))
    n_sym = max(200, int(1e5 * scale))
    n_wit = max(20, int(1000 * scale))
    report: dict = {}

    vols = triple.exact_volumes()
    report["exact_volumes"] = {
        **vols,
        "identity_p3_star_rel_err": abs(3 * vols["vol_I"] - vols["p3_star"]) / vols["p3_star"],
        "identity_p3_rel_err": abs(6 * (vols["vol_I"] + vols["vol_II"]) - vols["p3"]) / vols["p3"],
    }

    mc_section = {}
    for target, truth in (("p3", vols["p3"]), ("p3_star", vols["p3_star"])):
        est = mc.estimate(mc.EstimatorSpec(target=target, samples=n_big, seed=seed, chunks=args.chunks))
        mc_section[target] = {
            **est.to_dict(),
            "closed_form": truth,
            "sigmas_off": abs(est.estimate - truth) / est.stderr,
        }
    report["mc_volumes"] = mc_section

    grid = np.linspace(0.0, 1.0, 1000)
    sym_err = max(abs(triple.density("f2", x) - triple.density("f2", 1 - x)) for x in grid)
    refl_err = max(abs(triple.density("f3", x) - triple.density("f1", 1 - x)) for x in grid)
    report["densities"] = {
        "normalization_error": {
            w: abs(triple.integrate_density(w) - 1.0) for w in ("f1", "f2", "f3")
        },
        "f2_symmetry_max_err": sym_err,
        "f3_reflection_max_err": refl_err,
    }

    stats = triple.density_stats("f1")
    report["f1_stats"] = {
        **stats,
        "published": {"mean": 0.211, "median": 0.197, "mode": 0.107},
        "baseline": triple.unrestricted_min_stats(),
    }

    report["histograms"] = _report_histograms(n_mid, seed)

    dn = {}
    for n in (3, 4, 5, 6):
        exact = ntuple.vol_dn_star(n)
        est = mc.estimate(
            mc.EstimatorSpec(target="vol_Dn_star", samples=n_big, seed=seed, chunks=args.chunks, n=n)
        )
        dn[str(n)] = {
            "exact": str(exact),
            "exact_float": float(exact),
            **est.to_dict(),
            "sigmas_off": abs(est.estimate - float(exact)) / est.stderr,
        }
    report["vol_Dn_star"] = dn

    counts = [ntuple.alternating_count(n) for n in range(1, 11)]
    bound_ratio = max(
        ntuple.alternating_count(n) / math.factorial(n) / (3 * (2 / math.pi) ** (n + 1))
        for n in range(1, 31)
    )
    report["alternating"] = {"A_1_to_10": counts, "andre_bound_max_ratio": bound_ratio}

    brackets = {}
    for n in range(4, 9):
        res = mc.estimate(
            mc.EstimatorSpec(target="pn_bracket", samples=n_mid, seed=seed, chunks=args.chunks, n=n)
        )
        bounds = ntuple.pn_bounds(n)
        lo, up = res["lower"], res["upper"]
        brackets[str(n)] = {
            "lower": lo.to_dict(),
            "upper": up.to_dict(),
            "bounds": bounds.to_dict(),
            "consistent": bool(
                lo.estimate <= up.estimate
                and lo.estimate - 4 * lo.stderr <= bounds.upper
                and up.estimate + 4 * up.stderr >= bounds.lower
            ),
        }
    report["pn_brackets"] = brackets

    report["witnesses"] = _report_witnesses(n_wit, seed)
    report["symmetry"] = _report_symmetry(n_sym, seed)

    spec = mc.EstimatorSpec(target="p3", samples=n_mid, seed=seed, chunks=1)
    again = mc.EstimatorSpec(target="p3", samples=n_mid, seed=seed, chunks=1)
    rechunk = mc.EstimatorSpec(target="p3", samples=n_mid, seed=seed, chunks=7)
    e1, e2, e3 = mc.estimate(spec), mc.estimate(again), mc.estimate(rechunk)
    report["determinism"] = {
        "repeat_identical": e1.estimate == e2.estimate,
        "chunk_invariant": e1.estimate == e3.estimate,
    }

    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclictuples",
        description="Cyclic and nontransitive probability tuples: decisions, witnesses, volumes, densities, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a tuple (exit 0 Cyclic, 1 NotCyclic, 3 Unknown)")
    p.add_argument("--tuple", required=True, help='e.g. "5/9,5/9,5/9" or "0.6,0.5,0.3,0.4"')
    p.add_argument("--no-witness", action="store_true", help="skip witness construction")
    p.add_argument(
        "--verify-witness",
        metavar="FILE",
        help="verify a witness JSON file (or - for stdin) against --tuple",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("witness", help="construct an exact witness system (n >= 4)")
    p.add_argument("--tuple", required=True)
    p.add_argument("--index", type=int, default=None, help="0-based index of the pairwise-sum condition")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("exact", help="closed-form triple volumes")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("density", help="density grid as CSV on stdout")
    p.add_argument("--which", choices=["f1", "f2", "f3", "all"], default="all")
    p.add_argument("--grid", type=_grid, default=1000, help="grid points, 1 to 1e6")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("stats", help="mean/median/mode of a density")
    p.add_argument("--which", choices=["f1", "f2", "f3", "unrestricted"], required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bounds", help="closed-form bounds on p_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of a region volume")
    p.add_argument("--target", required=True, choices=list(mc.SINGLE_TARGETS + mc.BRACKET_TARGETS))
    p.add_argument("--samples", type=_samples, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=1, help="chunks, 1 to 1024; fixes the result")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("histogram", help="empirical density of an order statistic as CSV")
    p.add_argument("--which", choices=["f1", "f2", "f3"], required=True)
    p.add_argument(
        "--samples",
        type=_histogram_samples,
        default=1_000_000,
        help="rows to sample, at most 1e8 (2.4 GB of samples)",
    )
    p.add_argument("--bins", type=int, default=50, help="bins, 10 to 1e6")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("report", help="composite JSON over every verified quantity")
    p.add_argument("--samples-scale", type=_samples_scale, default=1.0, help="scale on sample counts, in (0, 100]")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--chunks", type=int, default=4, help="chunks, 1 to 1024")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidTupleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
