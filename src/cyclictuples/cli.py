"""Command-line front end.

Every operation is exposed with machine-readable output: JSON for
decisions, witnesses, statistics, bounds, and estimates; CSV for density
grids and histograms.  Exit codes for ``check``: 0 Cyclic, 1 NotCyclic,
3 Unknown; ``report`` exits 1 when one of its checks fails; usage errors
exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import checks, core, mc, ntuple, triple
from .core import (
    HypothesisNotMetError,
    InvalidTupleError,
    Status,
    WitnessSystem,
    format_tuple,
    parse_tuple,
)

STATUS_EXIT = {Status.CYCLIC: 0, Status.NOT_CYCLIC: 1, Status.UNKNOWN: 3}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


# report's histograms draw 1e6 * scale rows, so scale 100 meets triple.MAX_SAMPLE_ROWS.
REPORT_MAX_SCALE = 100
DENSITY_MAX_GRID = 10**6


def _samples(text: str) -> int:
    value = float(text)
    if not (math.isfinite(value) and value >= 1):
        raise argparse.ArgumentTypeError(f"samples must be a finite number >= 1, got {text!r}")
    return int(value)


def _histogram_samples(text: str) -> int:
    value = _samples(text)
    if value > triple.MAX_SAMPLE_ROWS:
        raise argparse.ArgumentTypeError(f"samples must be at most {triple.MAX_SAMPLE_ROWS:,}, got {text!r}")
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


def _read_witness(path: str) -> bytes:
    """The bytes of a witness file, or of stdin for "-"; refused past
    ``core.MAX_WITNESS_BYTES`` before anything is parsed."""
    limit = core.MAX_WITNESS_BYTES
    if path == "-":
        data = sys.stdin.buffer.read(limit + 1)
    else:
        with open(path, "rb") as fh:
            data = fh.read(limit + 1)
    if len(data) > limit:
        raise ValueError(f"witness JSON has more than {limit} bytes")
    return data


def cmd_check(args) -> int:
    tup = parse_tuple(args.tuple, exact=True)
    if args.verify_witness is not None:
        try:
            data = json.loads(_read_witness(args.verify_witness))
        except RecursionError:
            raise ValueError("witness JSON is nested too deeply") from None
        witness = WitnessSystem.from_json_dict(data)
        ok = ntuple.verify_witness(witness, tup)
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


def cmd_report(args) -> int:
    """One composite JSON of every acceptance-level quantity; exits 1 if a check fails."""
    scale, seed, chunks = args.samples_scale, args.seed, args.chunks
    n_big = max(1000, int(1e7 * scale))
    n_mid = max(1000, int(1e6 * scale))
    n_sym = max(200, int(1e5 * scale))
    n_wit = max(20, int(1000 * scale))
    # (target, n, samples) of every estimate but determinism's, drawn in one
    # call, which draws each (seed, dim) stream once
    wanted = [("p3", None, n_big), ("p3_star", None, n_big)]
    wanted += [("vol_Dn_star", n, n_big) for n in (3, 4, 5, 6)]
    wanted += [("pn_bracket", n, n_mid) for n in range(4, 9)]
    specs = [mc.EstimatorSpec(target, samples, seed, chunks, n) for target, n, samples in wanted]
    est = {(spec.target, spec.n): e for spec, e in zip(specs, mc.estimate_many(specs))}
    report = {
        "exact_volumes": checks.exact_volumes(),
        "mc_volumes": checks.mc_volumes({t: est[t, None] for t in ("p3", "p3_star")}),
        "densities": checks.densities(),
        "f1_stats": checks.f1_stats(),
        "histograms": checks.histograms(n_mid, seed),
        "vol_Dn_star": {str(n): checks.dn_star_volume(n, est["vol_Dn_star", n]) for n in (3, 4, 5, 6)},
        "alternating": checks.alternating(),
        "pn_brackets": {str(n): checks.pn_bracket(n, est["pn_bracket", n]) for n in range(4, 9)},
        "witnesses": checks.witnesses(n_wit, seed),
        "symmetry": checks.symmetry(n_sym, seed),
        "determinism": checks.determinism(n_mid, seed, chunk_counts=(7,)),
    }
    _emit(report)
    return 0 if checks.passed(report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclictuples",
        description="Cyclic and nontransitive probability tuples: decisions, witnesses, volumes, densities, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a tuple (exit 0 Cyclic, 1 NotCyclic, 3 Unknown)")
    p.add_argument("--tuple", required=True, help='e.g. "5/9,5/9,5/9" or "0.6,0.5,0.3,0.4" (decimals read '
                   f"exactly; at most {core.MAX_TOKEN_DIGITS:,} digits in a numerator or denominator)")
    p.add_argument("--no-witness", action="store_true", help="skip witness construction")
    p.add_argument(
        "--verify-witness",
        metavar="FILE",
        help="verify a witness JSON file (or - for stdin) against --tuple; "
        f"at most {core.MAX_WITNESS_BYTES:,} bytes and {core.MAX_WITNESS_ATOMS:,} atoms",
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
    p.add_argument("--grid", type=_grid, default=1000, help=f"grid points, 1 to {DENSITY_MAX_GRID:,}")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("stats", help="mean/median/mode of a density")
    p.add_argument("--which", choices=["f1", "f2", "f3", "unrestricted"], required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bounds", help="closed-form bounds on p_n")
    p.add_argument("--n", type=int, required=True, help=f"tuple length, 4 to {ntuple.MAX_N:,}")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of a region volume")
    p.add_argument("--target", required=True, choices=list(mc.TARGETS))
    p.add_argument("--samples", type=_samples, default=1_000_000, help=f"samples, 1 to {mc.MAX_SAMPLES:,} (about an hour)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=1, help=f"chunks, 1 to {mc.MAX_CHUNKS:,}; fixes the result")
    p.add_argument("--n", type=int, default=None, help=f"tuple length, at most {ntuple.MAX_N:,}")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("histogram", help="empirical density of an order statistic as CSV")
    p.add_argument("--which", choices=["f1", "f2", "f3"], required=True)
    p.add_argument(
        "--samples",
        type=_histogram_samples,
        default=1_000_000,
        help=f"rows to sample, at most {triple.MAX_SAMPLE_ROWS:,} ({triple.MAX_SAMPLE_ROWS * 24 / 1e9:.1f} GB of samples)",
    )
    p.add_argument("--bins", type=int, default=50, help=f"bins, 10 to {mc.MAX_BINS:,}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("report", help="composite JSON over every verified quantity")
    p.add_argument("--samples-scale", type=_samples_scale, default=1.0, help=f"scale on sample counts, in (0, {REPORT_MAX_SCALE}]")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--chunks", type=int, default=4, help=f"chunks, 1 to {mc.MAX_CHUNKS:,}")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
