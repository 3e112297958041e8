"""Steadiness command: run every workload repeatedly and summarise.

    python3 benchmarks/steady.py [--first-seed 1] [--tag A]   # 10 seeds x every workload
    python3 benchmarks/steady.py --trace                      # one traced run each
    python3 benchmarks/steady.py --compare A.json B.json

Runs ``run.py`` once per (workload, seed), one after another, for
``run_seconds`` from ``BENCHMARK.json``, and prints
each end-to-end metric's median, quartiles and spread (interquartile
range over median) next to its bound, and the share of failed
operations.  The results, with ``nproc``, the Python and numpy versions
and the git SHA, go to ``benchmarks/out/steady_<tag>.json``.
``--compare`` prints how far the second set's medians moved from the
first's, as a share of the first, next to each bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # seeds per workload in a set


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def _print_table(summary: dict, bounds: dict) -> None:
    for workload, ws in summary.items():
        print(f"{workload}: failed share {ws['failed_share']}, correct in every run: {ws['correct']}")
        for name, s in ws["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f" bound {bound:.2f}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}")
            print(f"  {name:36s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")


def measure(workloads, runs, first_seed, seconds, trace) -> dict:
    summary = {}
    for w in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            results.append(_run_once(w, seed, seconds, trace))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        names = results[0]["metrics"]
        summary[w] = {
            "correct": all(r["correct"] for r in results),
            # one entry when every run failed the same share of its operations
            "failed_share": sorted({str(Fraction(r["failed"], r["attempted"])) for r in results}),
            "metrics": {n: summarise([r["metrics"][n]["value"] for r in results]) for n in names},
        }
    return summary


def compare(a_path: str, b_path: str, bounds: dict) -> None:
    with open(a_path) as fh:
        a = json.load(fh)["summary"]
    with open(b_path) as fh:
        b = json.load(fh)["summary"]
    for w in a:
        for name, sa in a[w]["metrics"].items():
            if w not in b or name not in b[w]["metrics"]:
                continue
            mb = b[w]["metrics"][name]["median"]
            moved = (mb - sa["median"]) / sa["median"]
            bound = bounds.get(name)
            verdict = "" if bound is None else ("within" if abs(moved) <= bound else "OUTSIDE")
            print(f"{w:9s} {name:36s} {sa['median']:<12.6g} -> {mb:<12.6g} {moved:+.4f} {verdict}")


def main(argv=None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description="Run every workload repeatedly and summarise.")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true", help="one traced run per workload")
    p.add_argument("--tag", default=None)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds)
        return 0
    runs = 1 if args.trace else RUNS
    seconds = spec["run_seconds"]
    summary = measure([w["name"] for w in spec["workloads"]], runs, args.first_seed, seconds,
                      args.trace)
    _print_table(summary, {} if args.trace else bounds)
    tag = args.tag or time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady_{tag}.json")
    with open(path, "w") as fh:
        json.dump({"environment": _environment(), "run_seconds": seconds, "runs": runs,
                   "first_seed": args.first_seed, "trace": args.trace, "summary": summary},
                  fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
