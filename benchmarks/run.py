"""Benchmark entry point: one workload, measured in its own processes.

    python3 benchmarks/run.py --workload estimate|sample|decide|report \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the workload runs in a fresh worker process that sets
up, repeats whole rounds of its fixed work for ``--seconds``, and checks
the outputs.  Just before each round the worker times fixed reference
kernels (``hostspeed.py``) to read the host's slowness; ``wall_s`` is the
median over rounds of the round's time divided by that slowness, i.e. the
round's wall time on a host at the reference speed.  ``SETUP_REPEATS - 1``
more processes only set up, so that ``setup_s`` is a median, corrected
for the host's speed in the same way.  With ``--trace 1`` one worker
alternates untraced and traced rounds and reports the per-layer metrics.
The last stdout line is the result JSON: correct, attempted, failed, metrics.
Exits 1 if a check failed and 2 if the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 15
SETUP_KERNELS = ("python", "numpy")  # interpreter start, imports, inputs: both kinds of work
# wall_s and setup_s are corrected for the host's speed: the measuring
# host's speed for the library's work wanders by up to half in phases of
# seconds to minutes, and the reference kernels timed just before each
# round and each set-up slow down with it.  The kernels run no library
# code, so a slower library still gives a larger wall_s or setup_s.  The
# measurements behind this are in README.md, "Steadiness".
DEADLINE_S = 170.0  # every run ends within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    # One malloc arena: with glibc's default of one per thread, the memory
    # that mc's worker threads free stays in their arenas by chance of
    # scheduling, and report's peak RSS wanders between 150 and 190 MB.
    env = dict(os.environ, MALLOC_ARENA_MAX="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclictuples", "__init__.py")):
        raise BenchError("no src/cyclictuples in this directory: run from a checkout's root")
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    setups, setup_slowness = [], []
    if not trace:
        with HostSpeed(SETUP_KERNELS) as host:
            for _ in range(SETUP_REPEATS - 1):
                setup_slowness.append(host.slowness())
                setups.append(_spawn(base + ["--setup-only"], deadline)["setup_s"])
            setup_slowness.append(host.slowness())
    res = _spawn(base + ["--trace", str(int(trace))], deadline)
    setups.append(res["setup_s"])

    if trace:
        values = res["layers"]
        wanted = spec["per_layer"]
        print(f"{workload}: {res['rounds']} rounds (untraced and traced alternating)")
    else:
        rounds, slowness = res["round_s"], res["slowness"]
        corrected = [t / s for t, s in zip(rounds, slowness)]
        q1, med, q3 = _quartiles(rounds)
        setup = statistics.median(t / s for t, s in zip(setups, setup_slowness))
        values = {"setup_s": setup, "wall_s": statistics.median(corrected),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
        print(f"{workload}: {len(rounds)} rounds, round s min {min(rounds):.4f} median {med:.4f} "
              f"quartiles {q1:.4f}..{q3:.4f}; host slowness median "
              f"{statistics.median(slowness):.3f} range {min(slowness):.3f}..{max(slowness):.3f}; "
              f"setup s median {statistics.median(setups):.4f}, host slowness median "
              f"{statistics.median(setup_slowness):.3f}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return result, 0 if res["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError) as exc:  # BenchError included
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
