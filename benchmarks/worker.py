"""One workload in one process: set up, run timed rounds, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 benchmarks/worker.py --workload W --seed S --seconds T --trace 0|1 --t0 MONO
    python3 benchmarks/worker.py --workload W --seed S --setup-only --t0 MONO

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers
interpreter start, imports, building the seeded inputs and the warm-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _timed_rounds(wl, seconds):
    """Repeat whole rounds until ``seconds`` have passed, reading the
    host's slowness (``hostspeed.py``) just before each round.  Only each
    round's fingerprint is kept, so no earlier output adds to a round's
    peak memory; the last round's output is returned for the checks."""
    from hostspeed import HostSpeed

    times, slowness, prints = [], [], []
    with HostSpeed(wl.speed_kernels) as host:
        start = time.perf_counter()
        while True:
            gc.collect()
            slowness.append(host.slowness())
            t = time.perf_counter()
            out = wl.run_round()
            times.append(time.perf_counter() - t)
            prints.append(wl.fingerprint(out))
            if time.perf_counter() - start >= seconds:
                return times, slowness, out, _differing(prints)
            del out


def _differing(prints) -> int:
    return sum(p != prints[0] for p in prints)


def _traced_rounds(wl, seconds, seed, out_dir):
    """Alternate untraced and traced rounds, each traced round followed by
    the traced probe; per-layer metrics are medians over rounds.  The last
    traced round's spans are written to ``out_dir``."""
    from probe import Probe
    from tracing import Tracer, layer_metrics, median_metrics

    probe = Probe(seed)
    plain, traced, own, probed, prints, problems = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t = time.perf_counter()
        out = wl.run_round()
        plain.append(time.perf_counter() - t)
        prints.append(wl.fingerprint(out))
        del out
        gc.collect()
        tracer = Tracer()
        with tracer.installed():
            t = time.perf_counter()
            out = wl.run_round()
            traced.append(time.perf_counter() - t)
        prints.append(wl.fingerprint(out))
        own.append(layer_metrics(tracer.spans, tracer.counts))
        probe_tracer = Tracer()
        with probe_tracer.installed():
            probe_out = probe.run()
        probed.append(layer_metrics(probe_tracer.spans, probe_tracer.counts))
        if not problems:
            problems = probe.check(probe_out)
        del probe_out
        if time.perf_counter() - start >= seconds:
            break
        del out
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace_{wl.name}_seed{seed}.json"))
    metrics = median_metrics(probed)
    metrics.update(median_metrics(own))  # the workload's own spans win
    metrics["trace.overhead_s"] = min(traced) - min(plain)  # the least disturbed rounds
    return len(plain) + len(traced), out, _differing(prints), metrics, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    if args.trace:
        rounds, last, differing, metrics, problems = _traced_rounds(
            wl, args.seconds, args.seed, os.path.join(HERE, "out"))
        result["layers"] = metrics
    else:
        times, slowness, last, differing = _timed_rounds(wl, args.seconds)
        rounds = len(times)
        result["round_s"] = times
        result["slowness"] = slowness
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = []

    failed, found = wl.check(last)
    problems += found
    problems += wl.final_checks()
    if differing:
        problems.append(f"{differing} rounds gave output different from the first round's")
    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    result.update(
        correct=not problems,
        attempted=rounds * wl.ops_per_round(),
        failed=rounds * failed,
        rounds=rounds,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
