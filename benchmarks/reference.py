"""Reference figures: single calls of the library's hot paths, timed alone.

    python3 benchmarks/reference.py

Each line is the median of ``REPEATS`` calls in one process, after one
untimed call.  These are the figures the README compares with the
baseline in ROADMAP.md; they are not part of the gated benchmark.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cyclictuples import core, mc, ntuple, rng, triple  # noqa: E402

REPEATS = 5


def _time(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> int:
    rnd = random.Random(2024)
    six = [core.ProbTuple(tuple(rnd.random() for _ in range(6))) for _ in range(10_000)]
    long = core.ProbTuple((0.9, 0.05) + tuple(rnd.random() for _ in range(998)))
    witness = ntuple.build_witness(long)
    rows = [
        ("rng.uniform_words 3M words", lambda: rng.uniform_words(1, 0, 3_000_000)),
        *[(f"estimate p3 1e7, chunks={c}",
           lambda c=c: mc.estimate(mc.EstimatorSpec("p3", 10**7, 42, chunks=c)))
          for c in (1, 2, 8)],
        ("estimate pn_bracket n=8 1e6",
         lambda: mc.estimate(mc.EstimatorSpec("pn_bracket", 10**6, 42, n=8))),
        ("sample_ordered_cyclic(1e6)", lambda: triple.sample_ordered_cyclic(10**6, 42)),
        ("sample_ordered_cyclic(1e3)", lambda: triple.sample_ordered_cyclic(1000, 42)),
        ("decide_ntuple 10k float 6-tuples, no witness",
         lambda: [ntuple.decide_ntuple(t, with_witness=False) for t in six]),
        ("decide_ntuple 10k float 6-tuples, witness",
         lambda: [ntuple.decide_ntuple(t) for t in six]),
        ("build_witness n=1000", lambda: ntuple.build_witness(long)),
        ("verify_witness n=1000", lambda: ntuple.verify_witness(witness, long)),
        ('density_stats("f1")', lambda: triple.density_stats("f1")),
    ]
    print(f"median of {REPEATS} calls, nproc={os.cpu_count()}")
    for label, fn in rows:
        print(f"{label:48s} {_time(fn) * 1e3:10.1f} ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
