"""A small fixed call of every layer, run traced after each traced round.

A workload that never enters a layer (``estimate`` never decides a tuple,
``decide`` never draws a random word) still reports that layer's metrics
in its traced run: they come from the probe's spans.  Metrics of layers
the workload does enter come from the workload's own spans.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import oracle
from cyclictuples import cli, core, mc, ntuple, triple
from cyclictuples.core import Status


class Probe:
    SAMPLES = 1 << 16

    def __init__(self, seed: int):
        rnd = random.Random(seed ^ 0x5EED)
        self.seed = rnd.getrandbits(62)
        self.texts = [",".join(repr(rnd.random()) for _ in range(n)) for n in (3, 6) * 25]

    def run(self):
        est = mc.estimate(mc.EstimatorSpec("p3", self.SAMPLES, self.seed))
        pts = triple.sample_ordered_cyclic(1000, self.seed)
        stats = triple.density_stats("f1")
        verdicts = []
        for text in self.texts:
            t = core.parse_tuple(text)
            v = ntuple.decide_ntuple(t)
            verdicts.append((t, v, v.witness is None or ntuple.verify_witness(v.witness, t)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--tuple", "0.6,0.5,0.3,0.4"])
        return est, pts, stats, verdicts, code

    def check(self, out) -> list[str]:
        est, pts, stats, verdicts, code = out
        problems = []
        p = oracle.volumes()["p3"]
        if abs(est.estimate - p) > 5 * math.sqrt(p * (1 - p) / self.SAMPLES):
            problems.append(f"probe: p3 estimate {est.estimate}")
        if pts.shape != (1000, 3) or not (pts[:, 0] <= pts[:, 1]).all() or not (pts[:, 1] <= pts[:, 2]).all():
            problems.append("probe: sampled rows not ordered")
        if abs(stats["mean"] - oracle.stats("f1")["mean"]) > 1e-9:
            problems.append(f"probe: f1 mean {stats['mean']}")
        for t, v, verified in verdicts:
            if t.n == 3 and (v.status is Status.CYCLIC) != oracle.trybula_cyclic(*t.values):
                problems.append(f"probe: {t} decided {v.status.value}")
            if verified is not True:
                problems.append(f"probe: witness for {t} does not verify")
        if code != 0:
            problems.append(f"probe: check of a Cyclic tuple exited {code}")
        return problems
