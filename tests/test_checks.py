"""The report's checking sections against plain references: the symmetry
section on numpy columns against the scalar loop it replaced, and the exact
test of each bracket end against a wrong pi_n threshold."""

import functools
import random

import pytest

from cyclictuples import checks, mc, ntuple, symbolic, triple
from cyclictuples.core import ProbTuple, Status, complement, reverse, rotate


@functools.cache
def scalar_symmetry(samples, seed):
    """``checks.symmetry`` as one scalar decision per tuple and per image."""
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


@pytest.mark.parametrize("block_rows", [checks._BLOCK_ROWS, 7])
@pytest.mark.parametrize("samples", [200, 201, 2000])
@pytest.mark.parametrize("seed", [7, 20240810, 1, 99, 31337])
def test_symmetry_equals_scalar_loop(seed, samples, block_rows, monkeypatch):
    monkeypatch.setattr(checks, "_BLOCK_ROWS", block_rows)
    assert checks.symmetry(samples, seed) == scalar_symmetry(samples, seed)


class BoundaryRandom(random.Random):
    """A ``random.Random`` whose random() yields triples on the two Trybula
    boundaries, three values at a time: x = fl(1 - y*z) or fl((1-y)*(1-z)),
    with y, z and the rotation of (x, y, z) drawn from the parent class."""

    def __init__(self, seed):
        self._pending = []
        super().__init__(seed)

    def getrandbits(self, k):
        # Defined here so that randint and randrange keep drawing bits from
        # the parent class, not values from random() below.
        return super().getrandbits(k)

    def random(self):
        if not self._pending:
            y, z = super().random(), super().random()
            x = 1.0 - y * z if super().getrandbits(1) else (1.0 - y) * (1.0 - z)
            k = super().randrange(3)
            self._pending = [x, y, z][k:] + [x, y, z][:k]
        return self._pending.pop(0)


def test_symmetry_decides_boundary_triples_exactly(monkeypatch):
    # Float masks alone get some boundary triples and their complements
    # wrong (tests/test_exactness.py); every drawn value here comes from such
    # a triple, n-tuple coordinates included.  The scalar reference is
    # called unwrapped, since its cache holds results of the unpatched class.
    monkeypatch.setattr(random, "Random", BoundaryRandom)
    got = checks.symmetry(2000, 7)
    assert got == scalar_symmetry.__wrapped__(2000, 7)
    assert got["pass"]


def test_shifted_pi_n_threshold_makes_bracket_inconsistent(monkeypatch):
    # A necessity test 0.01 below pi_n calls too many tuples not cyclic: the
    # loose bounds still hold, the upper end's exact test does not.
    n, samples, seed = 4, 1_000_000, 41
    spec = mc.EstimatorSpec("pn_bracket", samples, seed, chunks=1, n=n)
    assert checks.pn_bracket(n, mc.estimate(spec))["consistent"]
    monkeypatch.setattr(ntuple, "_pi_n_upper", lambda n: ntuple.pi_n(n) - 0.01)
    symbolic.trace.cache_clear()  # the shifted threshold reaches mc's masks once they are traced again
    res = checks.pn_bracket(n, mc.estimate(spec))
    lo, up, b = res["lower"], res["upper"], res["bounds"]
    assert lo["estimate"] <= up["estimate"]
    assert lo["estimate"] - 4 * lo["stderr"] <= b["upper"]
    assert up["estimate"] + 4 * up["stderr"] >= b["lower"]
    assert res["consistent"] is False
