"""Seeded, chunk-invariant Monte Carlo estimation of every region volume.

Work is partitioned into chunks of contiguous global sample indices, and
each sample's coordinates come from a fixed slice of the counter-based
stream, so the estimate is a pure function of (target, samples, seed):
rerunning, or re-partitioning into a different number of chunks, is
bit-identical.  Chunks reduce by exact integer counts, and they run on
at most ``os.cpu_count()`` threads, so the chunk count fixes the result
and the machine only fixes how many chunks run at once.

For n >= 4 the cyclic region has no exact membership test, so
``pn_bracket`` reports a two-sided bracket from ``ntuple.certificates``:
the fraction *provably* cyclic (the up-down condition at some index) and
one minus the fraction *provably* not cyclic (min above pi_n, or max below
1 - pi_n); Unknowns widen the bracket and are never resolved heuristically.

Each chunk draws its points in the blocks that ``rng.block_buffers``
sizes, into the buffers it hands out: the calling thread's kept set, the
one the sampler also draws into, for blocks of up to ``rng.BLOCK_WORDS``
words (every target at n <= 16), and a set for one chunk otherwise.
Chunks run on one pool of ``os.cpu_count()`` threads, made at import,
which starts no thread; a forked child makes a new one.  The pool is kept
for the life of the process, so its threads and the buffers each of them
keeps last across calls.  Every predicate reads
C-contiguous columns: the (dim x points) array that ``rng.uniform_words``
draws in place.  Block sizes change no result.

``estimate_many`` draws each stream once for many estimates: the specs
of one (seed, dim) read the same stream, so its blocks are drawn up to the
longest sample count among them and each spec counts its masks on the
rows below its own.  ``estimate`` is its one-spec case.

No region is written here.  ``TARGETS`` maps each target to the masks it
counts on the columns of a block of points: one predicate from ``triple``
(``cyclic``, ``nontransitive``, ``c3_i``, ``c3_ii``, ``ordered_cyclic``) or
``ntuple`` (``d_star``), or, for the bracket, the pair that
``ntuple.certificates`` gives; the same functions decide single tuples.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ntuple, rng, triple
from .core import DensityGrid, MCEstimate
from .triple import sample_ordered_cyclic

MAX_CHUNKS = 1024  # each chunk is one task and one (start, stop) pair
MAX_BINS = 10**6
MAX_SAMPLES = 10**11  # p3 at 10^11 samples takes about an hour on two cores
_COLUMNS = {"f1": 0, "f2": 1, "f3": 2}  # histogram's density -> sample column


def _alone(mask):
    return lambda *cols: (mask(*cols),)


# name -> (smallest n, or None for a triple quantity; the tuple of masks
# counted on a block's columns).  One mask is a volume; the bracket's two
# are the provably cyclic and the provably not cyclic samples.
TARGETS = {
    "p3": (None, _alone(triple.cyclic)),
    "p3_star": (None, _alone(triple.nontransitive)),
    "vol_C3_I": (None, _alone(triple.c3_i)),
    "vol_C3_II": (None, _alone(triple.c3_ii)),
    "vol_C3_ordered": (None, _alone(triple.ordered_cyclic)),
    "vol_Dn_star": (3, _alone(ntuple.d_star)),
    "pn_bracket": (4, ntuple.certificates),
}


@dataclass(frozen=True)
class EstimatorSpec:
    """What to estimate and how: results depend only on these fields."""

    target: str
    samples: int
    seed: int
    chunks: int = 1
    n: int | None = None

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must be in [1, {MAX_SAMPLES}], got {self.samples}")
        if not 1 <= self.chunks <= MAX_CHUNKS:
            raise ValueError(f"chunks must be in [1, {MAX_CHUNKS}], got {self.chunks}")
        low = TARGETS[self.target][0]
        if low is not None:
            if self.n is None or not low <= self.n <= ntuple.MAX_N:
                raise ValueError(f"{self.target} requires n in [{low}, {ntuple.MAX_N}], got {self.n}")
        elif self.n is not None and self.n != 3:
            raise ValueError(f"target {self.target!r} is a triple quantity; n must be 3 or omitted")

    @property
    def dim(self) -> int:
        return 3 if self.n is None else self.n


def _count_chunk(specs: list[EstimatorSpec], start: int, stop: int) -> list[np.ndarray | int]:
    """For each of ``specs``, all of one seed and dim, how many of the
    samples start..stop-1 below its own sample count each of its target's
    masks holds for: an array of counts, or 0 when it has no such sample."""
    seed, dim = specs[0].seed, specs[0].dim
    rows, buffers = rng.block_buffers(dim)
    hits = [0] * len(specs)
    for pos in range(start, stop, rows):
        cols = rng.uniform_words(seed, pos * dim, min(rows, stop - pos) * dim, dim, out=buffers)
        for i, spec in enumerate(specs):
            if pos < spec.samples:
                masks = TARGETS[spec.target][1](*cols[:, : spec.samples - pos])
                hits[i] = hits[i] + np.array([np.count_nonzero(m) for m in masks])
    return hits


def _new_pool() -> None:
    """Make the process's pool of ``os.cpu_count()`` threads: at import,
    where it starts no thread, and in a forked child, which has none of the
    parent's."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _bernoulli(p_hat: float, spec: EstimatorSpec) -> MCEstimate:
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / spec.samples)
    return MCEstimate(
        estimate=p_hat, stderr=stderr, samples=spec.samples, seed=spec.seed, chunks=spec.chunks
    )


def _result(spec: EstimatorSpec, counts: list[int]) -> MCEstimate | dict[str, MCEstimate]:
    shares = [count / spec.samples for count in counts]
    if len(shares) == 1:
        return _bernoulli(shares[0], spec)
    cyclic, not_cyclic = shares
    return {"lower": _bernoulli(cyclic, spec), "upper": _bernoulli(1.0 - not_cyclic, spec)}


def estimate_many(specs) -> list[MCEstimate | dict[str, MCEstimate]]:
    """``[estimate(spec) for spec in specs]``, drawing each stream once.

    The specs of one (seed, dim) share one draw: the samples below the
    largest sample count among them, in as many chunks as the largest
    ``chunks`` among them.  Counts depend only on global sample indices,
    so each result equals the one ``estimate`` gives, and echoes its own
    spec's ``chunks``.
    """
    specs = list(specs)
    groups: dict[tuple[int, int], list[EstimatorSpec]] = {}
    for spec in dict.fromkeys(specs):
        groups.setdefault((spec.seed, spec.dim), []).append(spec)
    counts = {}
    for group in groups.values():
        samples = max(spec.samples for spec in group)
        # no chunk is left empty, so the first holds sample 0 of every spec
        chunks = min(max(spec.chunks for spec in group), samples)
        ranges = [(c * samples // chunks, (c + 1) * samples // chunks) for c in range(chunks)]
        # one chunk runs on the calling thread, in the buffers it keeps
        results = list((_pool.map if chunks > 1 else map)(lambda r: _count_chunk(group, *r), ranges))
        for spec, hits in zip(group, zip(*results)):
            counts[spec] = sum(hits).tolist()
    return [_result(spec, counts[spec]) for spec in specs]


def estimate(spec: EstimatorSpec) -> MCEstimate | dict[str, MCEstimate]:
    """Run the estimator described by ``spec``.

    Single-region targets return one MCEstimate.  ``pn_bracket`` returns
    {"lower": ..., "upper": ...} with lower <= upper always: Unknown
    samples are counted in neither the cyclic nor the non-cyclic tally.
    """
    return estimate_many([spec])[0]


def histogram(which: str, samples: int, bins: int, seed: int) -> DensityGrid:
    """Empirical density of one coordinate of the ordered cyclic region,
    from ``samples`` rejection samples binned on [0, 1].

    Coordinate 0/1/2 of the ordered sample estimates f1/f2/f3.  Bin
    heights are normalized so the histogram integrates to 1.
    """
    if which not in _COLUMNS:
        raise ValueError(f"unknown density {which!r}")
    if not 10 <= bins <= MAX_BINS:
        raise ValueError(f"bins must be in [10, {MAX_BINS}], got {bins}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return bin_sample(which, sample_ordered_cyclic(samples, seed), bins)


def bin_sample(which: str, pts: np.ndarray, bins: int) -> DensityGrid:
    """``histogram`` of an ordered sample ``pts`` already drawn, so one
    sample can serve f1, f2 and f3."""
    counts, edges = np.histogram(pts[:, _COLUMNS[which]], bins=bins, range=(0.0, 1.0))
    width = 1.0 / bins
    centers = (edges[:-1] + edges[1:]) / 2.0
    return DensityGrid(which=which, xs=centers, values=counts / (len(pts) * width))
