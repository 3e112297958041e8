"""Seeded, chunk-invariant Monte Carlo estimation of every region volume.

Work is partitioned into chunks of contiguous global sample indices, and
each sample's coordinates come from a fixed slice of the counter-based
stream, so the estimate is a pure function of (target, samples, seed):
rerunning, or re-partitioning into a different number of chunks, is
bit-identical.  Chunks reduce by exact integer counts, and they run on
at most ``os.cpu_count()`` threads, so the chunk count fixes the result
and the machine only fixes how many chunks run at once.

For n >= 4 the cyclic region has no exact membership test, so
``pn_bracket`` reports a two-sided bracket: the fraction *provably* cyclic
(mixed adjacent sums) and one minus the fraction *provably* not cyclic
(min above pi_n, or max below 1 - pi_n); Unknowns widen the bracket and
are never resolved heuristically.

Each chunk draws its points in the blocks that ``rng.block_buffers``
sizes, into the buffers it hands out: the calling thread's kept set, the
one the sampler also draws into, for blocks of up to ``rng.BLOCK_WORDS``
words (every target at n <= 16), and a set for one chunk otherwise.  A
pool thread's buffers go when the pool exits.  Every predicate reads
C-contiguous columns: the (dim x points) array that ``rng.uniform_words``
draws in place.  Block sizes change no result.

No region is written here.  Each target calls its predicate from
``triple`` (``cyclic``, ``nontransitive``, ``c3_i``, ``c3_ii``,
``ordered_cyclic``) or ``ntuple`` (``d_star``; for the bracket ``d_i``,
``d_ii`` and the pi_n tests) on the columns of a block of points, the same
functions that decide single tuples.
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

SINGLE_TARGETS = ("p3", "p3_star", "vol_C3_I", "vol_C3_II", "vol_C3_ordered", "vol_Dn_star")
BRACKET_TARGETS = ("pn_bracket",)
_SMALLEST_N = {"vol_Dn_star": 3, "pn_bracket": 4}  # n-tuple targets


@dataclass(frozen=True)
class EstimatorSpec:
    """What to estimate and how: results depend only on these fields."""

    target: str
    samples: int
    seed: int
    chunks: int = 1
    n: int | None = None

    def __post_init__(self) -> None:
        if self.target not in SINGLE_TARGETS + BRACKET_TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must be in [1, {MAX_SAMPLES}], got {self.samples}")
        if not 1 <= self.chunks <= MAX_CHUNKS:
            raise ValueError(f"chunks must be in [1, {MAX_CHUNKS}], got {self.chunks}")
        if self.target in _SMALLEST_N:
            low = _SMALLEST_N[self.target]
            if self.n is None or not low <= self.n <= ntuple.MAX_N:
                raise ValueError(f"{self.target} requires n in [{low}, {ntuple.MAX_N}], got {self.n}")
        elif self.n is not None and self.n != 3:
            raise ValueError(f"target {self.target!r} is a triple quantity; n must be 3 or omitted")

    @property
    def dim(self) -> int:
        return 3 if self.n is None else self.n


_PREDICATES = {
    "p3": triple.cyclic,
    "p3_star": triple.nontransitive,
    "vol_C3_I": triple.c3_i,
    "vol_C3_II": triple.c3_ii,
    "vol_C3_ordered": triple.ordered_cyclic,
    "vol_Dn_star": ntuple.d_star,
}


def _bracket_counts(cols) -> tuple[int, int]:
    cyclic = ~(ntuple.d_i(*cols) | ntuple.d_ii(*cols))
    not_cyclic = ntuple.min_above_pi_n(*cols) | ntuple.max_below_one_minus_pi_n(*cols)
    return int(cyclic.sum()), int(not_cyclic.sum())


def _chunk_ranges(samples: int, chunks: int) -> list[tuple[int, int]]:
    base, extra = divmod(samples, chunks)
    ranges = []
    start = 0
    for c in range(chunks):
        size = base + (1 if c < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def _count_chunk(spec: EstimatorSpec, start: int, stop: int) -> tuple[int, ...]:
    single = spec.target != "pn_bracket"
    dim = spec.dim
    hits = 0
    misses = 0
    rows, buffers = rng.block_buffers(dim)
    pos = start
    while pos < stop:
        count = min(rows, stop - pos)
        cols = rng.uniform_words(spec.seed, pos * dim, count * dim, dim, out=buffers)
        if single:
            hits += int(_PREDICATES[spec.target](*cols).sum())
        else:
            c, nc = _bracket_counts(cols)
            hits += c
            misses += nc
        pos += count
    return (hits,) if single else (hits, misses)


def _bernoulli(p_hat: float, spec: EstimatorSpec) -> MCEstimate:
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / spec.samples)
    return MCEstimate(
        estimate=p_hat, stderr=stderr, samples=spec.samples, seed=spec.seed, chunks=spec.chunks
    )


def estimate(spec: EstimatorSpec) -> MCEstimate | dict[str, MCEstimate]:
    """Run the estimator described by ``spec``.

    Single-region targets return one MCEstimate.  ``pn_bracket`` returns
    {"lower": ..., "upper": ...} with lower <= upper always: Unknown
    samples are counted in neither the cyclic nor the non-cyclic tally.
    """
    ranges = _chunk_ranges(spec.samples, spec.chunks)
    if spec.chunks > 1:
        with ThreadPoolExecutor(max_workers=min(spec.chunks, os.cpu_count() or 1)) as pool:
            results = list(pool.map(lambda r: _count_chunk(spec, *r), ranges))
    else:
        results = [_count_chunk(spec, *r) for r in ranges]

    totals = tuple(sum(col) for col in zip(*results))
    if spec.target != "pn_bracket":
        return _bernoulli(totals[0] / spec.samples, spec)
    lower = _bernoulli(totals[0] / spec.samples, spec)
    upper = _bernoulli(1.0 - totals[1] / spec.samples, spec)
    return {"lower": lower, "upper": upper}


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
