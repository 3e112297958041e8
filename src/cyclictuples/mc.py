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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DensityGrid, MCEstimate
from .ntuple import _pi_n_upper
from .triple import OMEGA, ordered_cyclic_mask, sample_ordered_cyclic
from .rng import uniform_matrix

_BATCH = 1 << 20  # samples per generated block, caps memory per worker

SINGLE_TARGETS = ("p3", "p3_star", "vol_C3_I", "vol_C3_II", "vol_C3_ordered", "vol_Dn_star")
BRACKET_TARGETS = ("pn_bracket",)


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
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.chunks < 1:
            raise ValueError("chunks must be >= 1")
        if self.target == "vol_Dn_star":
            if self.n is None or self.n < 3:
                raise ValueError("vol_Dn_star requires n >= 3")
        elif self.target == "pn_bracket":
            if self.n is None or self.n < 4:
                raise ValueError("pn_bracket requires n >= 4")
        elif self.n is not None and self.n != 3:
            raise ValueError(f"target {self.target!r} is a triple quantity; n must be 3 or omitted")

    @property
    def dim(self) -> int:
        return 3 if self.n is None else self.n


def _mask_cyclic3(pts: np.ndarray) -> np.ndarray:
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    first = np.minimum(np.minimum(x + y * z, y + z * x), z + x * y) <= 1.0
    xb, yb, zb = 1.0 - x, 1.0 - y, 1.0 - z
    second = np.minimum(np.minimum(xb + yb * zb, yb + zb * xb), zb + xb * yb) <= 1.0
    return first & second


def _mask_nontransitive3(pts: np.ndarray) -> np.ndarray:
    return _mask_cyclic3(pts) & (pts.min(axis=1) > 0.5)


def _mask_c3_i(pts: np.ndarray) -> np.ndarray:
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return (
        (x > 0.5)
        & (x <= OMEGA)
        & (x <= y)
        & (x * y <= 1.0 - x)
        & (x <= z)
        & (y * z <= 1.0 - x)
    )


def _mask_c3_ii(pts: np.ndarray) -> np.ndarray:
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    low_x = x < 0.5
    branch1 = low_x & (y > 0.5) & (y <= 1.0 - x) & (z > 0.5)
    branch2 = low_x & (y > 1.0 - x) & (z > 0.5) & (y * z <= 1.0 - x)
    return branch1 | branch2


def _mask_dn_star(pts: np.ndarray) -> np.ndarray:
    sums = pts + np.roll(pts, -1, axis=1)
    return (sums < 1.0).all(axis=1) & (pts[:, 0] <= pts.min(axis=1))


_MASKS = {
    "p3": _mask_cyclic3,
    "p3_star": _mask_nontransitive3,
    "vol_C3_I": _mask_c3_i,
    "vol_C3_II": _mask_c3_ii,
    "vol_C3_ordered": ordered_cyclic_mask,
    "vol_Dn_star": _mask_dn_star,
}


def _bracket_counts(pts: np.ndarray, pi_up: float) -> tuple[int, int]:
    sums = pts + np.roll(pts, -1, axis=1)
    cyclic = (sums >= 1.0).any(axis=1) & (sums <= 1.0).any(axis=1)
    not_cyclic = (pts.min(axis=1) > pi_up) | (pts.max(axis=1) < 1.0 - pi_up)
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
    dim = spec.dim
    single = spec.target != "pn_bracket"
    mask_fn = _MASKS.get(spec.target)
    pi_up = None if single else _pi_n_upper(spec.n)
    hits = 0
    misses = 0
    pos = start
    while pos < stop:
        count = min(_BATCH, stop - pos)
        pts = uniform_matrix(spec.seed, pos, count, dim)
        if single:
            hits += int(mask_fn(pts).sum())
        else:
            c, nc = _bracket_counts(pts, pi_up)
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
    columns = {"f1": 0, "f2": 1, "f3": 2}
    if which not in columns:
        raise ValueError(f"unknown density {which!r}")
    if bins < 10:
        raise ValueError("bins must be >= 10")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pts = sample_ordered_cyclic(samples, seed)
    counts, edges = np.histogram(pts[:, columns[which]], bins=bins, range=(0.0, 1.0))
    width = 1.0 / bins
    centers = (edges[:-1] + edges[1:]) / 2.0
    return DensityGrid(which=which, xs=centers, values=counts / (samples * width))
