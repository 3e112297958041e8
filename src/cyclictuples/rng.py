"""Counter-based uniform random stream for reproducible, parallel Monte Carlo.

Word w of the stream for a given seed is ``mix64(seed + (w+1)*GOLDEN)``,
the splitmix64 output function applied to a pure counter.  Any worker can
therefore produce any slice of the stream independently: estimates depend
only on (seed, number of samples), never on how work was partitioned.

Points come column-major: ``uniform_words(..., dim)`` puts word
``start + i*dim + j`` at ``[j, i]``, so each coordinate of a block of
points is one contiguous row; its transpose ``.T`` is the (points x dim)
array with one row per point.

``block_buffers(dim)`` is the one place that sizes the blocks of ``mc``
and the sampler and says where they are drawn.  A block is drawn in
place: the counters, the mixing and the conversion to floats all write
into the float64 block of a ``BlockBuffers``, which also keeps the
per-point counter offsets.  Each thread keeps one set, shared by ``mc``
and the sampler across calls, for blocks of up to ``BLOCK_WORDS`` words.
``mc``'s worker threads last for the life of the process, so their sets
do too.  Larger blocks (more than 16 words a point) get a fresh set, and
without ``out`` each ``uniform_words`` call gets fresh ones.  The mixing's
one uint64 scratch array is allocated per draw.  After the first draw
malloc serves it from its free list, and freeing it keeps glibc's dynamic
mmap and trim thresholds above the block-sized temporaries of the region
predicates: with a kept scratch array those temporaries were mapped or
trimmed away and faulted in again on every block (see CHANGES.md).
"""

from __future__ import annotations

import threading

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TO_UNIT = 2.0**-53
BLOCK_WORDS = 3 << 14  # words per block for mc and the sampler; see CHANGES.md for the sweep
_MIN_ROWS = 3072  # floor on points per block; equals the cap at n = ntuple.MAX_N
_MAX_BLOCK_WORDS = 3 << 20  # random words per block at most, caps memory per thread
_kept = threading.local()  # .buffers: the thread's BlockBuffers, kept across calls


class BlockBuffers:
    """Where ``uniform_words(..., out=buffers)`` draws: a float64 block and
    the counter offsets ``arange(points) * dim * GOLDEN`` of the last
    ``dim``.  Each grows to the largest draw it has served, and a block
    drawn into it is valid until the next draw.  One thread at a time may
    draw into it."""

    def __init__(self) -> None:
        self.block = np.empty(0)
        self.offsets = np.empty(0, dtype=np.uint64)
        self._step = 0

    def _fit(self, count: int, step: int) -> tuple[np.ndarray, np.ndarray]:
        """(block, offsets) views for ``count`` words of ``step``-word points."""
        points = count // step
        if self.block.size < count:
            self.block = np.empty(count)
        if self._step != step or self.offsets.size < points:
            self.offsets = np.arange(points, dtype=np.uint64)
            self.offsets *= np.uint64(step * int(_GOLDEN) & _MASK64)
            self._step = step
        return self.block[:count].reshape(step, points), self.offsets[:points]


def block_buffers(dim: int) -> tuple[int, BlockBuffers]:
    """Points per block for ``dim``-word points, and the buffers to draw
    them into: the calling thread's kept set when a block holds at most
    ``BLOCK_WORDS`` words, a fresh set otherwise.

    A block holds ``BLOCK_WORDS // dim`` points, so its columns and the
    temporaries computed from them stay in a core's cache.  At large dim
    that leaves so few points that the per-column numpy calls dominate, so
    a block holds at least ``_MIN_ROWS`` points; it never holds more than
    ``_MAX_BLOCK_WORDS`` words.  Block sizes change no result.
    """
    rows = min(max(BLOCK_WORDS // dim, _MIN_ROWS), _MAX_BLOCK_WORDS // dim)
    if rows * dim > BLOCK_WORDS:
        return rows, BlockBuffers()
    if not hasattr(_kept, "buffers"):
        _kept.buffers = BlockBuffers()
    return rows, _kept.buffers


def _mix64(z: np.ndarray, t: np.ndarray) -> None:
    """splitmix64's output function on ``z`` in place, ``t`` its scratch."""
    for shift, mul in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mul
    np.right_shift(z, _S31, out=t)
    z ^= t


def uniform_words(
    seed: int, start_word: int, count: int, dim: int | None = None, *, out: BlockBuffers | None = None
) -> np.ndarray:
    """Stream words [start_word, start_word + count) as floats in [0, 1).

    With ``dim`` the words are returned as a (dim, count // dim) array,
    word ``start_word + i*dim + j`` at ``[j, i]``: column i holds point i.
    With ``out`` the array is a view of its buffers, valid until their
    next draw; without it the array is fresh.

    Each float is the top 53 bits of a mixed word times 2^-53.  The bits
    are cast to float64 through an int64 view, which is exact below 2^53
    and faster than numpy's uint64 cast, and then scaled in place by that
    power of two, which is exact too.
    """
    if count < 0 or start_word < 0:
        raise ValueError("start_word and count must be nonnegative")
    if dim is not None and (dim < 1 or count % dim):
        raise ValueError("dim must be positive and divide count")
    step = dim or 1
    block, offsets = (BlockBuffers() if out is None else out)._fit(count, step)
    # counter start_word + 1 + i*step + j, times GOLDEN, plus the key, mod
    # 2^64: a per-coordinate offset plus a per-point offset
    key = np.uint64((int(seed) + (start_word + 1) * int(_GOLDEN)) & _MASK64)
    first = key + np.arange(step, dtype=np.uint64) * _GOLDEN
    z = block.view(np.uint64)
    np.add(first[:, None], offsets, out=z)
    scratch = np.empty_like(z)  # per draw, not kept: see the module docstring
    _mix64(z, scratch)
    np.right_shift(z, _S11, out=scratch)
    np.copyto(block, scratch.view(np.int64), casting="unsafe")
    block *= _TO_UNIT
    return block if dim else block[0]

