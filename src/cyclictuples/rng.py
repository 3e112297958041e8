"""Counter-based uniform random stream for reproducible, parallel Monte Carlo.

Word w of the stream for a given seed is ``mix64(seed + (w+1)*GOLDEN)``,
the splitmix64 output function applied to a pure counter.  Any worker can
therefore produce any slice of the stream independently: estimates depend
only on (seed, number of samples), never on how work was partitioned.

Points come column-major: ``uniform_words(..., dim)`` puts word
``start + i*dim + j`` at ``[j, i]``, so each coordinate of a block of
points is one contiguous row (in a ``BlockBuffers``, padded to start on a
64-byte boundary); its transpose ``.T`` is the (points x dim) array with
one row per point.

``block_buffers(dim)`` is the one place that sizes the blocks of ``mc``
and the sampler and says where they are drawn.  A block is drawn in
place: the counters, the mixing and the conversion to floats all write
into the float64 block of a ``BlockBuffers``, which also keeps the
per-point counter offsets.  Each thread keeps one set, shared by ``mc``
and the sampler across calls, for blocks of up to ``BLOCK_WORDS`` words.
``mc`` starts no thread: its chunks run on the caller's thread, in its
set, or in forked children, each in its copy of it; a caller that runs
estimates on threads of its own gets one set per thread.  Larger blocks
(more than 16 words a point) get a fresh set, and without ``out`` each
``uniform_words`` call gets fresh ones.

A set also keeps one workspace.  The mixing's uint64 scratch is a view
of it, and once the block is drawn, the masks of the block are computed
there too: ``BlockBuffers.run`` runs a program of ``symbolic.trace`` with
out= into slots carved from the same bytes, so no block-sized array is
allocated per block.  Every column of a block, of the scratch and of a
slot starts on a 64-byte boundary: numpy's float64 loops ran at half
speed on operands that malloc had placed 16 or 32 bytes off one, which
made a block's cost depend on the heap's layout (see CHANGES.md).
"""

from __future__ import annotations

import itertools
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
_ALIGN = 64  # bytes: where every column of a block and of a workspace starts
_MAX_BOUND = 64  # programs bound to views that a BlockBuffers keeps at most
_kept = threading.local()  # .buffers: the thread's BlockBuffers, kept across calls


def _aligned(nbytes: int) -> np.ndarray:
    """``nbytes`` fresh bytes whose first one sits on a 64-byte boundary."""
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    skip = -raw.ctypes.data % _ALIGN
    return raw[skip : skip + nbytes]


def _stride(points: int, itemsize: int) -> int:
    """Bytes from one column of ``points`` items to the next: a multiple of 64."""
    return -(-points * itemsize // _ALIGN) * _ALIGN


class BlockBuffers:
    """Where ``uniform_words(..., out=buffers)`` draws, and where programs
    of ``symbolic.trace`` run on what it drew.

    It keeps a float64 block, the counter offsets ``arange(points) * dim *
    GOLDEN`` of the last ``dim``, and a workspace of bytes.  A draw mixes
    its words in the workspace, and a program then computes its columns
    there, in slots: the draw is done before the program starts, so the
    two share it.  Every column of a block and every slot starts on a
    64-byte boundary, where numpy's float64 loops run at full speed.  Each
    buffer grows to the largest request it has served, and a block drawn
    into it is valid until the next draw.  One thread at a time may use it.
    """

    def __init__(self) -> None:
        self.block = _aligned(0).view(np.float64)
        self.workspace = _aligned(0)
        self.offsets = np.empty(0, dtype=np.uint64)
        self._step = 0
        self._drawn = self.block.reshape(0, 0)  # the columns of the last draw
        self._bound: dict[tuple, tuple] = {}  # (program, points) -> program.bind(...)

    def _grow_workspace(self, nbytes: int) -> None:
        """Make the workspace hold at least ``nbytes``; the bound programs
        go with the memory they point into."""
        if self.workspace.nbytes < nbytes:
            self._bound.clear()
            self.workspace = _aligned(0)  # the old one is freed before its successor is allocated
            self.workspace = _aligned(nbytes)

    def _fit(self, count: int, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(block, scratch, offsets) views for ``count`` words of ``step``-word
        points: the block's columns and the uint64 scratch, laid out alike."""
        points = count // step
        stride = _stride(points, 8)
        if self.block.nbytes < step * stride:
            self.block = _aligned(step * stride).view(np.float64)
            self._bound.clear()
        self._grow_workspace(step * stride)
        if self._step != step or self.offsets.size < points:
            self.offsets = np.arange(points, dtype=np.uint64)
            self.offsets *= np.uint64(step * int(_GOLDEN) & _MASK64)
            self._step = step
        shape, strides = (step, points), (stride, 8)
        self._drawn = np.ndarray(shape, np.float64, self.block, 0, strides)
        scratch = np.ndarray(shape, np.uint64, self.workspace, 0, strides)
        return self._drawn, scratch, self.offsets[:points]

    def slots(self, dtypes) -> list[np.ndarray]:
        """A column of each of ``dtypes`` for as many points as the last draw,
        side by side in the workspace, over the draw's scratch."""
        points = self._drawn.shape[1]
        sizes = [_stride(points, np.dtype(d).itemsize) for d in dtypes]
        self._grow_workspace(sum(sizes))
        starts = itertools.accumulate(sizes, initial=0)
        return [np.ndarray(points, d, self.workspace, at) for d, at in zip(dtypes, starts)]

    def run(self, program) -> tuple:
        """Run ``program`` (from ``symbolic.trace``) on the columns of the last
        draw, in the workspace: its masks, one tuple per traced predicate,
        valid until the next draw.  The program's arguments are bound to
        views once per number of points."""
        if program.inputs != len(self._drawn):
            raise ValueError(f"a program of {program.inputs} columns run on {len(self._drawn)}")
        key = (program, self._drawn.shape[1])
        bound = self._bound.get(key)
        if bound is None:
            slots = self.slots(program.slots)  # before the lookup is stored: it may grow
            if len(self._bound) >= _MAX_BOUND:
                self._bound.clear()
            bound = self._bound[key] = program.bind(self._drawn, slots)
        calls, masks = bound
        for ufunc, args in calls:
            ufunc(*args)
        return masks


def block_buffers(dim: int) -> tuple[int, BlockBuffers]:
    """Points per block for ``dim``-word points, and the buffers to draw
    them into: the calling thread's kept set when a block holds at most
    ``BLOCK_WORDS`` words, a fresh set otherwise.

    A block holds ``BLOCK_WORDS // dim`` points, rounded down to a
    multiple of 8, so its columns and the slots computed from them stay in
    a core's cache.  At large dim
    that leaves so few points that the per-column numpy calls dominate, so
    a block holds at least ``_MIN_ROWS`` points; it never holds more than
    ``_MAX_BLOCK_WORDS`` words.  Block sizes change no result.
    """
    rows = min(max(BLOCK_WORDS // dim, _MIN_ROWS), _MAX_BLOCK_WORDS // dim)
    rows = rows // 8 * 8 or rows  # 8k points: no column of a full block needs padding
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
    block, scratch, offsets = (BlockBuffers() if out is None else out)._fit(count, step)
    # counter start_word + 1 + i*step + j, times GOLDEN, plus the key, mod
    # 2^64: a per-coordinate offset plus a per-point offset
    key = np.uint64((int(seed) + (start_word + 1) * int(_GOLDEN)) & _MASK64)
    first = key + np.arange(step, dtype=np.uint64) * _GOLDEN
    z = block.view(np.uint64)
    np.add(first[:, None], offsets, out=z)
    _mix64(z, scratch)
    np.right_shift(z, _S11, out=scratch)
    np.copyto(block, scratch.view(np.int64), casting="unsafe")
    block *= _TO_UNIT
    if not dim:
        return block[0]
    return block if out is not None else np.ascontiguousarray(block)

