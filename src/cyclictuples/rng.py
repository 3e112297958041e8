"""Counter-based uniform random stream for reproducible, parallel Monte Carlo.

Word w of the stream for a given seed is ``mix64(seed + (w+1)*GOLDEN)``,
the splitmix64 output function applied to a pure counter.  Any worker can
therefore produce any slice of the stream independently: estimates depend
only on (seed, number of samples), never on how work was partitioned.

Points come column-major: ``uniform_words(..., dim)`` puts word
``start + i*dim + j`` at ``[j, i]``, so each coordinate of a block of
points is one contiguous row, and ``uniform_matrix`` returns the
(points x dim) transpose of that array.  Consumers draw blocks of about
``BLOCK_WORDS`` words, sized so a block and the temporaries computed from
it stay in a core's cache.
"""

from __future__ import annotations

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


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def uniform_words(seed: int, start_word: int, count: int, dim: int | None = None) -> np.ndarray:
    """Stream words [start_word, start_word + count) as floats in [0, 1).

    With ``dim`` the words are returned as a (dim, count // dim) array,
    word ``start_word + i*dim + j`` at ``[j, i]``: column i holds point i.
    """
    if count < 0 or start_word < 0:
        raise ValueError("start_word and count must be nonnegative")
    if dim is not None and (dim < 1 or count % dim):
        raise ValueError("dim must be positive and divide count")
    step = dim or 1
    # counter start_word + 1 + i*step + j, times GOLDEN, plus the key, mod
    # 2^64: a per-coordinate offset plus a per-point offset
    key = np.uint64((int(seed) + (start_word + 1) * int(_GOLDEN)) & _MASK64)
    first = key + np.arange(step, dtype=np.uint64) * _GOLDEN
    stride = np.uint64(step * int(_GOLDEN) & _MASK64)
    z = first[:, None] + np.arange(count // step, dtype=np.uint64) * stride
    out = (_mix64(z) >> _S11) * _TO_UNIT
    return out if dim else out[0]


def uniform_matrix(seed: int, start_sample: int, count: int, dim: int) -> np.ndarray:
    """Uniform points for global samples [start_sample, start_sample + count),
    one row per sample, ``dim`` coordinates each.  The array is the
    transpose of a column-major block, so ``.T`` gives C-contiguous columns.

    Sample i always consumes stream words [i*dim, (i+1)*dim), which is what
    makes chunked generation bit-identical to a single pass.
    """
    return uniform_words(seed, start_sample * dim, count * dim, dim).T


class UniformStream:
    """Sequential view over the counter stream, for consumers like
    rejection samplers that draw a data-dependent number of batches."""

    def __init__(self, seed: int, start_word: int = 0):
        self.seed = int(seed)
        self._pos = int(start_word)

    def next_matrix(self, count: int, dim: int) -> np.ndarray:
        out = uniform_words(self.seed, self._pos, count * dim, dim).T
        self._pos += count * dim
        return out
