import threading

import numpy as np
import pytest

from cyclictuples import rng
from cyclictuples.rng import BlockBuffers, block_buffers, uniform_words

MASK = (1 << 64) - 1


def splitmix64_unit(seed, word):
    """Word ``word`` of the stream, in pure Python integer arithmetic."""
    z = (seed + (word + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def test_words_in_unit_interval():
    u = uniform_words(123, 0, 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_moments_sane():
    u = uniform_words(7, 0, 1_000_000)
    assert abs(u.mean() - 0.5) < 0.002
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_deterministic_and_seed_sensitive():
    a = uniform_words(42, 0, 1000)
    assert np.array_equal(a, uniform_words(42, 0, 1000))
    assert not np.array_equal(a, uniform_words(43, 0, 1000))


def test_slices_are_substreams():
    # any partition of the index range reproduces the same words
    whole = uniform_words(5, 0, 10_000)
    parts = np.concatenate([uniform_words(5, 0, 1234), uniform_words(5, 1234, 8766)])
    assert np.array_equal(whole, parts)


def test_matrix_indexed_by_global_sample():
    whole = uniform_words(9, 0, 1000 * 4, 4).T
    parts = np.vstack([uniform_words(9, 0, 337 * 4, 4).T, uniform_words(9, 337 * 4, 663 * 4, 4).T])
    assert np.array_equal(whole, parts)


def test_stream_view_matches_matrix():
    buffers = BlockBuffers()
    a = uniform_words(11, 0, 30, 3, out=buffers).T.copy()  # the next draw overwrites the view
    b = uniform_words(11, 30, 15, 3, out=buffers).T
    assert np.array_equal(np.vstack([a, b]), uniform_words(11, 0, 15 * 3, 3).T)


def test_stream_draws_into_reused_buffers():
    # a partial last block, growth after a small draw, and a change of dim
    buffers = BlockBuffers()
    drawn = []
    word = 0
    for dim in (1, 3, 4, 8):
        for rows in (1000, 700, 1000, 3):
            drawn.append(uniform_words(13, word, rows * dim, dim, out=buffers).T.flatten())
            word += rows * dim
    assert np.array_equal(np.concatenate(drawn), uniform_words(13, 0, 2703 * 16))


def in_new_thread(fn):
    """fn's result, computed on a thread of its own."""
    result = []
    t = threading.Thread(target=lambda: result.append(fn()))
    t.start()
    t.join(timeout=60)
    return result[0]


@pytest.mark.parametrize(
    "dim,rows,kept",
    [(1, 3 << 14, True), (3, 1 << 14, True), (16, 3072, True), (17, 3072, False), (1024, 3072, False)],
)
def test_block_buffers(dim, rows, kept):
    def two_calls():
        return block_buffers(dim), block_buffers(dim)

    (rows_a, a), (rows_b, b) = two_calls()
    (_, other), _ = in_new_thread(two_calls)
    assert rows_a == rows_b == rows
    assert (a is b) == kept and (a is getattr(rng._kept, "buffers", None)) == kept
    assert a is not other


def test_words_into_buffers_match_fresh():
    buffers = BlockBuffers()
    for start, count, dim in ((0, 30, 3), (7, 12, None), (10**12, 4096, 8), (5, 0, 2)):
        drawn = uniform_words(3, start, count, dim, out=buffers)
        assert np.array_equal(drawn, uniform_words(3, start, count, dim))
        assert np.shares_memory(drawn, buffers.block) == (count > 0)
    a, b = uniform_words(3, 0, 30), uniform_words(3, 0, 30)
    assert not np.shares_memory(a, b)


def test_rejects_negative_args():
    with pytest.raises(ValueError):
        uniform_words(1, -1, 10)
    with pytest.raises(ValueError):
        uniform_words(1, 0, -10)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 10**9])
def test_known_answers(seed, start):
    expected = [splitmix64_unit(seed, start + k) for k in range(64)]
    assert uniform_words(seed, start, 64).tolist() == expected
    assert uniform_words(seed, start, 64, 4).T.ravel().tolist() == expected


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_columns_contiguous_and_row_major(dim):
    pts = uniform_words(17, 1001 * dim, 500 * dim, dim).T
    assert pts.shape == (500, dim)
    cols = pts.T
    assert cols.flags.c_contiguous
    words = uniform_words(17, 1001 * dim, 500 * dim)
    assert np.array_equal(pts, words.reshape(500, dim))
    for j in range(dim):
        assert np.array_equal(cols[j], words[j::dim])


def test_rejects_bad_dim():
    with pytest.raises(ValueError):
        uniform_words(1, 0, 10, 3)
    with pytest.raises(ValueError):
        uniform_words(1, 0, 10, 0)
