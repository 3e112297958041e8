"""Masks as traced programs: ``symbolic.trace`` records what the region
predicates compute as straight-line ufunc calls, and ``rng.BlockBuffers``
runs them in its 64-byte-aligned workspace on the block it drew."""

import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cyclictuples import mc, ntuple, rng, symbolic, triple
from cyclictuples.mc import EstimatorSpec, estimate
from test_predicates import _rows

CASES = [
    (name, n)
    for name, (low, _) in mc.TARGETS.items()
    for n in ([3] if low is None else [*range(low, 9), 17])
]


def _run(masks_fn, cols, buffers):
    """The masks of the program traced from ``masks_fn``, run on the block
    ``cols`` that ``buffers`` drew last, beside the predicate's own masks
    (one mask, or a tuple of them)."""
    ((*got,),) = buffers.run(symbolic.trace((masks_fn,), len(cols)))
    want = masks_fn(*cols)
    return got, list(want) if isinstance(want, tuple) else [want]


@pytest.mark.parametrize("name, n", CASES, ids=[f"{name}-{n}" for name, n in CASES])
def test_program_counts_equal_predicate(name, n):
    masks_fn = mc.TARGETS[name][1]
    rows, buffers = rng.block_buffers(n)
    # a full block, then tail blocks, all in the same buffers
    for points in (rows, 1001, 3):
        cols = rng.uniform_words(n, 7 * rows * n, points * n, n, out=buffers)
        got, want = _run(masks_fn, cols, buffers)
        assert [np.count_nonzero(m) for m in got] == [np.count_nonzero(m) for m in want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # boundary and tie rows, unsorted and sorted, written over a drawn block
    pts = _rows(n, n)
    for values in (pts, np.sort(pts, axis=1)):
        cols = rng.uniform_words(0, 0, len(values) * n, n, out=buffers)
        cols[...] = values.T
        got, want = _run(masks_fn, cols, buffers)
        assert [np.count_nonzero(m) for m in got] == [np.count_nonzero(m) for m in want]


def test_group_program_shares_steps():
    p3, p3_star = mc.TARGETS["p3"][1], mc.TARGETS["p3_star"][1]
    apart = len(symbolic.trace((p3,), 3).steps) + len(symbolic.trace((p3_star,), 3).steps)
    assert len(symbolic.trace((p3, p3_star), 3).steps) < apart
    d_star, certificates = mc.TARGETS["vol_Dn_star"][1], mc.TARGETS["pn_bracket"][1]
    apart = len(symbolic.trace((d_star,), 6).steps) + len(symbolic.trace((certificates,), 6).steps)
    assert len(symbolic.trace((d_star, certificates), 6).steps) < apart  # the adjacent sums


def test_branching_predicate_fails_at_trace_time():
    with pytest.raises(TypeError, match="no truth value"):
        symbolic.trace((ntuple._updown_index,), 4)  # branches on a comparison


def test_slot_reused_after_last_read():
    # p3 reads 26 steps' columns, but holds few at once
    program = symbolic.trace((mc.TARGETS["p3"][1],), 3)
    assert len(program.steps) == 26 and len(program.slots) <= 8
    assert any(out in args for _, args, out in program.steps)  # written over its own operand


def _columns(arrays):
    """Every 1-D column in ``arrays``, nested tuples, lists and 2-D arrays."""
    if isinstance(arrays, np.ndarray) and arrays.ndim == 1:
        return [arrays]
    return [c for part in arrays for c in _columns(part)]


def _misaligned(arrays):
    return [c.ctypes.data % 64 for c in _columns(arrays) if c.size and c.ctypes.data % 64]


@pytest.mark.parametrize("dim", [1, 3, 5, 7, 16])
def test_columns_and_slots_start_on_64_bytes(dim):
    rows, buffers = rng.block_buffers(dim)
    assert buffers is rng._kept.buffers
    program = symbolic.trace((ntuple.d_i, ntuple.d_ii), dim)
    for points in (rows, rows - 5, 1):  # a full block and two tail blocks
        cols = rng.uniform_words(dim, 0, points * dim, dim, out=buffers)
        masks = buffers.run(program)
        assert not _misaligned([cols, masks, buffers.slots(program.slots)])


def test_sampler_draws_and_slots_start_on_64_bytes(monkeypatch):
    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append(fn(*args, **kwargs))
            return seen[-1]

        return wrapper

    monkeypatch.setattr(rng, "uniform_words", recording(rng.uniform_words))
    for name in ("slots", "run"):
        monkeypatch.setattr(rng.BlockBuffers, name, recording(getattr(rng.BlockBuffers, name)))
    for count in (1, 7, 1000, 20_000):  # short draws, then a full block and a tail
        triple.sample_ordered_cyclic(count, seed=count)
    assert len(_columns(seen)) > 20 and not _misaligned(seen)


def test_no_block_sized_temporaries():
    rows, _ = rng.block_buffers(3)
    spec = EstimatorSpec("p3", 10 * rows, seed=1)
    want = estimate(spec)  # traces the program, grows the buffers and binds it
    tracemalloc.start()
    try:
        got = estimate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want and peak < rows * 8


def test_program_runs_only_on_its_own_width():
    buffers = rng.BlockBuffers()
    rng.uniform_words(1, 0, 40, 4, out=buffers)
    with pytest.raises(ValueError):
        buffers.run(symbolic.trace((triple.cyclic,), 3))


def test_traced_column_refuses_other_operands():
    with pytest.raises(TypeError):
        symbolic.trace((lambda x: x < "0.5",), 1)
    with pytest.raises(TypeError):
        symbolic.trace((lambda x: 0.5,), 1)  # a mask that is not a column


def test_programs_are_traced_once_per_targets_and_width():
    symbolic.trace.cache_clear()
    p3 = mc.TARGETS["p3"][1]
    assert symbolic.trace((p3,), 3) is symbolic.trace((p3,), 3)
    assert symbolic.trace.cache_info().misses == 1


def test_importing_traces_nothing():
    # a fresh interpreter: importing the package leaves the program cache empty
    code = "import cyclictuples; from cyclictuples import symbolic; print(symbolic.trace.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_threads_bind_their_own_buffers():
    # two threads run the same program, each in the workspace it keeps
    program_masks = []

    def run():
        rows, buffers = rng.block_buffers(3)
        rng.uniform_words(3, 0, rows * 3, 3, out=buffers)
        ((mask,),) = buffers.run(symbolic.trace((triple.cyclic,), 3))
        program_masks.append(mask)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    a, b = program_masks
    assert np.array_equal(a, b) and not np.shares_memory(a, b)
