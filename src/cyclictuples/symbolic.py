"""Masks as traced programs: straight-line ufunc calls that compute the
masks of region predicates, recorded by running the predicates once.

``trace(fns, n)`` runs each predicate of ``fns`` on n ``SymbolicColumn``s.
Each operator the predicates use records the ufunc call numpy would make
for it, so the ``Program`` it returns computes every mask bit for bit as
the predicate does on float columns, and no region is written here.  A
program runs with out= into slots of a workspace that
``rng.BlockBuffers.run`` keeps, so a block of ``mc`` or of the sampler
allocates no array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def _record(ufunc, reflected=False):
    """The operator of ``SymbolicColumn`` that records ``ufunc``."""
    if reflected:
        return lambda self, other: self._tracer.record(ufunc, (other, self))
    return lambda self, other: self._tracer.record(ufunc, (self, other))


class SymbolicColumn:
    """A column that a region predicate computes while ``trace`` runs it:
    each operator the predicates use (+ - * & | and the comparisons)
    records the ufunc that numpy would call for it and returns the column
    it computes.  ``__array_ufunc__ = None`` hands the operators of a 0-d
    array constant (``core.constant``) to the column.  A truth test raises
    TypeError: a predicate that branches on its data has no straight-line
    program."""

    __array_ufunc__ = None
    __slots__ = ("_tracer", "node")

    def __init__(self, tracer: _Tracer, node: int) -> None:
        self._tracer, self.node = tracer, node

    __add__, __radd__ = _record(np.add), _record(np.add, reflected=True)
    __sub__, __rsub__ = _record(np.subtract), _record(np.subtract, reflected=True)
    __mul__, __rmul__ = _record(np.multiply), _record(np.multiply, reflected=True)
    __and__, __rand__ = _record(np.bitwise_and), _record(np.bitwise_and, reflected=True)
    __or__, __ror__ = _record(np.bitwise_or), _record(np.bitwise_or, reflected=True)
    # ``1 < s`` reaches ``s.__gt__(1)``, as it reaches ndarray.__gt__
    __lt__, __le__ = _record(np.less), _record(np.less_equal)
    __gt__, __ge__ = _record(np.greater), _record(np.greater_equal)

    def __bool__(self):
        raise TypeError("a traced column has no truth value: the predicate branches on its data")


def _constant_key(value):
    """A constant operand as a dict key: a Python int, float or bool, or a
    0-d array, with its type, so that 1 and 1.0 stay apart."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return (np.ndarray, value.dtype.str, value.item())
    if type(value) in (bool, int, float):
        return (type(value), value)
    raise TypeError(f"a traced column cannot meet {type(value).__name__}")


class _Tracer:
    """The ufunc calls recorded on the columns of one ``trace``: node j < n
    is input column j, node n + k the column step k computes.  A call of
    the same ufunc on the same operands is recorded once."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.steps: list[tuple] = []  # (ufunc, operands): a node, or a constant in a 1-tuple
        self._nodes: dict[tuple, int] = {}  # node numbers, not columns: no reference cycle
        # one element of each node's dtype, to learn what numpy gives each call
        self.probes = [np.zeros(1)] * n

    def record(self, ufunc, operands) -> SymbolicColumn:
        key = (ufunc,) + tuple(
            a.node if isinstance(a, SymbolicColumn) else _constant_key(a) for a in operands
        )
        node = self._nodes.get(key)
        if node is None:
            args = tuple(a.node if isinstance(a, SymbolicColumn) else (a,) for a in operands)
            self.probes.append(ufunc(*[self.probes[a] if type(a) is int else a[0] for a in args]))
            node = self._nodes[key] = self.n + len(self.steps)
            self.steps.append((ufunc, args))
        return SymbolicColumn(self, node)


@dataclass(frozen=True, eq=False)
class Program:
    """Straight-line ufunc calls that compute the masks of some predicates
    from ``inputs`` float columns, with out= into ``slots``.

    A view index i < inputs is input column i, and ``inputs + k`` is slot
    k, a column of dtype ``slots[k]``.  Each step is (ufunc, operands, out):
    an operand is a view index or a constant in a 1-tuple, ``out`` a slot's
    view index.  ``outputs`` holds one tuple of view indices per traced
    predicate, its masks.  Programs compare by identity."""

    inputs: int
    steps: tuple
    slots: tuple
    outputs: tuple

    def bind(self, cols, slots) -> tuple[tuple, tuple]:
        """(calls, masks) on the input columns ``cols`` and the slot columns
        ``slots``: each call is (ufunc, arguments with out last), and masks
        holds each predicate's output columns."""
        views = [*cols, *slots]
        calls = tuple(
            (ufunc, tuple(views[a] if type(a) is int else a[0] for a in args) + (views[out],))
            for ufunc, args, out in self.steps
        )
        return calls, tuple(tuple(views[i] for i in masks) for masks in self.outputs)


# Programs kept: the estimate benchmark's 16 (target, dim) keys, with room.
# A program holds about 220 bytes a step: 2.0 MB for pn_bracket at n = 1024.
@functools.lru_cache(maxsize=32)
def trace(fns: tuple, n: int) -> Program:
    """One program that computes the masks of every predicate in ``fns`` on
    n columns, traced by running each on n ``SymbolicColumn``s.  A predicate
    returns one mask or a tuple of them.

    A step is computed once however many predicates share it.  A slot is
    reused once the column it holds has had its last read, and a step may
    write over an operand that it reads for the last time (an exact
    overlap, which numpy computes in place).  Each call and its operands are the ones the operators pass to
    numpy, so every mask is bit for bit the one the predicate computes on
    float columns.  Programs are traced at first use and kept: a predicate
    patched afterwards, or a module value it reads, reaches a program only
    after ``trace.cache_clear()``."""
    tracer = _Tracer(n)
    cols = [SymbolicColumn(tracer, j) for j in range(n)]
    outputs = []
    for fn in fns:
        masks = fn(*cols)
        masks = masks if isinstance(masks, tuple) else (masks,)
        if not all(isinstance(m, SymbolicColumn) for m in masks):
            raise TypeError(f"{fn.__name__} gives a mask that is not a column of its inputs")
        outputs.append(tuple(m.node for m in masks))
    last = {}  # node -> the step of its last read
    for k, (_, args) in enumerate(tracer.steps):
        last.update((a, k) for a in args if type(a) is int)
    last.update((node, len(tracer.steps)) for masks in outputs for node in masks)
    view = list(range(n))  # node -> its view index
    slots: list[np.dtype] = []
    free: dict[np.dtype, list[int]] = {}
    steps = []
    for k, (ufunc, args) in enumerate(tracer.steps):
        for a in {a for a in args if type(a) is int and a >= n and last[a] == k}:
            free.setdefault(tracer.probes[a].dtype, []).append(view[a] - n)
        dtype = tracer.probes[n + k].dtype
        pool = free.setdefault(dtype, [])
        if pool:
            slot = min(pool)
            pool.remove(slot)
        else:
            slot = len(slots)
            slots.append(dtype)
        view.append(n + slot)
        steps.append((ufunc, tuple(view[a] if type(a) is int else a for a in args), n + slot))
    return Program(n, tuple(steps), tuple(slots), tuple(tuple(view[m] for m in ms) for ms in outputs))
