"""One exactness rule: every scalar verdict equals the verdict on the exact
values of the same coordinates, floats included, even on the boundaries
where float arithmetic alone rounds the wrong way."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclictuples import checks, core, ntuple, triple
from cyclictuples.core import Status, as_tuple, complement, decide_columns, decide_exactly, in_region, le
from cyclictuples.ntuple import decide_ntuple
from cyclictuples.triple import is_cyclic_triple

TRIPLE_PREDICATES = [
    triple.cyclic,
    triple.nontransitive,
    triple.c3_i,
    triple.c3_ii,
    triple.ordered_cyclic,
]
NTUPLE_PREDICATES = [ntuple.d_i, ntuple.d_ii, ntuple.d_star]

unit = st.floats(min_value=0.0, max_value=1.0)
fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


def _exact_values(t):
    return tuple(map(Fraction, t))


@st.composite
def boundary_triples(draw):
    """A float triple on one of Trybula's boundaries, permuted: x = fl(1 - yz)
    (first inequality) or x = fl((1-y)(1-z)) (the complement form)."""
    y, z = draw(unit), draw(unit)
    x = 1.0 - y * z if draw(st.booleans()) else (1.0 - y) * (1.0 - z)
    return tuple(draw(st.permutations([x, y, z])))


@st.composite
def mixed_triples(draw):
    """A triple of floats and Fractions near the first boundary: y or z may
    be a Fraction, and x is the float nearest 1 - yz, or an exact value."""
    y = draw(st.one_of(unit, fractions))
    z = draw(st.one_of(unit, fractions))
    x = float(1 - Fraction(y) * Fraction(z))
    if draw(st.booleans()):
        x = Fraction(x)
    return tuple(draw(st.permutations([x, y, z])))


@st.composite
def near_one_sum_tuples(draw):
    """An n-tuple, 4 <= n <= 8, whose sums s_i and s_{i+2} are forced to
    1 - ulp, 1 or 1 + ulp in float arithmetic."""
    n = draw(st.integers(4, 8))
    xs = [draw(unit) for _ in range(n)]
    i = draw(st.integers(0, n - 1))
    for j in (i, i + 2):
        b = 1.0 - xs[j % n]
        step = draw(st.sampled_from([-math.inf, None, math.inf]))
        if step is not None:
            b = math.nextafter(b, step)
        xs[(j + 1) % n] = min(1.0, max(0.0, b))
    return tuple(xs)


@settings(max_examples=400, deadline=None)
@given(st.one_of(boundary_triples(), mixed_triples()))
def test_triple_verdicts_are_exact(t):
    e = _exact_values(t)
    assert is_cyclic_triple(t) == is_cyclic_triple(e)
    assert triple.is_nontransitive_triple(t) == triple.is_nontransitive_triple(e)
    assert decide_ntuple(t) == decide_ntuple(e)
    for pred in TRIPLE_PREDICATES:
        assert in_region(t, pred) == in_region(e, pred), pred.__name__


@settings(max_examples=400, deadline=None)
@given(near_one_sum_tuples())
def test_ntuple_verdicts_are_exact(t):
    e = _exact_values(t)
    assert decide_ntuple(t) == decide_ntuple(e)
    for pred in NTUPLE_PREDICATES:
        assert in_region(t, pred) == in_region(e, pred), pred.__name__


# Cyclic in float arithmetic, NotCyclic for the values the floats store
ROADMAP_TRIPLE = (0.12508164197173333, 0.999910712553391, 0.8749964842301354)


def test_roadmap_boundary_example_is_not_cyclic():
    t = ROADMAP_TRIPLE
    assert is_cyclic_triple(t).status is Status.NOT_CYCLIC
    assert is_cyclic_triple(_exact_values(t)).status is Status.NOT_CYCLIC


def test_numpy_float64_triple_is_decided_exactly():
    # np.float64 is a float: its sums and products get the same near-tie band
    for t in (np.array(ROADMAP_TRIPLE), tuple(map(np.float64, ROADMAP_TRIPLE))):
        assert is_cyclic_triple(t).status is Status.NOT_CYCLIC
        assert decide_ntuple(t).status is Status.NOT_CYCLIC


@pytest.mark.parametrize("direction", [-1.0, 2.0])
def test_numpy_float64_sum_next_to_one_is_decided_exactly(direction):
    # 0.75 + b rounds to 1.0, but the stored values sum to just below or
    # just above 1, so every adjacent sum is < 1 (D_I) or every one is > 1
    # (D_II): the exact verdict is Unknown, where floats alone say Cyclic
    b = math.nextafter(0.25, direction)
    assert 0.75 + b == 1.0 and Fraction(0.75) + Fraction(b) != 1
    values = (0.75, b, 0.75, b)
    assert decide_ntuple(_exact_values(values)).status is Status.UNKNOWN
    for t in (np.array(values), tuple(map(np.float64, values))):
        assert decide_ntuple(t).status is Status.UNKNOWN
        assert decide_ntuple(t, with_witness=False).status is Status.UNKNOWN
        assert in_region(t, ntuple.d_i) is (direction < 1) and in_region(t, ntuple.d_ii) is (direction > 1)


def test_near_tie_decided_on_exact_values():
    # fl(0.1 + 0.9) == 1, but the stored values sum to more than 1
    def sum_at_most_one(a, b):
        return le(a + b, 1)

    assert sum_at_most_one(Fraction(1, 10), Fraction(9, 10))
    assert not decide_exactly(sum_at_most_one, (0.1, 0.9))
    assert Fraction(0.1) + Fraction(0.9) > 1


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.lists(unit, min_size=3, max_size=8), boundary_triples(), near_one_sum_tuples()))
def test_complement_keeps_verdict(values):
    # complement preserves cyclicity, so the exact complement keeps every
    # verdict, and complementing twice gives the stored values back
    t = as_tuple(values)
    c = complement(t)
    assert complement(c).values == t.values
    assert decide_ntuple(c, with_witness=False).status is decide_ntuple(t, with_witness=False).status
    if t.n == 3:
        assert is_cyclic_triple(c).status is is_cyclic_triple(t).status


def test_complement_of_tiny_coordinate_is_exact():
    # fl(1 - 1e-20) == 1.0: the rounded complement (1.0, 0.0, 0.0) is cyclic
    t = as_tuple((1e-20, 1.0, 1.0))
    c = complement(t)
    assert c.values == (1 - Fraction(1e-20), 0.0, 0.0)
    assert is_cyclic_triple(t).status is Status.NOT_CYCLIC
    assert is_cyclic_triple(c).status is Status.NOT_CYCLIC
    assert decide_ntuple(c).status is Status.NOT_CYCLIC
    # an exact float complement stays a float
    assert complement(as_tuple((0.25, 0.5, 0.75))).values == (0.75, 0.5, 0.25)


# Column verdicts under decide_columns, row by row against the scalar ones,
# on columns built so that float masks alone get some rows wrong.
CODES = {Status.CYCLIC: 1, Status.NOT_CYCLIC: -1, Status.UNKNOWN: 0}


def _decide_columns(pred, values, complemented):
    """decide_columns on the columns of ``values`` (one tuple per row), or of
    its complement through ``checks._complemented``, beside the float masks."""
    fn = checks._complemented(pred) if complemented else pred
    cols = np.ascontiguousarray(values.T)
    return decide_columns(fn, cols), fn(*cols)


def _scalar_tuples(values, complemented):
    tuples = [as_tuple(row) for row in values.tolist()]
    return [complement(t) for t in tuples] if complemented else tuples


def _boundary_rows(count, seed):
    """x = fl(1 - y*z) in the first half of the rows, fl((1-y)(1-z)) in the
    second, x put in each of the three places in turn."""
    gen = np.random.default_rng(seed)
    y, z = gen.random((2, count))
    x = np.where(np.arange(count) < count // 2, 1.0 - y * z, (1.0 - y) * (1.0 - z))
    rows = np.stack([x, y, z], axis=1)
    for place in (1, 2):
        rows[place::3, [0, place]] = rows[place::3, [place, 0]]
    return rows


def _near_tie_ntuples(n, count, seed):
    """n-tuples, a third each: with sums s_i, s_(i+1) and s_(i+2) one float
    step below 1, at 1 or one step above in float arithmetic; with
    coordinates up to three float steps from _pi_n_upper(n); or from
    1 - _pi_n_upper(n)."""
    gen = np.random.default_rng(seed)
    rows = gen.random((count, n))
    third = np.arange(count // 3)
    i = gen.integers(0, n, size=len(third))
    for j in (i, (i + 1) % n, (i + 2) % n):
        b = 1.0 - rows[third, j]
        rows[third, (j + 1) % n] = np.clip(np.nextafter(b, b + gen.integers(-1, 2, size=len(b))), 0.0, 1.0)
    t = ntuple._pi_n_upper(n)
    for center, part in ((t, slice(len(third), 2 * len(third))), (1.0 - t, slice(2 * len(third), count))):
        steps = gen.integers(-3, 4, size=rows[part].shape)
        rows[part] = center + steps * np.spacing(center)
    return rows


@pytest.mark.parametrize("complemented", [False, True], ids=["columns", "complement"])
def test_columns_decide_boundary_triples_exactly(complemented):
    values = _boundary_rows(3000, 5)
    exact_mask, float_mask = _decide_columns(triple.cyclic, values, complemented)
    scalar = [is_cyclic_triple(t).status is Status.CYCLIC for t in _scalar_tuples(values, complemented)]
    assert exact_mask.tolist() == scalar
    assert float_mask.tolist() != scalar  # the float masks alone get some rows wrong


@pytest.mark.parametrize("complemented", [False, True], ids=["columns", "complement"])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_columns_decide_near_tie_ntuples_exactly(n, complemented):
    values = _near_tie_ntuples(n, 900, n)
    exact_codes, float_codes = _decide_columns(ntuple.status_code, values, complemented)
    scalar = [CODES[decide_ntuple(t, with_witness=False).status] for t in _scalar_tuples(values, complemented)]
    assert exact_codes.tolist() == scalar
    assert float_codes.tolist() != scalar


def test_near_mask_belongs_to_its_call():
    # mc evaluates the same predicates on worker threads, so the near mask
    # is per call: concurrent calls on threads, switching often, each get
    # their own rows' verdicts, and a thread outside any call sees no mask.
    values = [_boundary_rows(count, count) for count in (300, 301, 302, 303)]
    alone = [_decide_columns(triple.cyclic, v, False)[0].tolist() for v in values]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_decide_columns, triple.cyclic, v, False) for v in values * 3]
            outside = pool.submit(lambda: core._near_rows.get()).result(timeout=60)
            got = [f.result(timeout=60)[0].tolist() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == alone * 3 and outside is None
