"""One exactness rule: every scalar verdict equals the verdict on the exact
values of the same coordinates, floats included, even on the boundaries
where float arithmetic alone rounds the wrong way."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclictuples import ntuple, triple
from cyclictuples.core import Status, as_tuple, complement, decide_exactly, exact, in_region, le
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
    return tuple(map(exact, t))


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
    x = float(1 - exact(y) * exact(z))
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
    assert 0.75 + b == 1.0 and exact(0.75) + exact(b) != 1
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
    assert exact(0.1) + exact(0.9) > 1


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
