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

from cyclictuples import checks, core, mc, ntuple, symbolic, triple
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


# Fraction input takes the float pass too, each coordinate rounded once, so
# a comparison of two rounded coordinates, or of one with 1/2, is no longer
# exact: every one goes through le/lt.  Each case's coordinates round to
# values on which a raw comparison gives the wrong verdict.
TINY = Fraction(1, 2**70)
HALF, THREE_FIFTHS = Fraction(1, 2), Fraction(3, 5)
ROUNDED_TIES = [
    (triple.nontransitive, (HALF + TINY, THREE_FIFTHS, THREE_FIFTHS), True),
    (triple.nontransitive, (THREE_FIFTHS, HALF + TINY, THREE_FIFTHS), True),
    (triple.nontransitive, (THREE_FIFTHS, THREE_FIFTHS, HALF + TINY), True),
    (triple.c3_i, (HALF + TINY, THREE_FIFTHS, THREE_FIFTHS), True),
    (triple.c3_i, (THREE_FIFTHS + TINY, THREE_FIFTHS, THREE_FIFTHS), False),
    (triple.c3_i, (THREE_FIFTHS + TINY, THREE_FIFTHS, Fraction(13, 20)), False),
    (triple.c3_i, (THREE_FIFTHS + TINY, Fraction(13, 20), THREE_FIFTHS), False),
    (triple.c3_ii, (HALF - TINY, THREE_FIFTHS, THREE_FIFTHS), True),
    (triple.c3_ii, (Fraction(2, 5), HALF + TINY, THREE_FIFTHS), True),
    (triple.c3_ii, (Fraction(2, 5), Fraction(11, 20), HALF + TINY), True),
    (triple.ordered_cyclic, (HALF + TINY, HALF, THREE_FIFTHS), False),
    (triple.ordered_cyclic, (Fraction(2, 5), HALF + TINY, HALF), False),
    (ntuple.d_star, (Fraction(1, 5) + TINY, Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)), False),
]


@pytest.mark.parametrize(
    "pred, values, expect", ROUNDED_TIES, ids=[f"{p.__name__}-{i}" for i, (p, _, _) in enumerate(ROUNDED_TIES)]
)
def test_rounded_coordinate_ties_keep_the_exact_verdict(pred, values, expect):
    assert bool(pred(*values)) is expect  # on Fractions the predicate is exact
    assert in_region(values, pred) is expect
    if pred is triple.nontransitive:
        assert triple.is_nontransitive_triple(values) is expect


@st.composite
def near_threshold_tuples(draw):
    """An n-tuple, 3 <= n <= 6, of Fractions and floats, with one Fraction
    coordinate within 2**-70 of a value at which some predicate's comparison
    is a tie: 1/2, another coordinate y, 1 - y, 1 - yz, (1 - y)(1 - z),
    1/(1 + y) (where xy = 1 - x), the float OMEGA, or either pi_n threshold."""
    n = draw(st.integers(3, 6))
    xs = [draw(st.one_of(fractions, unit)) for _ in range(n)]
    i = draw(st.integers(0, n - 1))
    y, z = Fraction(xs[(i + draw(st.integers(1, n - 1))) % n]), Fraction(xs[(i + 1) % n])
    t = Fraction(ntuple._pi_n_upper(n))
    tie = draw(st.sampled_from(
        [Fraction(1, 2), y, 1 - y, 1 - y * z, (1 - y) * (1 - z), 1 / (1 + y), Fraction(triple.OMEGA), t, 1 - t]
    ))
    xs[i] = min(Fraction(1), max(Fraction(0), tie + draw(st.sampled_from([-TINY, 0, TINY]))))
    return tuple(xs)


@settings(max_examples=300, deadline=None)
@given(near_threshold_tuples())
def test_verdicts_near_thresholds_equal_the_direct_fraction_evaluation(t):
    # each predicate called directly on Fractions compares exactly
    e = _exact_values(t)
    if len(t) == 3:
        assert is_cyclic_triple(t) == triple._trybula_verdict(*e) == decide_ntuple(t)
        assert triple.is_nontransitive_triple(t) is bool(triple.nontransitive(*e))
        for pred in TRIPLE_PREDICATES:
            assert in_region(t, pred) is bool(pred(*e)), pred.__name__
    else:
        assert CODES[decide_ntuple(t, with_witness=False).status] == ntuple.status_code(*e)
        assert decide_ntuple(t).status is decide_ntuple(t, with_witness=False).status
    for pred in NTUPLE_PREDICATES:
        assert in_region(t, pred) is bool(pred(*e)), pred.__name__


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


def test_exact_pass_sees_the_original_values():
    # the float pass rounds 1/3 and 2/3, whose float sum is exactly 1; the
    # exact pass gets the Fractions given, not the Fractions of the floats
    seen = []

    def sum_at_most_one(a, b):
        seen.append((a, b))
        return le(a + b, 1)

    assert decide_exactly(sum_at_most_one, (Fraction(1, 3), Fraction(2, 3))) is True
    assert [type(a) for a, _ in seen] == [float, Fraction]
    assert seen[1] == (Fraction(1, 3), Fraction(2, 3))


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
    # A caller may run the same predicates on threads of its own, so the
    # near mask is per call: concurrent calls on threads, switching often,
    # each get their own rows' verdicts, and a thread outside any call sees
    # no mask.
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


# The proof of core._FLOAT_BAND assumes that every comparison is made by
# le/lt, and that each of its sides is a constant or a sum of at most two
# terms, each term a factor (a coordinate x or its complement 1 - x) or a
# product of two factors, with every intermediate value in [0, 2].  Walk
# each predicate's traced program forward, keeping for each view its shape
# and an interval that holds its value: a shape is a tuple of terms, a term
# a tuple of factors (j, c) for x_j, or 1 - x_j when c is True; a constant
# has the shape ().  Step k of a program computes node inputs + k.

_COMPARISONS = (np.less, np.less_equal, np.greater, np.greater_equal)


def _operand(views, a):
    """(shape, lo, hi) of the view a, or of a constant in a 1-tuple."""
    if type(a) is not int:
        return (), float(a[0]), float(a[0])
    assert views[a] is not None, "a mask read as a number"
    return views[a]


def _arithmetic(ufunc, a, b):
    """(shape, lo, hi) of ufunc on operands a and b; the shape is None once
    the value is not a sum of at most 2 products of at most 2 factors."""
    (s, lo, hi), (t, olo, ohi) = a, b
    if ufunc is np.add:
        return (s + t if s and t and len(s + t) <= 2 else None), lo + olo, hi + ohi
    if ufunc is np.subtract:
        # 1 - x complements a factor; 1 - fl(1 - x) is x, exactly (Sterbenz)
        single = s == () and lo == 1 and t and len(t) == len(t[0]) == 1
        return ((((t[0][0][0], not t[0][0][1]),),) if single else None), lo - ohi, hi - olo
    assert ufunc is np.multiply, f"{ufunc.__name__} is outside the band proof"
    ends = [lo * olo, lo * ohi, hi * olo, hi * ohi]
    single = s and t and len(s) == len(t) == 1 and len(s[0] + t[0]) <= 2
    return ((s[0] + t[0],) if single else None), min(ends), max(ends)


def _walk(program, compared):
    """Check every step of ``program`` against the band proof; ``compared``
    holds the nodes that le/lt returned.  A mask's view holds None."""
    views = [((((j, False),),), 0.0, 1.0) for j in range(program.inputs)] + [None] * len(program.slots)
    for k, (ufunc, args, out) in enumerate(program.steps):
        if ufunc in (np.bitwise_and, np.bitwise_or):
            # seeded joins: a column never meets a Python bool
            assert all(type(a) is int and views[a] is None for a in args), f"step {k} joins a constant"
            views[out] = None
            continue
        a, b = (_operand(views, a) for a in args)
        if ufunc in _COMPARISONS:
            # the float pass rounds every coordinate, so even a comparison of
            # two coordinates is exact only through le/lt
            assert program.inputs + k in compared, f"step {k} compares outside le/lt"
            assert a[0] is not None and b[0] is not None, f"step {k}: le/lt compares a side outside the band proof"
            views[out] = None
        else:
            views[out] = _arithmetic(ufunc, a, b)
            _, lo, hi = views[out]
            assert 0 <= lo <= hi <= 2, f"step {k}: an intermediate value in [{lo}, {hi}] leaves [0, 2]"
    # output slots are never reused, so each mask's view is still its step's
    assert all(views[i] is None for masks in program.outputs for i in masks), "a mask is not a comparison or join"


def _collecting(compare, nodes):
    """``compare`` that adds the node of each column it returns to ``nodes``."""

    def collected(a, b):
        mask = compare(a, b)
        nodes.add(mask.node)
        return mask

    return collected


BAND_CASES = (
    [
        (f"mc.{name}", fn, n)
        for name, (low, fn) in mc.TARGETS.items()
        for n in ([3] if low is None else range(low, 9))
    ]
    + [("complemented triple.cyclic", checks._complemented(triple.cyclic), 3)]
    + [("complemented certificates", checks._complemented(ntuple.certificates), n) for n in range(4, 9)]
    + [("triple.trybula", triple.trybula, 3)]
    + [(f"ntuple.{fn.__name__}", fn, n) for fn in (ntuple.d_i, ntuple.d_ii) for n in range(3, 9)]
)


@pytest.mark.parametrize("name, fn, n", BAND_CASES, ids=[f"{name}-{n}" for name, _, n in BAND_CASES])
def test_compared_sides_have_the_band_proofs_shape(monkeypatch, name, fn, n):
    compared = set()
    for module in (triple, ntuple):  # each imports le and lt by name
        for compare in ("le", "lt"):
            monkeypatch.setattr(module, compare, _collecting(getattr(module, compare), compared))
    program = symbolic.trace.__wrapped__((fn,), n)
    assert compared
    _walk(program, compared)


def test_truth_test_on_a_traced_value_raises():
    # the walk above sees every comparison only if no predicate branches:
    # a truth test on any traced column raises, an input, a sum, a
    # complement, a product, a comparison through le and without, a join
    columns = (
        lambda x, y: x,
        lambda x, y: x + y,
        lambda x, y: 1 - x,
        lambda x, y: x * y,
        lambda x, y: triple.le(x, 1),
        lambda x, y: x <= y,
        lambda x, y: (x < y) | (y < x),
    )
    for column in columns:
        with pytest.raises(TypeError, match="no truth value"):
            symbolic.trace((lambda x, y: x if column(x, y) else y,), 2)
