"""Each region is one predicate: the same function decides scalars and
evaluates numpy columns, and the Monte Carlo estimates built on it are
pinned to fixed values."""

from fractions import Fraction

import numpy as np
import pytest

from cyclictuples import ntuple, triple
from cyclictuples.core import in_region
from cyclictuples.mc import EstimatorSpec, estimate
from cyclictuples.rng import uniform_words

TRIPLE_PREDICATES = [
    triple.trybula,
    triple.cyclic,
    triple.nontransitive,
    triple.c3_i,
    triple.c3_ii,
    triple.ordered_cyclic,
]
NTUPLE_PREDICATES = [
    ntuple.d_i,
    ntuple.d_ii,
    ntuple.d_star,
    ntuple.min_above_pi_n,
    ntuple.max_below_one_minus_pi_n,
]


def _rows(seed, dim):
    pts = uniform_words(seed, 0, 10_000 * dim, dim).T
    # a few exact boundary rows: sums equal to 1, ties, the cube's corners
    pts[:4] = [0.5] * dim, [0.0] * dim, [1.0] * dim, ([0.25, 0.75] * dim)[:dim]
    return pts


def _columns_match_rows(pred, pts):
    mask = pred(*pts.T)
    assert mask.dtype == np.bool_ and mask.shape == (len(pts),)
    scalar = [in_region(tuple(map(float, row)), pred) for row in pts]
    assert mask.tolist() == scalar


@pytest.mark.parametrize("pred", TRIPLE_PREDICATES, ids=lambda p: p.__name__)
def test_triple_columns_equal_rows(pred):
    pts = _rows(11, 3)
    _columns_match_rows(pred, pts)
    # sorted rows exercise the ordered region, which unsorted rows rarely hit
    _columns_match_rows(pred, np.sort(pts, axis=1))


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("pred", NTUPLE_PREDICATES, ids=lambda p: p.__name__)
def test_ntuple_columns_equal_rows(pred, n):
    pts = _rows(20 + n, n)
    if pred is ntuple.min_above_pi_n:
        pts = 0.5 + pts / 2  # put mass near pi_n so both answers occur
    elif pred is ntuple.max_below_one_minus_pi_n:
        pts = pts / 2
    _columns_match_rows(pred, pts)


def _q(*values):
    return [Fraction(v) for v in values]


# Test ids keep the paper's region names.
REGION_NAMES = {
    triple.cyclic: "C3",
    triple.nontransitive: "C3star",
    triple.c3_i: "C3_I",
    triple.c3_ii: "C3_II",
    triple.ordered_cyclic: "C3_ordered",
    ntuple.d_i: "D_I",
    ntuple.d_ii: "D_II",
    ntuple.d_star: "D_star",
}


def _region_id(value):
    return REGION_NAMES[value] if callable(value) else None


@pytest.mark.parametrize(
    "values, region, expect",
    [
        (_q("0.55", "0.6", "0.7"), triple.c3_i, True),
        (_q("0.7", "0.8", "0.9"), triple.c3_i, False),
        (_q("0.2", "0.6", "0.9"), triple.c3_ii, True),
        (_q("0.2", "0.9", "0.6"), triple.c3_ii, True),
        (_q("0.2", "0.9", "0.9"), triple.c3_ii, False),
        (_q("5/9", "5/9", "5/9"), triple.cyclic, True),
        (_q("5/9", "5/9", "5/9"), triple.nontransitive, True),
        (_q("1/2", "1/2", "1/2"), triple.nontransitive, False),
        (_q("0.7", "0.7", "0.7"), triple.cyclic, False),
        # x + yz == 1 exactly: the boundary is in (non-strict)
        (_q("1/2", "1/2", "1"), triple.ordered_cyclic, True),
        (_q("1/2", "1", "1/2"), triple.ordered_cyclic, False),
    ],
    ids=_region_id,
)
def test_fraction_regions(values, region, expect):
    assert in_region(values, region) is expect
    assert bool(region(*values)) is expect


@pytest.mark.parametrize(
    "values, tag, expect",
    [
        (_q("0.2", "0.3", "0.2", "0.3"), ntuple.d_i, True),
        (_q("0.8", "0.9", "0.8", "0.9"), ntuple.d_ii, True),
        (_q("1/2", "1/2", "1/2"), ntuple.d_i, False),
        (_q("1/2", "1/2", "1/2"), ntuple.d_ii, False),
        (_q("0.1", "0.3", "0.2", "0.3"), ntuple.d_star, True),
        (_q("0.3", "0.1", "0.2", "0.3"), ntuple.d_star, False),
        (_q("0.2", "0.2", "0.3", "0.3"), ntuple.d_star, True),
    ],
    ids=_region_id,
)
def test_fraction_dn(values, tag, expect):
    assert in_region(values, tag) is expect
    assert bool(tag(*values)) is expect


def test_omega_written_without_rounding():
    # x <= OMEGA as x*x + x <= 1 agrees with the rounded constant on floats
    xs = [triple.OMEGA]
    for step in (np.inf, -np.inf):
        x = triple.OMEGA
        for _ in range(1000):
            x = float(np.nextafter(x, step))
            xs.append(x)
    xs = np.array(xs)
    assert np.array_equal(xs * xs + xs <= 1, xs <= triple.OMEGA)


# mc.estimate at 10^5 samples and seed 20240810, recorded before the masks
# became calls of the shared predicates; pn_bracket is (lower, upper).
PINNED = {
    ("p3", None): 0.62701,
    ("p3_star", None): 0.01005,
    ("vol_C3_I", None): 0.00348,
    ("vol_C3_II", None): 0.10225,
    ("vol_C3_ordered", None): 0.10653,
    ("vol_Dn_star", 3): 0.08207,
    ("vol_Dn_star", 4): 0.04208,
    ("vol_Dn_star", 5): 0.02171,
    ("vol_Dn_star", 6): 0.01116,
    ("vol_Dn_star", 7): 0.00628,
    ("vol_Dn_star", 8): 0.00314,
    ("pn_bracket", 4): (0.66759, 0.97547),
    ("pn_bracket", 5): (0.79161, 0.9944),
    ("pn_bracket", 6): (0.86839, 0.99867),
    ("pn_bracket", 7): (0.91375, 0.99964),
    ("pn_bracket", 8): (0.94598, 0.99989),
}


@pytest.mark.parametrize("target, n", list(PINNED), ids=lambda v: str(v))
def test_estimates_pinned(target, n):
    result = estimate(EstimatorSpec(target, 100_000, 20240810, n=n))
    if isinstance(result, dict):
        got = (result["lower"].estimate, result["upper"].estimate)
    else:
        got = result.estimate
    assert got == PINNED[(target, n)]
