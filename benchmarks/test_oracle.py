"""Tests of the benchmark's oracle against published values and against
independent derivations.  Run with ``python3 -m pytest benchmarks``;
they sit outside the library's test paths.
"""

import math
from fractions import Fraction

import pytest

import oracle


def test_published_volumes():
    v = oracle.volumes()
    assert v["p3"] == pytest.approx(0.627575, abs=1e-6)
    assert v["p3_star"] == pytest.approx(0.011218, abs=1e-6)
    assert 6 * (oracle.VOL_I + oracle.VOL_II) == pytest.approx(oracle.P3, rel=1e-20)
    assert 3 * oracle.VOL_I == pytest.approx(oracle.P3_STAR, rel=1e-20)


def test_zigzag_numbers():
    assert [oracle.zigzag(n) for n in range(1, 11)] == [1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


def test_dn_star_volume_and_bounds():
    assert oracle.vol_dn_star(3) == Fraction(1, 12)  # A_2 / (6 * 2!)
    for n in range(4, 12):
        b = oracle.pn_bounds(n)
        assert b["lower"] <= b["sharper_lower"] <= b["upper"] < 1


def test_pi_n():
    assert float(oracle.pi_n(3)) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert float(oracle.pi_n(4)) == pytest.approx(2 / 3, abs=1e-15)
    assert not oracle.pi_n_excludes([Fraction(2, 3)] * 4)  # on the boundary, cyclic
    assert oracle.pi_n_excludes([Fraction(7, 10)] * 4)


def test_trybula():
    assert oracle.trybula_cyclic(Fraction(5, 9), Fraction(5, 9), Fraction(5, 9))
    assert oracle.trybula_cyclic(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert not oracle.trybula_cyclic(1, 1, 1)
    assert not oracle.trybula_cyclic(0, 0, 0)
    # the boundary triple that rounded floats get wrong: exact says no
    x, y, z = 0.12508164197173333, 0.999910712553391, 0.8749964842301354
    assert not oracle.trybula_cyclic(Fraction(x), Fraction(y), Fraction(z))
    assert x + y * z <= 1  # ...while the rounded float sum says yes


def test_cycle_probabilities_of_efron_dice():
    faces = [[0, 0, 4, 4, 4, 4], [1, 1, 1, 5, 5, 5], [2, 2, 2, 2, 6, 6], [3] * 6]
    dists = [[(f, Fraction(1, 6)) for f in d] for d in faces]
    assert oracle.cycle_probabilities(dists) == [Fraction(2, 3)] * 4


def test_f1_published_statistics():
    s = oracle.stats("f1")
    assert s["mean"] == pytest.approx(0.211, abs=1e-3)
    assert s["median"] == pytest.approx(0.197, abs=1e-3)
    assert s["mode"] == pytest.approx(0.107, abs=1e-3)


@pytest.mark.parametrize("which", ["f1", "f2", "f3"])
def test_densities_integrate_to_one(which):
    assert float(oracle.cdf(which, 1)) == pytest.approx(1.0, abs=1e-20)
    assert sum(oracle.bin_masses(which, 20)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("which", ["f1", "f2", "f3"])
@pytest.mark.parametrize("t", [0.05, 0.3, 0.45, 0.55, 0.6, 0.7, 0.9])
def test_closed_forms_match_slice_areas(which, t):
    assert float(oracle.DENSITIES[which](t)) == pytest.approx(
        oracle.slice_density(which, t), abs=1e-8)
