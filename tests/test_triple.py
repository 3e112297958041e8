import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats as scistats

from cyclictuples import rng, triple
from cyclictuples.core import (
    InvalidTupleError,
    ProbTuple,
    Reason,
    Status,
    complement,
    in_region,
)
from cyclictuples.rng import uniform_words
from cyclictuples.triple import (
    F1_BREAKPOINTS,
    OMEGA,
    ONE_MINUS_OMEGA,
    P3,
    P3_STAR,
    VOL_C3_I,
    VOL_C3_II,
    c3_i,
    c3_ii,
    density,
    density_stats,
    exact_volumes,
    integrate_density,
    is_cyclic_triple,
    is_nontransitive_triple,
    nontransitive,
    ordered_cyclic,
    sample_ordered_cyclic,
    unrestricted_min_stats,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestDecision:
    def test_published_examples(self):
        assert is_cyclic_triple([Fraction(5, 9)] * 3).status is Status.CYCLIC
        assert is_cyclic_triple([0.5, 0.5, 0.5]).status is Status.CYCLIC
        v = is_cyclic_triple([1, 1, 1])
        assert v.status is Status.NOT_CYCLIC and v.reason is Reason.TRYBULA_INEQ1_FAILS
        # min inequality value is 0.7 + 0.49 = 1.19 > 1
        assert is_cyclic_triple([0.7, 0.7, 0.7]).status is Status.NOT_CYCLIC

    def test_second_inequality_fires(self):
        v = is_cyclic_triple([0.3, 0.3, 0.3])  # complement of the 0.7 case
        assert v.status is Status.NOT_CYCLIC and v.reason is Reason.TRYBULA_INEQ2_FAILS

    def test_never_unknown_and_no_witness(self):
        for _ in range(100):
            t = tuple(np.random.default_rng(0).random(3))
            v = is_cyclic_triple(t)
            assert v.status is not Status.UNKNOWN and v.witness is None

    def test_exact_boundary_is_cyclic(self):
        # x + yz == 1 exactly; non-strict convention keeps it cyclic
        t = (Fraction(1, 2), Fraction(1, 2), Fraction(1))
        assert is_cyclic_triple(t).status is Status.CYCLIC

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidTupleError):
            is_cyclic_triple([0.5, 0.5, 0.5, 0.5])

    def test_nontransitive_examples(self):
        assert is_nontransitive_triple([Fraction(5, 9)] * 3)
        assert not is_nontransitive_triple([0.5, 0.5, 0.5])  # strict threshold
        assert not is_nontransitive_triple([0.4, 0.9, 0.9])

    def test_equivalence_with_simplified_ordered_test(self):
        # on sorted triples the decision reduces to x+yz<=1 and (1-z)+(1-x)(1-y)<=1
        pts = np.sort(uniform_words(314, 0, 1_000_000 * 3, 3).T, axis=1)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        simplified = (x + y * z <= 1) & ((1 - z) + (1 - x) * (1 - y) <= 1)
        full = ordered_cyclic(*pts.T)
        assert np.array_equal(simplified, full)
        for row, expect in zip(pts[:500], simplified[:500]):
            assert (is_cyclic_triple(tuple(row)).status is Status.CYCLIC) == expect

    @given(probs, probs, probs)
    def test_permutation_and_complement_invariance(self, x, y, z):
        base = is_cyclic_triple([x, y, z]).status
        for p in ([x, z, y], [y, x, z], [y, z, x], [z, x, y], [z, y, x]):
            assert is_cyclic_triple(p).status is base
        # complement the exact values: fl(1 - x) can round to another tuple
        exact_t = ProbTuple(tuple(map(Fraction, (x, y, z))))
        assert is_cyclic_triple(complement(exact_t)).status is base


class TestRegions:
    def test_characterization_examples(self):
        assert in_region([0.55, 0.6, 0.7], c3_i)
        assert not in_region([0.7, 0.8, 0.9], c3_i)  # 0.7 > omega
        assert in_region([0.2, 0.6, 0.9], c3_ii)
        assert in_region([0.2, 0.9, 0.6], c3_ii)  # second branch
        assert not in_region([0.2, 0.9, 0.9], c3_ii)  # yz > 1-x

    def test_c3_and_star_delegate(self):
        assert in_region([Fraction(5, 9)] * 3, triple.cyclic)
        assert in_region([Fraction(5, 9)] * 3, nontransitive)
        assert not in_region([0.5, 0.5, 0.5], nontransitive)

    def test_region_definitions_match_decision(self):
        pts = uniform_words(55, 0, 20_000 * 3, 3).T
        for row in pts:
            x, y, z = map(float, row)
            cyclic = is_cyclic_triple((x, y, z)).status is Status.CYCLIC
            assert in_region((x, y, z), c3_i) == (
                cyclic and 0.5 < x and x <= y and x <= z
            )
            assert in_region((x, y, z), c3_ii) == (
                cyclic and x < 0.5 and y > 0.5 and z > 0.5
            )
            assert in_region((x, y, z), ordered_cyclic) == (
                cyclic and x <= y <= z
            )

    def test_ordered_characterizations_agree(self):
        # smallest-variable form (implementation) vs middle-variable form
        def middle_form(x, y, z):
            if not (0 <= y <= 1 and 0 <= x <= min(y, 1 - y * y)):
                return False
            lo = max(y, (1 - x) * (1 - y))
            hi = 1.0 if y == 0 else min(1.0, (1 - x) / y)
            return lo <= z <= hi

        pts = np.sort(uniform_words(77, 0, 50_000 * 3, 3).T, axis=1)
        for row in pts:
            x, y, z = map(float, row)
            assert in_region((x, y, z), ordered_cyclic) == middle_form(x, y, z)


class TestExactVolumes:
    def test_published_values(self):
        v = exact_volumes()
        assert abs(v["p3"] - 0.6275748) <= 1e-6
        assert abs(v["p3_star"] - 0.0112175) <= 1e-6
        assert v["vol_II"] == pytest.approx(3 / 16 - math.log(2) / 8, abs=0)

    def test_splitup_identities(self):
        v = exact_volumes()
        assert abs(3 * v["vol_I"] - v["p3_star"]) / v["p3_star"] <= 1e-14
        assert abs(6 * (v["vol_I"] + v["vol_II"]) - v["p3"]) / v["p3"] <= 1e-14

    def test_golden_constant(self):
        w = OMEGA
        assert abs(w * w + w - 1.0) <= 4 * math.ulp(1.0)
        assert 1.0 - OMEGA == pytest.approx(ONE_MINUS_OMEGA, abs=1e-15)


class TestDensities:
    def test_point_values(self):
        assert density("f1", 0.9) == 0.0  # outside the support
        assert density("f1", 0.0) == pytest.approx(1.5 / P3, abs=1e-15)
        assert density("f2", 0.5) == pytest.approx(1.5 / P3, abs=1e-15)
        assert density("f3", 1.0) == density("f1", 0.0)

    def test_domain_checked(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                density("f1", bad)
        with pytest.raises(ValueError):
            density("f4", 0.5)

    def test_continuous_at_breakpoints(self):
        for which in ("f1", "f2", "f3"):
            for b in F1_BREAKPOINTS:
                left = density(which, b)
                right = density(which, min(b + 1e-12, 1.0))
                assert abs(left - right) < 1e-10

    def test_normalization_vs_scipy(self):
        splits = {
            "f1": [0.0, ONE_MINUS_OMEGA, 0.5, OMEGA],
            "f2": [0.0, ONE_MINUS_OMEGA, 0.5, 1 - ONE_MINUS_OMEGA, 1.0],
            "f3": [1 - OMEGA, 0.5, 1 - ONE_MINUS_OMEGA, 1.0],
        }
        for which, pts in splits.items():
            ref = sum(
                integrate.quad(lambda u: density(which, u), a, b, epsabs=1e-13)[0]
                for a, b in zip(pts[:-1], pts[1:])
            )
            ours = integrate_density(which)
            assert abs(ref - 1.0) < 1e-10
            assert abs(ours - 1.0) < 1e-8

    def test_f2_symmetric(self):
        for x in np.linspace(0.0, 1.0, 257):
            assert abs(density("f2", float(x)) - density("f2", float(1 - x))) <= 1e-12

    def test_f1_support_endpoint(self):
        assert density("f1", OMEGA) == pytest.approx(0.0, abs=1e-14)
        assert density("f1", math.nextafter(OMEGA, 1.0)) == 0.0

    def test_integral_refuses_nan(self):
        for which in ("f1", "f2", "f3"):
            with pytest.raises(ValueError):
                integrate_density(which, float("nan"))

    def test_nontransitive_mass_identity(self):
        mass = integrate_density("f1") - integrate_density("f1", 0.5)
        assert abs(mass - P3_STAR / P3) < 1e-8

    # (upper, integrate_density(which, upper)) at every breakpoint, at 0
    # and 1, below and above the support and at +-inf, and the full mass
    # and density_stats; each value is pinned bit for bit
    PINNED_INTEGRALS = {
        "f1": [
            (-math.inf, 0.0),
            (-0.5, 0.0),
            (-0.1, 0.0),
            (0.0, 0.0),
            (0.25, 0.622800274652564),
            (ONE_MINUS_OMEGA, 0.8711121279241681),
            (0.5, 0.9821254849946083),
            (OMEGA, 0.9999999999999991),
            (0.7, 0.9999999999999991),
            (1.0, 0.9999999999999991),
            (1.5, 0.9999999999999991),
            (math.inf, 0.9999999999999991),
        ],
        "f2": [
            (-math.inf, 0.0),
            (-0.5, 0.0),
            (-0.1, 0.0),
            (0.0, 0.0),
            (0.25, 0.0700240228596034),
            (ONE_MINUS_OMEGA, 0.2409586738968612),
            (0.5, 0.5000000000000001),
            (OMEGA, 0.759041326103139),
            (0.7, 0.8806118419852907),
            (1.0, 1.0000000000000002),
            (1.5, 1.0000000000000002),
            (math.inf, 1.0000000000000002),
        ],
        "f3": [
            (-math.inf, 0.0),
            (-0.5, 0.0),
            (0.0, 0.0),
            (0.25, 0.0),
            (ONE_MINUS_OMEGA - 0.1, 0.0),
            (ONE_MINUS_OMEGA, 0.0),
            (0.5, 0.017874515005390886),
            (OMEGA, 0.12888787207583108),
            (0.7, 0.2704262121828979),
            (1.0, 0.9999999999999993),
            (1.5, 0.9999999999999993),
            (math.inf, 0.9999999999999993),
        ],
    }
    PINNED_MASS = {"f1": 0.9999999999999991, "f2": 1.0000000000000002, "f3": 0.9999999999999993}
    PINNED_STATS = {
        "f1": {"mean": 0.2116849759658172, "median": 0.1979714680215577, "mode": 0.10701735349522842},
        "f2": {"mean": 0.5000000000000001, "median": 0.49999999997089617, "mode": 0.5},
        "f3": {"mean": 0.7883150240341849, "median": 0.8020285319784421, "mode": 0.8929826414970478},
    }

    def test_integrals_pinned_bit_for_bit(self):
        for which, rows in self.PINNED_INTEGRALS.items():
            for upper, want in rows:
                assert integrate_density(which, upper) == want, (which, upper)
            assert integrate_density(which) == self.PINNED_MASS[which]
            assert density_stats(which) == self.PINNED_STATS[which]


class TestDensityStats:
    # expected values frozen from an independent scipy quadrature/optimizer run
    def test_f1_matches_oracle(self):
        s = density_stats("f1")
        assert s["mean"] == pytest.approx(0.21168497596581637, abs=1e-9)
        assert s["median"] == pytest.approx(0.1979714680541809, abs=1e-8)
        assert s["mode"] == pytest.approx(0.10701735397076631, abs=1e-7)

    def test_f2_symmetry_consequences(self):
        s = density_stats("f2")
        assert s["mean"] == pytest.approx(0.5, abs=1e-9)
        assert s["median"] == pytest.approx(0.5, abs=1e-8)
        assert s["mode"] == pytest.approx(0.5, abs=1e-6)

    def test_f3_reflects_f1(self):
        s1, s3 = density_stats("f1"), density_stats("f3")
        assert s3["mean"] == pytest.approx(1 - s1["mean"], abs=1e-9)
        assert s3["median"] == pytest.approx(1 - s1["median"], abs=1e-8)
        assert s3["mode"] == pytest.approx(1 - s1["mode"], abs=1e-6)

    def test_unrestricted_baseline(self):
        s = unrestricted_min_stats()
        assert s["mean"] == 0.25
        assert abs(s["median"] - (1 - 2 ** (-1 / 3))) <= 1e-12


class TestSampler:
    def test_postcondition_and_shape(self):
        pts = sample_ordered_cyclic(2000, seed=5)
        assert pts.shape == (2000, 3)
        assert (np.diff(pts, axis=1) >= 0).all()
        for row in pts[:200]:
            assert in_region(tuple(map(float, row)), ordered_cyclic)

    def test_deterministic(self):
        a = sample_ordered_cyclic(500, seed=9)
        b = sample_ordered_cyclic(500, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_ordered_cyclic(500, seed=10))

    @staticmethod
    def draw_blocks_of(monkeypatch, rows):
        """From now on the sampler draws blocks of ``rows`` rows."""
        monkeypatch.setattr(rng, "_MIN_ROWS", 1)
        monkeypatch.setattr(rng, "BLOCK_WORDS", 3 * rows)

    def test_batching_does_not_change_output(self, monkeypatch, record_words):
        a = sample_ordered_cyclic(3000, seed=4)
        record_words.clear()
        self.draw_blocks_of(monkeypatch, 4096)
        b = sample_ordered_cyclic(3000, seed=4)
        assert max(record_words) == 3 * 4096
        assert np.array_equal(a, b)

    def test_output_independent_of_batch_cap(self, monkeypatch, record_words):
        ref = sample_ordered_cyclic(2000, seed=21)
        for rows in (1, 7, 4096):
            self.draw_blocks_of(monkeypatch, rows)
            record_words.clear()
            assert np.array_equal(sample_ordered_cyclic(2000, seed=21), ref)
            # full blocks, or one block short of the cap when that suffices
            assert max(record_words) == min(3 * rows, sum(record_words))

    def test_count_capped(self, monkeypatch):
        monkeypatch.setattr(triple, "MAX_SAMPLE_ROWS", 100)
        assert sample_ordered_cyclic(100, seed=1).shape == (100, 3)
        with pytest.raises(ValueError, match="count must be in"):
            sample_ordered_cyclic(101, seed=1)

    @pytest.mark.parametrize(
        "count,seed,digest",
        [
            (10**6, 11, "2dab5c1d454d0cb29276216161dcbe1b147f393d6207fecae4da134a87a8a39f"),
            (1000, 3, "8f60bfd01553c8636b0108cd2686cada33646b54ecef2b7641378fe65fe593c0"),
            (123457, 7, "28ff190db8a1182a70407d3fed323a16e2ca49230baf12b031750667be56fe4f"),
        ],
    )
    def test_rows_pinned(self, count, seed, digest):
        # SHA-256 of the rows; draws of any size give the same rows
        pts = sample_ordered_cyclic(count, seed)
        assert pts.flags.c_contiguous
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest

    def test_small_request_draws_few_words(self, record_words):
        for seed in range(20):
            record_words.clear()
            sample_ordered_cyclic(1000, seed=seed)
            assert sum(record_words) <= 2 * 3000 / P3

    def test_columns_match_cube_rejection(self):
        # The old sampler: unsorted cube points kept only if already
        # ordered and cyclic, at acceptance p3/6.
        cube = np.random.default_rng(2012).random((2_200_000, 3))
        x, y, z = cube[:, 0], cube[:, 1], cube[:, 2]
        xb, yb, zb = 1.0 - x, 1.0 - y, 1.0 - z
        keep = (
            (x <= y)
            & (y <= z)
            & (np.minimum(np.minimum(x + y * z, y + z * x), z + x * y) <= 1.0)
            & (np.minimum(np.minimum(xb + yb * zb, yb + zb * xb), zb + xb * yb) <= 1.0)
        )
        reference = cube[keep][:200_000]
        assert len(reference) == 200_000
        pts = sample_ordered_cyclic(200_000, seed=13)
        for col in range(3):
            assert scistats.ks_2samp(pts[:, col], reference[:, col]).pvalue > 1e-3

    def test_marginal_means(self):
        pts = sample_ordered_cyclic(200_000, seed=12)
        assert abs(pts[:, 0].mean() - 0.21168) < 0.005
        assert abs(pts[:, 1].mean() - 0.5) < 0.005
        assert abs(pts[:, 2].mean() - (1 - 0.21168)) < 0.005

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_ordered_cyclic(0, seed=1)
