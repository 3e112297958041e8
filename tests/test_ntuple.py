import hashlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclictuples import symbolic
from cyclictuples.core import (
    DiscreteDist,
    HypothesisNotMetError,
    InvalidTupleError,
    ProbTuple,
    Reason,
    Status,
    WitnessSystem,
    in_region,
)
from cyclictuples.ntuple import (
    MAX_N,
    _all,
    _any,
    _pi_n_upper,
    alternating_count,
    andre_series,
    build_witness,
    certificates,
    decide_ntuple,
    d_i,
    d_ii,
    d_star,
    efron_dice,
    max_below_one_minus_pi_n,
    min_above_pi_n,
    moon_moser_dice,
    pi_n,
    pn_bounds,
    verify_witness,
    vol_dn_star,
)
from cyclictuples.rng import uniform_words


def _updown_by_integers(values, i):
    """The up-down condition x_i + x_{i+1} >= 1 >= x_{i+2} + x_{i+3} by
    cross-multiplying the integer ratios of the four coordinates."""
    n = len(values)
    (pa, qa), (pb, qb), (pc, qc), (pd, qd) = (values[(i + j) % n].as_integer_ratio() for j in range(4))
    return not (pa * qb + pb * qa < qa * qb or pc * qd + pd * qc > qc * qd)


@st.composite
def index_tuples(draw):
    """A 4..10-tuple of floats, of Fractions or of both, and an index i.
    Either sum s_i, s_{i+2} may be put at a near tie: x_{i+1} = fl(1 - x_i),
    or one ulp either side of it."""
    n = draw(st.integers(4, 10))
    kind = draw(st.sampled_from(["float", "fraction", "mixed"]))
    floats, fractions = st.floats(0, 1), st.fractions(0, 1, max_denominator=10**6)
    coordinate = {"float": floats, "fraction": fractions, "mixed": st.one_of(floats, fractions)}[kind]
    values = [draw(coordinate) for _ in range(n)]
    i = draw(st.integers(0, 2 * n - 1))  # past n - 1 the index wraps
    for j in (i, i + 2):
        ulps = draw(st.sampled_from([None, 0, -1, 1]))  # None: no tie at this sum
        if ulps is not None:
            b = 1.0 - float(values[j % n])
            if ulps:
                b = min(1.0, max(0.0, math.nextafter(b, ulps * math.inf)))
            values[(j + 1) % n] = Fraction(b) if kind == "fraction" else b
    return values, i


class TestPiN:
    def test_initial_values(self):
        assert abs(pi_n(3) - (math.sqrt(5) - 1) / 2) <= 1e-12
        assert abs(pi_n(4) - 2 / 3) <= 1e-12

    def test_limit(self):
        assert 0.7499 < pi_n(1000) < 0.75

    def test_monotone_and_bounded(self):
        values = [pi_n(n) for n in range(3, 10_001)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 0.75 for v in values)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            pi_n(2)

    def test_conservative_threshold_covers_true_value(self):
        # high-precision oracle: the +ulp guard must sit at or above pi_n,
        # compared at 50 digits so the true value is not rounded first
        with mpmath.workdps(50):
            for n in range(3, MAX_N + 1):
                true = 1 - 1 / (4 * mpmath.cos(mpmath.pi / (n + 2)) ** 2)
                assert mpmath.mpf(_pi_n_upper(n)) >= true, n
                assert abs(pi_n(n) - float(true)) <= 4 * math.ulp(1.0)


class TestDecide:
    def test_witnessed_cyclic(self):
        t = [0.6, 0.5, 0.3, 0.4]  # s_0 = 1.1 >= 1, s_2 = 0.7 <= 1
        v = decide_ntuple(t)
        assert v.status is Status.CYCLIC and v.reason is Reason.UP_DOWN_CONDITION_MET
        assert verify_witness(v.witness, t)

    def test_min_filter(self):
        v = decide_ntuple([0.8, 0.8, 0.8, 0.8])
        assert v.status is Status.NOT_CYCLIC and v.reason is Reason.MIN_EXCEEDS_PI_N

    def test_max_filter(self):
        v = decide_ntuple([0.2, 0.2, 0.2, 0.2])
        assert v.status is Status.NOT_CYCLIC and v.reason is Reason.MAX_BELOW_ONE_MINUS_PI_N

    def test_efron_tuple_is_unknown(self):
        # all adjacent sums are 4/3 > 1, so the sufficient condition cannot
        # fire, and min = 2/3 = pi_4 exactly does not exceed the threshold
        v = decide_ntuple([Fraction(2, 3)] * 4)
        assert v.status is Status.UNKNOWN and v.reason is Reason.UNDECIDED

    def test_halves_cyclic_any_n(self):
        for n in range(3, 12):
            assert decide_ntuple([Fraction(1, 2)] * n).status is Status.CYCLIC

    def test_triple_delegation(self):
        v = decide_ntuple([Fraction(5, 9)] * 3)
        assert v.status is Status.CYCLIC and v.reason is Reason.TRYBULA_BOTH_HOLD

    def test_no_witness_mode(self):
        v = decide_ntuple([0.6, 0.5, 0.3, 0.4], with_witness=False)
        assert v.reason is Reason.MIXED_PAIRWISE_SUMS and v.witness is None

    def test_rejects_short_tuples(self):
        with pytest.raises(InvalidTupleError):
            decide_ntuple([0.5, 0.5])

    def test_pi_filter_never_contradicts_trybula(self):
        # necessity soundness at n = 3 against the exact decision
        pts = uniform_words(2718, 0, 100_000 * 3, 3).T
        thr = _pi_n_upper(3)
        flagged = pts[pts.min(axis=1) > thr]
        from cyclictuples.triple import is_cyclic_triple

        for row in flagged:
            assert is_cyclic_triple(tuple(map(float, row))).status is Status.NOT_CYCLIC


class TestWitness:
    def test_spec_examples(self):
        t = ProbTuple((Fraction(3, 5), Fraction(1, 2), Fraction(3, 10), Fraction(2, 5)))
        w = build_witness(t)
        assert verify_witness(w, t)

        t2 = ProbTuple((Fraction(1, 2),) * 4)
        assert verify_witness(build_witness(t2), t2)

        # boundary: x_{n-2} + x_{n-1} = 1 exactly drops one clause to weight 0
        t3 = ProbTuple((Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        assert verify_witness(build_witness(t3), t3)

    def test_degenerate_division(self):
        # after rotation the divisor 1 - x_n vanishes; ratio defined as 0
        t = ProbTuple((Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2), Fraction(1)))
        w = build_witness(t)
        assert verify_witness(w, t)

    def test_float_input_converted_exactly(self):
        t = [0.6, 0.5, 0.3, 0.4]
        w = build_witness(t)
        assert verify_witness(w, t)

    def test_explicit_index_checked(self):
        t = ProbTuple((Fraction(3, 5), Fraction(1, 2), Fraction(3, 10), Fraction(2, 5)))
        assert verify_witness(build_witness(t, index=0), t)
        with pytest.raises(HypothesisNotMetError):
            build_witness(t, index=1)  # s_1 = 0.8 < 1

    @settings(max_examples=400, deadline=None)
    @given(index_tuples())
    def test_explicit_index_check_is_the_integer_test(self, drawn):
        values, i = drawn
        try:
            w = build_witness(values, i)
        except HypothesisNotMetError as exc:
            assert str(exc).startswith(f"index {i % len(values)}: need s_i >= 1 and s_(i+2) <= 1, got ")
            assert not _updown_by_integers(values, i)
        else:
            assert _updown_by_integers(values, i)
            assert verify_witness(w, values)

    def test_no_index_available(self):
        with pytest.raises(HypothesisNotMetError):
            build_witness([Fraction(9, 10)] * 4)  # all sums > 1

    def test_rejects_triples(self):
        with pytest.raises(InvalidTupleError):
            build_witness([Fraction(1, 2)] * 3)

    def test_structural_invariants(self):
        rng = np.random.default_rng(5)
        built = 0
        while built < 50:
            n = int(rng.integers(4, 11))
            t = ProbTuple(tuple(Fraction(int(rng.integers(0, 33)), 32) for _ in range(n)))
            try:
                w = build_witness(t)
            except HypothesisNotMetError:
                continue
            built += 1
            seen = set()
            for d in w.dists:
                assert sum(x for _, x in d.atoms) == 1
                assert all(0 <= x <= 1 for _, x in d.atoms)
                support = {p for p, _ in d.atoms}
                assert not (support & seen)
                seen |= support
            assert verify_witness(w, t)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(4, 9),
        st.data(),
    )
    def test_random_rational_witnesses(self, n, data):
        values = tuple(
            data.draw(st.fractions(min_value=0, max_value=1, max_denominator=50))
            for _ in range(n)
        )
        t = ProbTuple(values)
        try:
            w = build_witness(t)
        except HypothesisNotMetError:
            sums = [t[i] + t[i + 1] for i in range(n)]
            assert not any(
                sums[i] >= 1 and sums[(i + 2) % n] <= 1 for i in range(n)
            )
            return
        assert verify_witness(w, t)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(4, 9), st.data())
    def test_verify_equals_exact_comparison(self, n, data):
        # verify_witness compares integer ratios; it must agree with an
        # equality of exact values, also one ulp or 1/q^2 off a coordinate
        coordinate = st.one_of(
            st.floats(0, 1), st.fractions(0, 1, max_denominator=50), st.sampled_from([0, 1])
        )
        values = [data.draw(coordinate) for _ in range(n)]
        try:
            w = build_witness(values)
        except HypothesisNotMetError:
            return
        assert WitnessSystem.from_json_dict(w.to_json_dict()) == w
        j = data.draw(st.integers(0, n - 1))
        step = data.draw(st.sampled_from([-1, 0, 1]))
        v = values[j]
        if isinstance(v, float):
            u = math.nextafter(v, step * math.inf) if step else v
        else:
            u = Fraction(v) + Fraction(step, Fraction(v).denominator ** 2)
        values[j] = min(max(u, 0), 1)  # a perturbation off [0, 1] is undone
        verified = verify_witness(w, values)
        assert verified == (w.cycle_probabilities() == tuple(map(Fraction, values)))
        assert verified == (Fraction(values[j]) == Fraction(v))

    def test_verify_rejects_mismatches(self):
        w, t = efron_dice()
        assert not verify_witness(w, [Fraction(1, 2)] * 4)  # wrong probabilities
        assert not verify_witness(w, [Fraction(2, 3)] * 5)  # wrong n

    def test_json_round_trip_still_verifies(self):
        t = ProbTuple((Fraction(3, 5), Fraction(1, 2), Fraction(3, 10), Fraction(2, 5)))
        w = WitnessSystem.from_json_dict(build_witness(t).to_json_dict())
        assert verify_witness(w, t)
        assert w == build_witness(t)
        long = _reference_long_tuple()
        assert WitnessSystem.from_json_dict(build_witness(long).to_json_dict()) == build_witness(long)


def _witness_sha(t) -> str:
    return hashlib.sha256(json.dumps(build_witness(t).to_json_dict()).encode()).hexdigest()


def _reference_long_tuple():
    # the 1000-coordinate tuple of benchmarks/reference.py
    rnd = random.Random(2024)
    for _ in range(60_000):
        rnd.random()
    return (0.9, 0.05) + tuple(rnd.random() for _ in range(998))


class TestWitnessBytes:
    """Witness JSON is pinned byte for byte: every weight is a reduced
    Fraction, so its "p/q" string does not depend on how it was computed."""

    def test_float_six_tuple(self):
        t = (0.9, 0.35, 0.1, 0.2, 0.123456789, 0.987654321)
        assert _witness_sha(t) == "f1bc7f83af30acf71d54d38f81404566e476c9d902391d8b642adc27cd5aed0c"

    def test_rational_ten_tuple(self):
        t = tuple(Fraction(p, q) for p, q in
                  [(5, 7), (2, 3), (1, 11), (3, 13), (4, 9), (7, 17), (1, 2), (9, 19), (2, 23), (6, 29)])
        assert _witness_sha(t) == "e429ad6a8fcbbcf764809d58cc39c0a7043d67a5069965e0303950fc4d6180c7"

    def test_reference_thousand_tuple(self):
        t = _reference_long_tuple()
        assert _witness_sha(t) == "c8484300e85b12b9d3323f123814952081e45ce97bdb30ba726aaa8f2a51b056"


def test_verify_large_system_against_double_loop():
    """3 x 2000 atoms on interleaved integer points: the merge agrees with a
    double loop over every pair of atoms, and verification stays fast."""
    rnd = random.Random(11)
    points = list(range(3 * 2000))
    rnd.shuffle(points)
    raw = []
    for d in range(3):
        counts = [rnd.randint(0, 10**6) for _ in range(2000)]
        raw.append((list(zip(points[d::3], counts)), sum(counts)))
    w = WitnessSystem(tuple(DiscreteDist(*zip(*atoms), dw=total) for atoms, total in raw))
    want = []
    for (a, ta), (b, tb) in zip(raw[1:] + raw[:1], raw):
        pairs = sum(ca * sum(cb for pb, cb in b if pb < pa) for pa, ca in a)
        want.append(Fraction(pairs, ta * tb))
    start = time.perf_counter()
    assert verify_witness(w, want)
    assert time.perf_counter() - start < 0.5  # milliseconds in practice; minutes as a double loop
    assert not verify_witness(w, want[:2] + [want[2] + Fraction(1, 10**30)])


class TestFixtures:
    def test_efron(self):
        w, t = efron_dice()
        assert t.values == (Fraction(2, 3),) * 4
        assert verify_witness(w, t)

    def test_moon_moser(self):
        w, t = moon_moser_dice()
        assert t.values == (Fraction(5, 9),) * 3
        assert verify_witness(w, t)


class TestDnRegions:
    def test_examples(self):
        assert in_region([0.2, 0.3, 0.2, 0.3], d_i)
        assert in_region([0.8, 0.9, 0.8, 0.9], d_ii)
        assert not in_region([0.5, 0.5, 0.5], d_i)  # sums equal 1
        assert not in_region([0.5, 0.5, 0.5], d_ii)

    def test_d_star_requires_minimal_first(self):
        assert in_region([0.1, 0.3, 0.2, 0.3], d_star)
        assert not in_region([0.3, 0.1, 0.2, 0.3], d_star)
        # ties for the minimum are included
        assert in_region([0.2, 0.2, 0.3, 0.3], d_star)

    @staticmethod
    def boundary_rows(n, seed):
        """Rows whose adjacent sums are often exactly 1 or one float step
        from it: x_{i+1} is 1 - x_i, or the float next to it, at random i."""
        pts = uniform_words(seed, 0, 20_000 * n, n).T.copy()
        rnd = np.random.default_rng(seed)
        for i in range(n - 1):
            chosen = rnd.random(len(pts)) < 0.6
            step = rnd.integers(-1, 2, len(pts))  # one float down, none or up
            near = 1.0 - pts[:, i]
            near = np.where(step < 0, np.nextafter(near, 0), np.where(step > 0, np.nextafter(near, 1), near))
            pts[:, i + 1] = np.where(chosen, near, pts[:, i + 1])
        return pts

    @staticmethod
    def tie_rows(n, seed):
        """Rows over 0, 1/4, 1/2, 3/4, 1: every one for n <= 6, else 20,000."""
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        if n <= 6:
            return np.array(list(product(levels, repeat=n)))
        return np.random.default_rng(seed).choice(levels, size=(20_000, n))

    def test_mixed_sums_always_admit_updown_index(self):
        # tuples outside D_I and D_II always have s_i >= 1 >= s_{i+2}, also
        # on the computed float sums: so the bracket's cyclic mask counts
        # exactly the mixed-sums region, ties and sums at 1 included
        for n in range(4, 17):
            boundary = self.boundary_rows(n, 2000 + n)
            sums = boundary[:, :-1] + boundary[:, 1:]
            for near_one in (np.nextafter(1.0, 0), 1.0, np.nextafter(1.0, 2)):
                assert (sums == near_one).sum() > 100, (n, near_one)
            for pts in (uniform_words(1000 + n, 0, 100_000 * n, n).T, boundary, self.tie_rows(n, 3000 + n)):
                cols = tuple(pts.T.copy())
                cyclic, _ = certificates(*cols)
                assert np.array_equal(cyclic, ~(d_i(*cols) | d_ii(*cols))), n


class TestJoins:
    """``_all``/``_any`` join conditions with & and |, seeded by the first."""

    @staticmethod
    def counted(conditions, seen):
        for c in conditions:
            seen.append(c)
            yield c

    @pytest.mark.parametrize("join, decisive", [(_all, False), (_any, True)])
    def test_scalars_stop_at_the_deciding_condition(self, join, decisive):
        for k in range(4):
            seen = []
            conditions = [not decisive] * k + [decisive] + [not decisive] * 3
            assert join(self.counted(conditions, seen)) is decisive
            assert len(seen) == k + 1
        seen = []
        assert join(self.counted([not decisive] * 3, seen)) is (not decisive)
        assert len(seen) == 3
        assert join(iter(())) is (not decisive)

    def test_columns(self):
        rnd = np.random.default_rng(5)
        cols = [rnd.random(1000) < 0.7 for _ in range(4)]
        assert _all(iter(cols[:1])) is cols[0] and _any(iter(cols[:1])) is cols[0]
        for k in (2, 3, 4):
            assert np.array_equal(_all(iter(cols[:k])), np.logical_and.reduce(cols[:k]))
            assert np.array_equal(_any(iter(cols[:k])), np.logical_or.reduce(cols[:k]))

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_columns_never_meet_a_python_bool(self, n):
        # every & and | of the traced regions joins two columns
        regions = (d_i, d_ii, d_star, min_above_pi_n, max_below_one_minus_pi_n)
        regions += (certificates,) if n >= 4 else ()
        program = symbolic.trace.__wrapped__(regions, n)
        joins = [args for ufunc, args, _ in program.steps if ufunc in (np.bitwise_and, np.bitwise_or)]
        assert joins and all(type(a) is int for args in joins for a in args)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_d_star_matches_its_definition(self, n):
        # D_I with x_1 minimal, the comparison of x_1 with itself included
        for pts in (TestDnRegions.boundary_rows(n, 50 + n), TestDnRegions.tie_rows(n, 60 + n)):
            cols = tuple(pts.T.copy())
            first_minimal = np.logical_and.reduce([cols[0] <= x for x in cols])
            assert np.array_equal(d_star(*cols), d_i(*cols) & first_minimal), n
        for row in TestDnRegions.tie_rows(n, 70 + n)[:300]:
            xs = [Fraction(v) for v in row]
            assert d_star(*xs) == (d_i(*xs) and all(xs[0] <= x for x in xs)), xs


class TestAlternatingCounts:
    def test_against_enumeration(self):
        def brute(n):
            if n == 1:
                return 1
            total = 0
            for p in permutations(range(n)):
                ok = True
                for i in range(n - 1):
                    if (i % 2 == 0) != (p[i] < p[i + 1]):
                        ok = False
                        break
                total += ok
            return total

        for n in range(1, 9):
            assert alternating_count(n) == brute(n)

    def test_known_values(self):
        assert [alternating_count(n) for n in range(1, 11)] == [
            1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521,
        ]

    def test_bounded_by_factorial(self):
        for n in range(1, 20):
            assert alternating_count(n) <= math.factorial(n)

    def test_cache_growth(self):
        assert alternating_count(40) > 0  # beyond the initial table

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alternating_count(0)


class TestAndreSeries:
    def test_converges_to_ratio(self):
        # truncation error bounds: next-term for the alternating (even n)
        # series, integral tail for odd n
        assert abs(andre_series(2, 50) - 0.5) <= 1e-6
        assert abs(andre_series(5, 50) - 16 / 120) <= 1e-11
        assert abs(andre_series(2, 200_000) - 0.5) <= 1e-12

    def test_one_term_upper_bound_even_n(self):
        for n in (2, 4, 6, 8):
            assert andre_series(n, 1) >= alternating_count(n) / math.factorial(n)
            assert andre_series(n, 1) == pytest.approx(2 * (2 / math.pi) ** (n + 1), abs=0)

    def test_bound_constant_three(self):
        for n in range(1, 31):
            ratio = alternating_count(n) / math.factorial(n)
            assert ratio <= 3 * (2 / math.pi) ** (n + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            andre_series(0, 5)
        with pytest.raises(ValueError):
            andre_series(3, 0)


class TestVolumesAndBounds:
    def test_vol_dn_star_values(self):
        assert vol_dn_star(3) == Fraction(1, 12)
        assert vol_dn_star(4) == Fraction(1, 24)
        assert vol_dn_star(5) == Fraction(1, 48)
        with pytest.raises(ValueError):
            vol_dn_star(2)

    def test_pn_bounds_frozen_values(self):
        b = pn_bounds(4)
        assert b.lower == pytest.approx(1 - 3 * (2 / math.pi) ** 4, abs=0)
        assert b.sharper_lower == pytest.approx(2 / 3, abs=1e-15)
        assert b.sharper_upper == pytest.approx(79 / 81, abs=1e-15)  # pi_4 = 2/3
        assert b.upper == pytest.approx(1 - 2 * 0.25**4, abs=0)

    def test_ordering(self):
        for n in range(4, 41):
            b = pn_bounds(n)
            assert b.lower <= b.sharper_lower <= b.sharper_upper <= b.upper

    def test_sharper_upper_at_50_digits(self):
        with mpmath.workdps(50):
            for n in range(4, 41):
                pi = 1 - 1 / (4 * mpmath.cos(mpmath.pi / (n + 2)) ** 2)
                exact = 1 - 2 * (1 - pi) ** n
                assert abs(pn_bounds(n).sharper_upper - exact) <= 1e-15

    def test_shrinks_to_one(self):
        b = pn_bounds(60)
        assert b.upper - b.lower < 1e-10 and b.lower > 1 - 1e-10

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            pn_bounds(3)

    def test_rejects_n_above_max(self):
        with pytest.raises(ValueError):
            pn_bounds(MAX_N + 1)
        assert pn_bounds(MAX_N).upper <= 1.0
