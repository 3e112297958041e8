import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclictuples import core
from cyclictuples.core import (
    DensityGrid,
    DiscreteDist,
    InvalidTupleError,
    MCEstimate,
    ProbTuple,
    Reason,
    Status,
    Verdict,
    WitnessSystem,
    complement,
    format_tuple,
    parse_tuple,
    reverse,
    rotate,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
prob_tuples = st.lists(probs, min_size=3, max_size=9).map(lambda v: ProbTuple(tuple(v)))


class TestProbTuple:
    def test_validation(self):
        with pytest.raises(InvalidTupleError):
            ProbTuple((0.5, 0.5))
        with pytest.raises(InvalidTupleError):
            ProbTuple((0.5, 0.5, 1.5))
        with pytest.raises(InvalidTupleError):
            ProbTuple((0.5, 0.5, -0.1))
        with pytest.raises(InvalidTupleError):
            ProbTuple((0.5, 0.5, float("nan")))

    @pytest.mark.parametrize(
        "value, message",
        [
            (math.nan, "non-finite value nan"),
            (math.inf, "non-finite value inf"),
            (-math.inf, "non-finite value -inf"),
            (-5e-324, "value -5e-324 outside [0, 1]"),
            (1 + 2**-52, "value 1.0000000000000002 outside [0, 1]"),
            (Fraction(-1, 3), "value Fraction(-1, 3) outside [0, 1]"),
            (Fraction(4, 3), "value Fraction(4, 3) outside [0, 1]"),
            (True, "unsupported value type bool"),
            (2, "value 2 outside [0, 1]"),
            ("0.5", "unsupported value type str"),
            # numpy's own repr: np.float64(1.5) from numpy 2, 1.5 before
            (np.float64(1.5), f"value {np.float64(1.5)!r} outside [0, 1]"),
            # too long to write in decimal: given by size
            pytest.param(10**5000, "value <int of 16610 bits> outside [0, 1]", id="long-int"),
            pytest.param(-(10**5000), "value <negative int of 16610 bits> outside [0, 1]",
                         id="long-negative-int"),
            pytest.param(Fraction(10**5000, 3), "value <Fraction of 16610 bits> outside [0, 1]",
                         id="long-fraction"),
            pytest.param(Fraction(-1, 10**5000), "value <negative Fraction of 16610 bits> outside [0, 1]",
                         id="long-negative-fraction"),
        ],
    )
    def test_error_messages(self, value, message):
        for values in ((value, 0.5, 0.5), (0.5, Fraction(1, 2), value)):
            with pytest.raises(InvalidTupleError) as exc:
                ProbTuple(values)
            assert type(exc.value) is InvalidTupleError and str(exc.value) == message
            assert len(message) <= 200

    def test_accepts_the_closed_interval(self):
        values = (0.0, 1.0, -0.0, Fraction(0), Fraction(1), 0, 1, np.float64(0.5), 5e-324)
        assert ProbTuple(values).values == values

    def test_cyclic_indexing(self):
        t = ProbTuple((0.1, 0.2, 0.3, 0.4))
        assert t[4] == t[0] and t[-1] == t[3] and t[7] == t[3]

    def test_exact_conversion_is_lossless(self):
        t = ProbTuple((0.1, 0.5, 1.0))
        e = ProbTuple(tuple(map(Fraction, t.values)))
        assert all(isinstance(v, Fraction) for v in e.values)
        assert all(float(a) == b for a, b in zip(e.values, t.values))


class TestSymmetryOps:
    def test_complement_examples(self):
        assert complement(ProbTuple((0.5, 0.5, 0.5))).values == (0.5, 0.5, 0.5)
        assert complement(ProbTuple((1, 1, 1))).values == (0, 0, 0)
        q = Fraction(2, 3)
        assert complement(ProbTuple((q,) * 4)).values == (Fraction(1, 3),) * 4

    def test_rotate_reverse_examples(self):
        t = ProbTuple((0.1, 0.2, 0.3))
        assert rotate(t, 1).values == (0.2, 0.3, 0.1)
        assert rotate(t, 3).values == t.values
        assert reverse(ProbTuple((0.1, 0.2, 0.3, 0.4))).values == (0.4, 0.3, 0.2, 0.1)

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=1000), min_size=3, max_size=9))
    def test_complement_involutive_exact(self, values):
        t = ProbTuple(tuple(values))
        assert complement(complement(t)).values == t.values

    @given(prob_tuples)
    def test_complement_involutive_floats_to_ulp(self, t):
        # 1 - (1 - x) can round for float x; exactness is a rational-path
        # guarantee, floats recover the value to one ulp
        for a, b in zip(complement(complement(t)).values, t.values):
            assert abs(a - b) <= math.ulp(1.0)

    @given(prob_tuples, st.integers(-20, 20), st.integers(-20, 20))
    def test_rotate_composes(self, t, j, k):
        assert rotate(rotate(t, j), k).values == rotate(t, j + k).values

    @given(prob_tuples)
    def test_reverse_involutive(self, t):
        assert reverse(reverse(t)).values == t.values


class TestParsing:
    def test_rational_and_decimal(self):
        t = parse_tuple("5/9,5/9,5/9")
        assert t.values == (Fraction(5, 9),) * 3
        assert all(isinstance(v, Fraction) for v in t.values)
        t = parse_tuple("0.6,0.5,0.3")
        assert t.values == (0.6, 0.5, 0.3) and all(isinstance(v, float) for v in t.values)

    def test_exact_decimal_mode(self):
        t = parse_tuple("0.6,0.5,0.25", exact=True)
        assert t.values == (Fraction(3, 5), Fraction(1, 2), Fraction(1, 4))

    def test_round_trip(self):
        for text in ("5/9,5/9,5/9", "0.6,0.5,0.3,0.4"):
            t = parse_tuple(text)
            assert parse_tuple(format_tuple(t)).values == t.values

    @pytest.mark.parametrize("bad", ["", "0.5,0.6", "a,b,c", "1/0,1,1", "2,0,0", ",,,"])
    def test_malformed(self, bad):
        with pytest.raises(InvalidTupleError):
            parse_tuple(bad)


# Which reasons prove a tuple cyclic and which prove it not cyclic;
# Undecided is the one reason of an Unknown verdict.
SUFFICIENCY_REASONS = {Reason.TRYBULA_BOTH_HOLD, Reason.UP_DOWN_CONDITION_MET, Reason.MIXED_PAIRWISE_SUMS}
VIOLATION_REASONS = {
    Reason.TRYBULA_INEQ1_FAILS,
    Reason.TRYBULA_INEQ2_FAILS,
    Reason.MIN_EXCEEDS_PI_N,
    Reason.MAX_BELOW_ONE_MINUS_PI_N,
}


class TestVerdict:
    def test_status_follows_reason(self):
        assert set(Reason) == SUFFICIENCY_REASONS | VIOLATION_REASONS | {Reason.UNDECIDED}
        for reason in Reason:
            if reason in SUFFICIENCY_REASONS:
                want = Status.CYCLIC
            elif reason in VIOLATION_REASONS:
                want = Status.NOT_CYCLIC
            else:
                want = Status.UNKNOWN
            assert Verdict(reason).status is want
            assert Verdict(reason).to_dict() == {"status": want.value, "reason": reason.value}

    def test_status_is_not_an_argument(self):
        for status in Status:
            for reason in Reason:
                with pytest.raises(KeyError):  # the status is looked up as a reason
                    Verdict(status, reason)
        with pytest.raises(TypeError):
            Verdict(status=Status.CYCLIC, reason=Reason.TRYBULA_BOTH_HOLD)

    def test_reason_value_string_is_refused(self):
        for reason in Reason:
            with pytest.raises(TypeError):
                Verdict(reason.value)

    def test_witness_only_on_cyclic(self):
        witness = WitnessSystem(tuple(DiscreteDist((k,), (1,)) for k in range(3)))
        for reason in Reason:
            if reason in SUFFICIENCY_REASONS:
                assert Verdict(reason, witness=witness).witness is witness
            else:
                with pytest.raises(ValueError):
                    Verdict(reason, witness=witness)


class TestDiscreteDist:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteDist.from_atoms(((Fraction(0), Fraction(1, 2)),))
        with pytest.raises(ValueError):
            DiscreteDist.from_atoms(((Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1, 2))))
        with pytest.raises(ValueError):
            DiscreteDist.from_atoms(((Fraction(0), Fraction(3, 2)), (Fraction(1), Fraction(-1, 2))))

    def test_from_faces_merges(self):
        d = DiscreteDist.from_faces([0, 0, 4, 4, 4, 4])
        assert dict(d.atoms) == {Fraction(0): Fraction(1, 3), Fraction(4): Fraction(2, 3)}

    def test_prob_greater_than(self):
        a = DiscreteDist.from_faces([1, 5, 9])
        b = DiscreteDist.from_faces([2, 6, 7])
        assert b.prob_greater_than(a) == Fraction(5, 9)
        assert a.prob_greater_than(b) == Fraction(4, 9)


def _greater_by_enumeration(a, b) -> Fraction:
    return sum((wa * wb for pa, wa in a for pb, wb in b if pa > pb), Fraction(0))


def _weights(draw, size):
    counts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    if not any(counts):
        counts[0] = 1
    return [Fraction(c, sum(counts)) for c in counts]


@st.composite
def dist_pairs(draw):
    """Two distributions over subsets, in any order, of one pool of points:
    negative points, mixed denominators, shared points and zero weights."""
    pool = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=12),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    pair = []
    for _ in range(2):
        points = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        pair.append(tuple(zip(points, _weights(draw, len(points)))))
    return pair


@pytest.mark.parametrize("text", ["1e-9999999", "1e99999999", "1e-4299", "1/" + "7" * 4301])
def test_parse_refuses_long_exact_tokens(text):
    with pytest.raises(InvalidTupleError, match="more than 4300 digits"):
        parse_tuple(f"{text},1/2,1/2", exact=True)


def test_parse_keeps_exact_tokens_up_to_the_cap():
    t = parse_tuple("1e-4298,0.5,0.5", exact=True)  # a denominator of 4299 digits
    assert t[0] == Fraction(1, 10**4298)
    assert parse_tuple("1e-9999999,0.5,0.5")[0] == 0.0  # read as a float


class TestIntegerView:
    @settings(max_examples=300, deadline=None)
    @given(dist_pairs())
    def test_equals_double_loop(self, pair):
        a, b = pair
        da, db = DiscreteDist.from_atoms(a), DiscreteDist.from_atoms(b)
        assert da.prob_greater_than(db) == _greater_by_enumeration(a, b)
        assert db.prob_greater_than(da) == _greater_by_enumeration(b, a)

    @settings(max_examples=200, deadline=None)
    @given(dist_pairs(), st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 6))
    def test_order_and_scale_do_not_matter(self, pair, rnd, k, m):
        a, b = pair
        shuffled = list(a)
        rnd.shuffle(shuffled)
        da, db = DiscreteDist.from_atoms(sorted(a)), DiscreteDist.from_atoms(b)
        assert DiscreteDist.from_atoms(shuffled) == da
        # the same values on denominators k and m times too large
        dp = math.lcm(*(p.denominator for p, _ in a)) * k
        dw = math.lcm(*(w.denominator for _, w in a)) * m
        scaled = DiscreteDist(
            tuple(int(p * dp) for p, _ in shuffled), tuple(int(w * dw) for _, w in shuffled), dp, dw
        )
        assert scaled == da and scaled.atoms == tuple(sorted(a))
        assert scaled.prob_greater_than(db) == da.prob_greater_than(db) == _greater_by_enumeration(a, b)

    def test_error_messages(self):
        half = Fraction(1, 2)
        cases = [
            (lambda: DiscreteDist.from_atoms(((Fraction(0), half),)), "weights sum to 1/2, not 1"),
            (lambda: DiscreteDist.from_atoms(((Fraction(0), half), (Fraction(0), half))),
             "support points must be distinct"),
            (lambda: DiscreteDist.from_atoms(((Fraction(0), Fraction(3, 2)), (Fraction(1), -half))),
             "negative weight -1/2"),
            (lambda: DiscreteDist((0, 1), (1,)), "2 points but 1 weights"),
            (lambda: WitnessSystem((DiscreteDist.from_faces([1]),) * 2),
             "a witness needs at least 3 distributions"),
            (lambda: WitnessSystem(tuple(DiscreteDist.from_faces(f) for f in ([1, 2], [2, 3], [5]))),
             "supports of distinct distributions must be disjoint"),
            # 1/2 and 3/6 are one point
            (lambda: WitnessSystem((DiscreteDist((1,), (1,), 2), DiscreteDist((3, 5), (1, 1), 6, 2),
                                    DiscreteDist((7,), (1,)))),
             "supports of distinct distributions must be disjoint"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "atoms, d, message",
        [
            ([(0, 1)], 2, "weights sum to 1/2, not 1"),
            ([(0, 1), (0, 1)], 2, "support points must be distinct"),
            ([(0, 3), (1, -1)], 2, "negative weight -1/2"),
            ([(5, -3), (0, -1), (1, 5)], 1, "negative weight -3"),  # the first in input order
            ([(0, 0)], 0, "denominators must be positive"),
        ],
    )
    def test_integer_constructor_messages(self, atoms, d, message):
        with pytest.raises(ValueError) as exc:
            DiscreteDist(*zip(*atoms), 1, d)
        assert str(exc.value) == message

    def test_integer_constructor_reduces(self):
        d = DiscreteDist((3, -2), (6, 2), 1, 8)
        assert d == DiscreteDist.from_atoms(((Fraction(-2), Fraction(1, 4)), (Fraction(3), Fraction(3, 4))))
        assert [(p.denominator, w.denominator) for p, w in d.atoms] == [(1, 4), (1, 4)]
        assert (d.points, d.weights, d.dp, d.dw) == ((-2, 3), (2, 6), 1, 8)  # sorted, as given
        halves, same = DiscreteDist((2, 6), (1, 1), 4, 2), DiscreteDist((1, 3), (1, 1), 2, 2)
        assert halves == same and hash(halves) == hash(same)
        assert halves != DiscreteDist((1, 3), (1, 1), 4, 2) and halves != halves.atoms
        listed = DiscreteDist([-2, 3], [2, 6], 1, 8)  # already sorted, but lists
        assert listed == d and type(listed.points) is type(listed.weights) is tuple

    def test_atoms_of_other_types_are_converted(self):
        d = DiscreteDist.from_atoms([[0, "1/4"], (1.5, Fraction(3, 4))])
        assert d.atoms == ((Fraction(0), Fraction(1, 4)), (Fraction(3, 2), Fraction(3, 4)))

    def test_integer_view_is_capped(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_VIEW_BITS", 64)
        DiscreteDist.from_faces([0, 1, 2])  # 3 weights on a 2-bit denominator
        tiny = Fraction(1, 2**20)  # 5 weights on a 21-bit denominator: 105 bits
        atoms = tuple((Fraction(k), tiny) for k in range(4)) + ((Fraction(4), 1 - 4 * tiny),)
        with pytest.raises(ValueError, match="common denominator"):
            DiscreteDist.from_atoms(atoms)


class TestWitnessSystem:
    def test_disjoint_supports_enforced(self):
        d1 = DiscreteDist.from_faces([1, 2])
        d2 = DiscreteDist.from_faces([2, 3])
        d3 = DiscreteDist.from_faces([5, 6])
        with pytest.raises(ValueError):
            WitnessSystem((d1, d2, d3))

    def test_json_round_trip_lossless(self):
        w = WitnessSystem(
            (
                DiscreteDist.from_atoms(((Fraction(-2), Fraction(3, 7)), (Fraction(2), Fraction(4, 7)))),
                DiscreteDist.from_atoms(((Fraction(1, 3), Fraction(1)),)),
                DiscreteDist.from_faces([5, 6, 6]),
            )
        )
        again = WitnessSystem.from_json_dict(w.to_json_dict())
        assert again == w

    @pytest.mark.parametrize(
        "data",
        [
            {},
            [],
            {"dists": 3},
            {"dists": [3, 4, 5]},
            {"dists": [[{"point": "1/2"}]]},
            {"dists": [["1/2"]]},
            {"dists": [[{"point": None, "weight": "1"}]]},
            {"dists": [[{"point": "1/2", "weight": [1]}]]},
            {"dists": [[{"point": "1/0", "weight": "1"}]]},
            {"dists": [[{"point": "a", "weight": "1"}]]},
        ],
    )
    def test_malformed_json_rejected(self, data):
        with pytest.raises(ValueError):
            WitnessSystem.from_json_dict(data)

    def test_long_exact_token_refused(self):
        data = {"dists": [[{"point": "1e-9999999", "weight": "1"}]] * 3}
        with pytest.raises(ValueError, match="more than 4300 digits"):
            WitnessSystem.from_json_dict(data)

    def test_atom_count_capped(self, monkeypatch):
        data = __import__("cyclictuples").efron_dice()[0].to_json_dict()  # 7 atoms
        monkeypatch.setattr(core, "MAX_WITNESS_ATOMS", 7)
        WitnessSystem.from_json_dict(data)
        monkeypatch.setattr(core, "MAX_WITNESS_ATOMS", 6)
        with pytest.raises(ValueError, match="7 atoms, at most 6"):
            WitnessSystem.from_json_dict(data)

    def test_numerator_bits_capped_in_all(self, monkeypatch):
        # Each distribution: 3 points on 2**20 (21 bits) and 3 weights on 3
        # (2 bits), 69 bits; each passes the per-distribution cap of 100.
        data = {"dists": [
            [{"point": f"{2 * (3 * i + j) + 1}/{2**20}", "weight": "1/3"} for j in range(3)]
            for i in range(4)
        ]}
        monkeypatch.setattr(core, "MAX_VIEW_BITS", 4 * 69)
        WitnessSystem.from_json_dict(data)
        monkeypatch.setattr(core, "MAX_VIEW_BITS", 100)
        for atoms in data["dists"]:
            DiscreteDist.from_atoms((a["point"], a["weight"]) for a in atoms)
        with pytest.raises(ValueError, match="more than 100 bits of numerators in all"):
            WitnessSystem.from_json_dict(data)

    def test_n_mismatch_rejected(self):
        w, _ = __import__("cyclictuples").efron_dice()
        data = w.to_json_dict()
        data["n"] = 7
        with pytest.raises(ValueError):
            WitnessSystem.from_json_dict(data)


def test_mc_estimate_invariants():
    e = MCEstimate(estimate=0.5, stderr=0.001, samples=10, seed=1)
    assert e.to_dict()["chunks"] == 1
    with pytest.raises(ValueError):
        MCEstimate(estimate=1.5, stderr=0.0, samples=10, seed=1)
    with pytest.raises(ValueError):
        MCEstimate(estimate=0.5, stderr=-1.0, samples=10, seed=1)
    with pytest.raises(ValueError):
        MCEstimate(estimate=0.5, stderr=0.0, samples=0, seed=1)


def test_density_grid_invariants():
    DensityGrid(which="f1", xs=[0.1, 0.2], values=[1.0, 0.0])
    with pytest.raises(ValueError):
        DensityGrid(which="f9", xs=[0.1, 0.2], values=[1.0, 0.0])
    with pytest.raises(ValueError):
        DensityGrid(which="f1", xs=[0.2, 0.1], values=[1.0, 0.0])
    with pytest.raises(ValueError):
        DensityGrid(which="f1", xs=[0.1, 0.2], values=[1.0, -0.5])
