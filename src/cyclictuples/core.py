"""Shared domain types for cyclic-tuple analysis.

A tuple (x_1, ..., x_n) of probabilities is *cyclic* if independent random
variables U_1, ..., U_n exist, almost surely pairwise distinct, with
P(U_{i+1} > U_i) = x_i around the cycle (indices modulo n).  It is
*nontransitive* if it is cyclic and every x_i > 1/2.  A ``Verdict`` is the
``Reason`` that decided a tuple, which fixes its status, and any witness.

Number handling: a verdict on a scalar tuple is a statement about the exact
value of its coordinates, a float being the dyadic rational it stores.  The
region predicates compare coordinates and computed expressions only through
``le``/``lt``.  ``decide_exactly`` first runs a predicate on each
coordinate rounded once to float, whatever its kind; ``le``/``lt`` raise
``_NearTie`` when a float comparison falls inside ``_FLOAT_BAND``, and only
then is the predicate run again on the Fractions of the original values,
where ``le``/``lt`` are exact.  A constant meets the coordinates in the
kind ``constant`` gives it.  ``symbolic.trace`` runs predicates on
``SymbolicColumn``s, beside which ``constant`` gives a 0-d array, and
records what they compute as a program of ufunc calls, the same as the
predicates give on float columns.  ``mc`` and the sampler run such
programs to count float masks.  ``decide_columns`` runs one to decide
numpy columns exactly: it flags the rows where a comparison step's sides
fall inside the band, and decides only those rows again on their exact
values.  ``le``/``lt`` pass numpy columns straight through.  Volume and
density paths work in ordinary binary floats.
All types here are immutable and safe to share across workers.

Witness arithmetic runs on integers.  A ``DiscreteDist`` stores its points
as numerators on one denominator and its weights as numerators on another,
sorted by point; ``ntuple.build_witness`` constructs each one from such
integers, and ``DiscreteDist.from_atoms`` puts rational pairs on their lcms.
``prob_greater_than`` merges two distributions with a running integer sum
of the weights below, so the cycle probabilities of s atoms cost O(s) once
the constructor has sorted them, and builds one Fraction at the end.  Caps
bound what input can ask for: ``MAX_TOKEN_DIGITS`` digits in the numerator
or denominator of an exact token, checked on the text before conversion;
``MAX_WITNESS_BYTES`` bytes and ``MAX_WITNESS_ATOMS`` atoms in a witness
file; ``MAX_VIEW_BITS`` bits in the numerators of one ``from_atoms`` call
and in all the numerators a witness file's distributions store.
"""

from __future__ import annotations

import enum
import functools
import math
import reprlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .symbolic import SymbolicColumn, trace

Number = Union[int, float, Fraction]

# Exact tokens (tuple entries read as Fractions, witness atom strings) may
# have at most this many digits in numerator or denominator: the limit of
# int-to-str conversion, which printing a longer one would hit anyway.
# Without it "1e-9999999" would compute 10**9999999 before any check.
MAX_TOKEN_DIGITS = 4300
# Atoms accepted from a witness file, over all of its distributions.
MAX_WITNESS_ATOMS = 10**6
# Bytes of a witness file, read before parsing: 10**6 atoms at the 119 per atom `witness` prints.
MAX_WITNESS_BYTES = 2**27
# Bits of numerators, counted as atoms times the size of their common
# denominator: for the points and for the weights of one distribution built
# by ``from_atoms``, and in all over the distributions of a witness file.
MAX_VIEW_BITS = 2**30


class InvalidTupleError(ValueError):
    """Input does not form a valid probability tuple."""


class HypothesisNotMetError(ValueError):
    """A constructive operation was requested at an index where its
    precondition fails."""


class Status(str, enum.Enum):
    CYCLIC = "Cyclic"
    NOT_CYCLIC = "NotCyclic"
    UNKNOWN = "Unknown"


class Reason(str, enum.Enum):
    """Machine-readable cause attached to every verdict."""

    TRYBULA_BOTH_HOLD = "TrybulaBothHold"
    TRYBULA_INEQ1_FAILS = "TrybulaIneq1Fails"
    TRYBULA_INEQ2_FAILS = "TrybulaIneq2Fails"
    UP_DOWN_CONDITION_MET = "UpDownConditionMet"
    MIXED_PAIRWISE_SUMS = "MixedPairwiseSums"
    MIN_EXCEEDS_PI_N = "MinExceedsPiN"
    MAX_BELOW_ONE_MINUS_PI_N = "MaxBelowOneMinusPiN"
    UNDECIDED = "Undecided"


# The status each reason proves: a Verdict's status is looked up here.
_STATUS = {
    Reason.TRYBULA_BOTH_HOLD: Status.CYCLIC,
    Reason.UP_DOWN_CONDITION_MET: Status.CYCLIC,
    Reason.MIXED_PAIRWISE_SUMS: Status.CYCLIC,
    Reason.TRYBULA_INEQ1_FAILS: Status.NOT_CYCLIC,
    Reason.TRYBULA_INEQ2_FAILS: Status.NOT_CYCLIC,
    Reason.MIN_EXCEEDS_PI_N: Status.NOT_CYCLIC,
    Reason.MAX_BELOW_ONE_MINUS_PI_N: Status.NOT_CYCLIC,
    Reason.UNDECIDED: Status.UNKNOWN,
}


# Each side of a comparison passed to ``le``/``lt`` is a constant, or a sum
# of at most two terms, each a factor (a coordinate x or its complement
# fl(1 - x)) or a product of two factors, every intermediate value in
# [0, 2].  With u = 2**-53, one rounding errs by at most u, and by u/2 for a
# value <= 1.  The float pass of ``decide_exactly`` rounds each coordinate
# once, so a coordinate is off by at most u/2 from its exact value, and its
# complement by u/2 + u/2 = u.  A product of two factors, each in [0, 1] and
# off by at most u, is off by at most u + u + u/2 = 2.5u; a sum of a factor
# and a product by at most u + 2.5u + u = 4.5u, and a sum of two products by
# 2.5u + 2.5u + u = 6u.  A constant is exact in both passes.  So both sides
# together err by at most 12u, and rounding the gap a - b adds at most u:
# 13u < 2**-48.  A gap whose float value exceeds _FLOAT_BAND therefore has
# the same sign in exact arithmetic.  ``decide_columns`` tests the same
# band before every comparison step of a traced program, whose steps are
# the comparisons that ``le``/``lt`` made on columns.  This covers a
# predicate that complements its columns: fl(1 - x) stands for 1 - x, a
# coordinate rounded once, and 1 - fl(1 - x) is exact (Sterbenz).
# A comparison outside ``le``/``lt``, even of two coordinates, is not
# exact on rounded coordinates, so the predicates make none.  A test in
# tests/test_exactness.py walks each predicate's ``symbolic.trace`` program
# forward to check these shapes and intervals, and that every comparison
# is one that ``le``/``lt`` made.
_FLOAT_BAND = 2.0**-48

# The ufuncs of a traced program's comparison steps: ``SymbolicColumn``'s
# < <= > and >=.
_COMPARISONS = frozenset((np.less, np.less_equal, np.greater, np.greater_equal))


class _NearTie(Exception):
    """A float comparison fell inside ``_FLOAT_BAND``; decide it exactly."""


def _gap(a, b):
    """Raises ``_NearTie`` when a float side is within ``_FLOAT_BAND`` of
    the other."""
    if (isinstance(a, float) or isinstance(b, float)) and abs(a - b) <= _FLOAT_BAND:
        raise _NearTie


def le(a, b):
    """a <= b for scalars or numpy columns, a near scalar tie raised by ``_gap``."""
    _gap(a, b)
    return a <= b


def lt(a, b):
    """a < b for scalars or numpy columns, a near scalar tie raised by ``_gap``."""
    _gap(a, b)
    return a < b


_fraction = functools.cache(Fraction)


def constant(value: float, like):
    """The float ``value`` in the kind that ``le``/``lt`` compare with the
    coordinate ``like``: a float beside floats (the float pass of
    ``decide_exactly``), a cached Fraction beside Fractions (its exact
    pass, where a float side would be flagged again), a 0-d array beside
    numpy columns (a float never meets a column in ``le``/``lt``) and
    beside symbolic ones, which take its operators."""
    if isinstance(like, Fraction):
        return _fraction(value)
    if isinstance(like, (np.ndarray, SymbolicColumn)):
        return np.array(value)
    return value


def decide_exactly(fn: Callable, values: Sequence[Number]):
    """``fn(*values)`` as decided on the exact values.  ``fn`` runs first
    on each value rounded once to float, whatever its kind (an int, a float
    or a Fraction), and again on ``Fraction(v)`` of each original value v
    only when a comparison in ``le``/``lt`` is a near tie.  ``fn`` must
    compare coordinates only through ``le``/``lt``: a raw comparison of two
    rounded coordinates is not exact."""
    try:
        return fn(*map(float, values))
    except _NearTie:
        return fn(*map(Fraction, values))


def decide_columns(fn: Callable, cols: Sequence[np.ndarray]):
    """``fn(*cols)`` on float columns (1-D arrays, or the rows of an (n, rows)
    array), one tuple per row, with each row decided on the values it stores.
    It runs the program ``symbolic.trace`` records from ``fn``, flags the rows
    where the sides of a comparison step are within ``_FLOAT_BAND``, and
    decides each flagged row i again by ``fn`` on ``Fraction(c[i])`` of
    every column c.  ``fn`` returns one mask and must be straight-line.
    It is traced once per (fn, n), so pass the same function each time; a
    module value it reads that is patched afterwards reaches it only after
    ``symbolic.trace.cache_clear()``, as in ``mc``."""
    program = trace((fn,), len(cols))
    rows = len(cols[0])
    calls, ((result,),) = program.bind(cols, [np.empty(rows, d) for d in program.slots])
    near = np.zeros(rows, dtype=bool)
    for ufunc, args in calls:
        if ufunc in _COMPARISONS:
            near |= abs(args[0] - args[1]) <= _FLOAT_BAND
        ufunc(*args)
    for i in np.flatnonzero(near).tolist():
        result[i] = fn(*[Fraction(c[i]) for c in cols])
    return result


def _describe(v) -> str:
    """v shortened by ``reprlib`` for an error message; an int or Fraction
    too long to write in decimal is given by its size in bits instead."""
    if isinstance(v, (int, Fraction)):
        bits = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        if bits * math.log10(2) >= MAX_TOKEN_DIGITS:
            return f"<{'negative ' if v < 0 else ''}{type(v).__name__} of {bits} bits>"
    return reprlib.repr(v)


def _check_probability(v) -> None:
    if not isinstance(v, (int, float, Fraction)) or isinstance(v, bool):
        raise InvalidTupleError(f"unsupported value type {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        raise InvalidTupleError(f"non-finite value {v!r}")
    if not 0 <= v <= 1:
        raise InvalidTupleError(f"value {_describe(v)} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class ProbTuple:
    """An ordered n-tuple of probabilities, n >= 3, with cyclic indexing.

    ``t[i]`` wraps modulo n, so ``t[n] == t[0]``.  Values may be floats or
    exact rationals; arithmetic helpers preserve whichever kind is stored.
    """

    values: tuple[Number, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 3:
            raise InvalidTupleError(f"need n >= 3 coordinates, got {len(values)}")
        for v in values:  # a plain float or Fraction in [0, 1] passes at once; nan fails the test
            if not (type(v) is float and 0.0 <= v <= 1.0
                    or type(v) is Fraction and 0 <= v.numerator <= v.denominator):
                _check_probability(v)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Number:
        return self.values[i % len(self.values)]

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return format_tuple(self)


def as_tuple(t: ProbTuple | Sequence[Number]) -> ProbTuple:
    """t itself if it is a ProbTuple, else a validated ProbTuple of its values."""
    return t if isinstance(t, ProbTuple) else ProbTuple(tuple(t))


def in_region(t: ProbTuple | Sequence[Number], predicate: Callable) -> bool:
    """Whether the exact value of t lies in the region of ``predicate``, one
    of the region predicates of ``triple`` or ``ntuple`` (``triple.c3_i``,
    ``ntuple.d_i``, ...)."""
    return bool(decide_exactly(predicate, as_tuple(t).values))


def _one_minus(v: Number) -> Number:
    # fl(1 - v) lies in [0, 1], so 1.0 - fl(1 - v) is exact (Sterbenz) and
    # equals v exactly when the float complement was exact
    c = 1 - v
    return c if not isinstance(v, float) or 1.0 - c == v else 1 - Fraction(v)


def complement(t: ProbTuple) -> ProbTuple:
    """The exact coordinatewise complement (1-x_1, ..., 1-x_n).  Involutive,
    and preserves the cyclic property.  A float coordinate keeps a float
    complement when ``1 - x`` is exact and gets a Fraction otherwise."""
    return ProbTuple(tuple(_one_minus(v) for v in t.values))


def rotate(t: ProbTuple, k: int) -> ProbTuple:
    """Cyclic left shift by k (mod n): rotate((a,b,c), 1) == (b,c,a)."""
    k %= t.n
    return ProbTuple(t.values[k:] + t.values[:k])


def reverse(t: ProbTuple) -> ProbTuple:
    """The reversed tuple (x_n, ..., x_1)."""
    return ProbTuple(t.values[::-1])


def _token_digits(tok: str) -> int:
    """An upper bound, read from the text alone, on the digits of the
    numerator and denominator that ``Fraction(tok)`` computes: a decimal
    exponent e+-k adds k digits."""
    if "/" in tok:
        return max(sum(c.isdigit() for c in part) for part in tok.split("/"))
    mantissa, _, exponent = tok.lower().partition("e")
    try:
        shift = abs(int(exponent)) if exponent else 0
    except ValueError:  # malformed or over int()'s own limit: Fraction refuses it too
        return 0
    return sum(c.isdigit() for c in mantissa) + shift + 1


def parse_tuple(text: str, exact: bool = False) -> ProbTuple:
    """Parse the canonical textual form, e.g. ``"5/9,5/9,5/9"`` or
    ``"0.6,0.5,0.3,0.4"``.

    Tokens with a slash always become exact Fractions.  Decimal tokens
    become floats by default; with ``exact=True`` they are read as exact
    decimal fractions instead ("0.6" -> 3/5), which the witness path needs.
    An exact token whose numerator or denominator would have more than
    ``MAX_TOKEN_DIGITS`` digits is refused before it is converted.
    """
    tokens = [tok.strip() for tok in text.split(",")]
    if any(not tok for tok in tokens):
        raise InvalidTupleError(f"malformed tuple string {reprlib.repr(text)}")
    values: list[Number] = []
    for tok in tokens:
        if ("/" in tok or exact) and _token_digits(tok) > MAX_TOKEN_DIGITS:
            raise InvalidTupleError(
                f"tuple entry {reprlib.repr(tok)} has a numerator or denominator "
                f"of more than {MAX_TOKEN_DIGITS} digits"
            )
        try:
            if "/" in tok or exact:
                values.append(Fraction(tok))
            else:
                values.append(float(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidTupleError(f"malformed tuple entry {reprlib.repr(tok)}") from exc
    return ProbTuple(tuple(values))


def format_value(v: Number) -> str:
    return repr(v) if isinstance(v, float) else str(Fraction(v))


def format_tuple(t: ProbTuple) -> str:
    return ",".join(format_value(v) for v in t.values)


@dataclass(frozen=True, slots=True)
class DiscreteDist:
    """A finitely supported distribution with exact rational weights, held
    on integers: atom i is the point ``points[i] / dp`` with the weight
    ``weights[i] / dw``.

    The points are distinct and the weights nonnegative, summing exactly to
    ``dw``.  The atoms are stored sorted by point, and the denominators as
    given: a gcd over one distribution's numerators takes time quadratic in
    their length.  ``==`` compares the reduced ``atoms`` instead, so it is
    value equality.
    """

    points: tuple[int, ...]
    weights: tuple[int, ...]
    dp: int = 1
    dw: int = 1

    def __post_init__(self) -> None:
        points, weights, dp, dw = self.points, self.weights, self.dp, self.dw
        if len(points) != len(weights):
            raise ValueError(f"{len(points)} points but {len(weights)} weights")
        if dp < 1 or dw < 1:
            raise ValueError("denominators must be positive")
        if len(set(points)) != len(points):
            raise ValueError("support points must be distinct")
        if weights and min(weights) < 0:
            raise ValueError(f"negative weight {Fraction(next(w for w in weights if w < 0), dw)}")
        if sum(weights) != dw:
            raise ValueError(f"weights sum to {Fraction(sum(weights), dw)}, not 1")
        # ``build_witness`` passes sorted tuples: leave those as they are.
        if type(points) is not tuple or type(weights) is not tuple or sorted(points) != list(points):
            pairs = sorted(zip(points, weights))
            object.__setattr__(self, "points", tuple([p for p, _ in pairs]))
            object.__setattr__(self, "weights", tuple([w for _, w in pairs]))

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteDist) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple]) -> "DiscreteDist":
        """The distribution of the (point, weight) pairs in ``atoms``, each
        value exact: an int, a float, a Fraction or a "p/q" string."""
        ratios = [(Fraction(p).as_integer_ratio(), Fraction(w).as_integer_ratio()) for p, w in atoms]
        points, dp = _common([p for p, _ in ratios])
        weights, dw = _common([w for _, w in ratios])
        return cls(tuple(points), tuple(weights), dp, dw)

    @classmethod
    def from_faces(cls, faces: Sequence[Number]) -> "DiscreteDist":
        """Uniform distribution over die faces (repeated faces merge)."""
        counts = Counter(map(Fraction, faces))
        return cls.from_atoms((p, Fraction(c, len(faces))) for p, c in counts.items())

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (point, weight) pairs as reduced Fractions, in point order."""
        dp, dw = self.dp, self.dw
        return tuple((Fraction(p, dp), Fraction(w, dw)) for p, w in zip(self.points, self.weights))

    def prob_greater_than(self, other: "DiscreteDist") -> Fraction:
        """P(self > other), exact, by one merge of the two sorted supports
        with a running sum of other's weights strictly below each point."""
        a_points, b_points, b_weights = self.points, other.points, other.weights
        if self.dp != other.dp:  # a/a_dp > b/b_dp  iff  a*b_dp > b*a_dp
            a_points = [p * other.dp for p in a_points]
            b_points = [p * self.dp for p in b_points]
        total = below = j = 0
        m = len(b_points)
        for p, w in zip(a_points, self.weights):
            while j < m and b_points[j] < p:
                below += b_weights[j]
                j += 1
            total += w * below
        return Fraction(total, self.dw * other.dw)


def _common(ratios: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of the fractions p/q in ``ratios`` on d, the lcm of
    their denominators, and d; refused once the list would pass
    ``MAX_VIEW_BITS``."""
    count, d = len(ratios), 1
    for q in {q for _, q in ratios}:
        d = math.lcm(d, q)
        if d.bit_length() * count > MAX_VIEW_BITS:
            raise ValueError(
                f"{count} atoms need a common denominator of more than "
                f"{MAX_VIEW_BITS // count} bits"
            )
    return [p * (d // q) for p, q in ratios], d


def _wire_value(atom, key: str) -> Fraction:
    """One exact value of a witness atom: a "p/q" string or a JSON number."""
    if not isinstance(atom, dict) or key not in atom:
        raise ValueError(
            f'each witness atom must be an object with "point" and "weight", got {reprlib.repr(atom)}'
        )
    value = atom[key]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"witness atom {key} must be a p/q string or a number, got {reprlib.repr(value)}")
    if isinstance(value, str) and _token_digits(value) > MAX_TOKEN_DIGITS:
        raise ValueError(
            f"witness atom {key} {reprlib.repr(value)} has a numerator or denominator "
            f"of more than {MAX_TOKEN_DIGITS} digits"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"witness atom {key} {reprlib.repr(value)} is not a finite rational") from None


@dataclass(frozen=True, slots=True)
class WitnessSystem:
    """n distributions with pairwise-disjoint supports, certifying a tuple
    cyclic via exact computation of all the cycle probabilities."""

    dists: tuple[DiscreteDist, ...]

    def __post_init__(self) -> None:
        dists = tuple(self.dists)
        object.__setattr__(self, "dists", dists)
        if len(dists) < 3:
            raise ValueError("a witness needs at least 3 distributions")
        points = {(p // g, d.dp // g) for d in dists for p in d.points for g in [math.gcd(p, d.dp)]}
        if len(points) != sum(len(d.points) for d in dists):
            raise ValueError("supports of distinct distributions must be disjoint")

    @property
    def n(self) -> int:
        return len(self.dists)

    def cycle_probabilities(self) -> tuple[Fraction, ...]:
        """(P(U_2 > U_1), ..., P(U_1 > U_n)), each exact."""
        dists = self.dists
        return tuple(b.prob_greater_than(a) for a, b in zip(dists, dists[1:] + dists[:1]))

    def to_json_dict(self) -> dict:
        """Lossless wire form: rational values as "p/q" strings."""
        return {
            "n": self.n,
            "dists": [
                [{"point": str(p), "weight": str(w)} for p, w in d.atoms] for d in self.dists
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WitnessSystem":
        """Parse the wire form of ``to_json_dict``; malformed input raises
        ValueError."""
        dists = data.get("dists") if isinstance(data, dict) else None
        if not isinstance(dists, list):
            raise ValueError('witness JSON needs a "dists" list')
        count = sum(len(atoms) for atoms in dists if isinstance(atoms, list))
        if count > MAX_WITNESS_ATOMS:
            raise ValueError(f"witness has {count} atoms, at most {MAX_WITNESS_ATOMS} allowed")
        parsed, bits = [], 0
        for atoms in dists:
            if not isinstance(atoms, list):
                raise ValueError("each witness distribution must be a list of atoms")
            pairs = ((_wire_value(a, "point"), _wire_value(a, "weight")) for a in atoms)
            dist = DiscreteDist.from_atoms(pairs)
            bits += len(dist.points) * (dist.dp.bit_length() + dist.dw.bit_length())
            if bits > MAX_VIEW_BITS:
                raise ValueError(
                    f"witness distributions need more than {MAX_VIEW_BITS} bits of "
                    "numerators in all"
                )
            parsed.append(dist)
        system = cls(tuple(parsed))
        if "n" in data and data["n"] != system.n:
            raise ValueError(f"declared n={_describe(data['n'])} but found {system.n} distributions")
        return system


@dataclass(frozen=True, slots=True)
class Verdict:
    """The certificate that decided a tuple, which fixes the status, and
    the witness that only a Cyclic verdict may carry."""

    reason: Reason
    witness: WitnessSystem | None = None

    def __post_init__(self) -> None:
        status = self.status  # KeyError for anything that is not a reason's value
        if not isinstance(self.reason, Reason):
            raise TypeError(f"reason must be a Reason, got {self.reason!r}")
        if status is not Status.CYCLIC and self.witness is not None:
            raise ValueError("only Cyclic verdicts may carry a witness")

    @property
    def status(self) -> Status:
        return _STATUS[self.reason]

    def to_dict(self) -> dict:
        out: dict = {"status": self.status.value, "reason": self.reason.value}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo point estimate with its Bernoulli standard error.

    Results are a pure function of (seed, samples, chunks): reruns are
    bit-identical, and changing only the chunk count does not change the
    estimate (substreams are assigned by global sample index).
    """

    estimate: float
    stderr: float
    samples: int
    seed: int
    chunks: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.estimate <= 1:
            raise ValueError("estimate outside [0, 1]")
        if self.stderr < 0:
            raise ValueError("negative standard error")
        if self.samples < 1 or self.chunks < 1:
            raise ValueError("samples and chunks must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DensityGrid:
    """Tabulated (x, density) pairs for one of the order-statistic
    densities f1 (smallest), f2 (middle), f3 (largest)."""

    which: str
    xs: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.which not in ("f1", "f2", "f3"):
            raise ValueError(f"unknown density {self.which!r}")
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("abscissas must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")

    def __len__(self) -> int:
        return len(self.xs)

    def points(self) -> Iterable[tuple[float, float]]:
        return zip(self.xs.tolist(), self.values.tolist())
