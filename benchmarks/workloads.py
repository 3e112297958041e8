"""The four workloads: seeded inputs, one round of fixed work, and checks.

A round is the unit every run repeats: the same operations on the same
inputs, so that a run's ``attempted`` and ``failed`` are whole multiples
of one round's.  ``run_round`` is the only timed call.  Every round's
output must have the same ``fingerprint``; ``check`` tests a
round's outputs against the independent oracle (``oracle.py``) and
against properties the method must have; it never consults a stored copy
of earlier output, and it never uses the library's own constants or
predicates as the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np

import oracle
from cyclictuples import cli, core, mc, ntuple, triple
from cyclictuples.core import Status

SIGMAS = 5.0  # Monte Carlo checks: |estimate - truth| <= 5 standard errors
# Per-bin histogram checks: a small bin mass has a binomial tail fatter than
# the normal one; at 6 sigma the 110 live bins of a `sample` run together
# fail by chance with probability 7e-6 (5 sigma: 2e-4).
BIN_SIGMAS = 6.0


def _sub_seed(rnd: random.Random) -> int:
    return rnd.getrandbits(62)


def _se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


class Workload:
    """Inputs are built from the run's seed in ``__init__``."""

    name = ""
    # The host-speed kernels (hostspeed.py) of the same kind as the work
    # of a round, which track the host's speed for it.
    speed_kernels = ("python", "numpy")

    def warm_up(self) -> None:
        """Finish lazy set-up: first calls of every operation, on small inputs."""

    def run_round(self):
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def check(self, out) -> tuple[int, list[str]]:
        """(failed operations, problems).  A problem is a wrong output of
        an operation that is not expected to fail; any problem makes the
        run incorrect."""
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        """A digest of a round's whole output.  Rounds repeat the same work
        on the same inputs, so every round's digest must be the same; only
        digests are kept between rounds, so that no earlier output adds to
        a later round's peak memory."""
        return hashlib.sha256(repr(out).encode()).hexdigest()

    def final_checks(self) -> list[str]:
        """Checks that run once after the timed rounds."""
        return []


# ------------------------------------------------------------------ estimate

class Estimate(Workload):
    """Single-threaded ``mc.estimate`` over every single-region target,
    ``vol_Dn_star`` for n = 3..8 and ``pn_bracket`` for n = 4..8."""

    name = "estimate"
    SAMPLES = 100_000

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        self.specs = []
        for target in ("p3", "p3_star", "vol_C3_I", "vol_C3_II", "vol_C3_ordered"):
            self.specs.append(mc.EstimatorSpec(target, self.SAMPLES, _sub_seed(rnd)))
        for n in range(3, 9):
            self.specs.append(mc.EstimatorSpec("vol_Dn_star", self.SAMPLES, _sub_seed(rnd), n=n))
        for n in range(4, 9):
            self.specs.append(mc.EstimatorSpec("pn_bracket", self.SAMPLES, _sub_seed(rnd), n=n))

    def warm_up(self):
        for spec in self.specs:
            mc.estimate(mc.EstimatorSpec(spec.target, 1024, spec.seed, n=spec.n))

    def run_round(self):
        return [mc.estimate(spec) for spec in self.specs]

    def ops_per_round(self):
        return len(self.specs)

    @staticmethod
    def _values(result):
        if isinstance(result, dict):
            return (result["lower"].estimate, result["upper"].estimate)
        return (result.estimate,)

    def check(self, out):
        vols = oracle.volumes()
        truth = {
            "p3": vols["p3"],
            "p3_star": vols["p3_star"],
            "vol_C3_I": vols["vol_I"],
            "vol_C3_II": vols["vol_II"],
            "vol_C3_ordered": vols["p3"] / 6.0,
        }
        problems = []
        for spec, res in zip(self.specs, out):
            label = f"{spec.target}(n={spec.n}, seed={spec.seed})"
            if spec.target == "pn_bracket":
                lo, up = res["lower"].estimate, res["upper"].estimate
                b = oracle.pn_bounds(spec.n)
                se = 0.5 / math.sqrt(spec.samples)
                if not lo <= up:
                    problems.append(f"{label}: lower {lo} > upper {up}")
                if lo - SIGMAS * se > b["upper"]:
                    problems.append(f"{label}: lower {lo} above 1 - 2*4^-n = {b['upper']}")
                if up + SIGMAS * se < max(b["lower"], b["sharper_lower"]):
                    problems.append(f"{label}: upper {up} below the lower bounds {b}")
                continue
            p = float(oracle.vol_dn_star(spec.n)) if spec.target == "vol_Dn_star" else truth[spec.target]
            if abs(res.estimate - p) > SIGMAS * _se(p, spec.samples):
                problems.append(f"{label}: {res.estimate} vs oracle {p}")
            if res.samples != spec.samples or res.seed != spec.seed:
                problems.append(f"{label}: echoed samples/seed differ")
        return 0, problems

    def final_checks(self):
        """Counts at 2 chunks (two threads) must be bit-identical to 1 chunk."""
        problems = []
        one = self.run_round()
        for spec, res in zip(self.specs, one):
            two = mc.estimate(mc.EstimatorSpec(spec.target, spec.samples, spec.seed, 2, spec.n))
            if self._values(two) != self._values(res):
                problems.append(f"{spec.target}(n={spec.n}): 2 chunks {two} != 1 chunk {res}")
        return problems


# ------------------------------------------------------------------ sample

def _exactly_ordered_cyclic(pts: np.ndarray) -> list[int]:
    """Indices of rows that are not x <= y <= z and cyclic in exact
    arithmetic.  Float evaluation of x + y*z is within 1e-15 of the exact
    value on [0, 1]^3, so rows clear of 1 by 1e-9 are decided by floats;
    the rest are decided by the oracle on Fractions."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    bad = np.flatnonzero(~((x <= y) & (y <= z) & (0.0 <= x) & (z <= 1.0)))
    a, b, c = 1.0 - x, 1.0 - y, 1.0 - z
    first = np.minimum(np.minimum(x + y * z, y + z * x), z + x * y)
    second = np.minimum(np.minimum(a + b * c, b + c * a), c + a * b)
    margin = 1e-9
    certain_in = (first <= 1.0 - margin) & (second <= 1.0 - margin)
    certain_out = (first > 1.0 + margin) | (second > 1.0 + margin)
    out = set(bad.tolist()) | set(np.flatnonzero(certain_out).tolist())
    for i in np.flatnonzero(~certain_in & ~certain_out).tolist():
        if not oracle.trybula_cyclic(*(Fraction(float(v)) for v in pts[i])):
            out.add(i)
    return sorted(out)


class Sample(Workload):
    """``triple.sample_ordered_cyclic`` on one large and many small requests,
    ``mc.histogram`` for f1/f2/f3, and the densities on a grid."""

    name = "sample"
    speed_kernels = ("numpy",)  # the rng's passes over 25-MB arrays are nearly all of a round
    LARGE = 1_000_000
    SMALL = 1_000
    N_SMALL = 8
    HIST_SAMPLES = 100_000
    BINS = 50
    GRID = np.linspace(0.0, 1.0, 1001).tolist()

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        self.requests = [(self.LARGE, _sub_seed(rnd))]
        self.requests += [(self.SMALL, _sub_seed(rnd)) for _ in range(self.N_SMALL)]
        self.hist_seeds = {w: _sub_seed(rnd) for w in ("f1", "f2", "f3")}
        self.partial_upper = rnd.uniform(0.1, 0.6)

    def warm_up(self):
        triple.sample_ordered_cyclic(10, self.requests[0][1])
        mc.histogram("f1", 10, 10, self.hist_seeds["f1"])
        triple.density_stats("f1")
        triple.integrate_density("f2")

    def run_round(self):
        out = {"samples": [triple.sample_ordered_cyclic(n, s) for n, s in self.requests]}
        out["hist"] = {w: mc.histogram(w, self.HIST_SAMPLES, self.BINS, s)
                       for w, s in self.hist_seeds.items()}
        out["grid"] = {w: [triple.density(w, x) for x in self.GRID] for w in ("f1", "f2", "f3")}
        out["stats"] = {w: triple.density_stats(w) for w in ("f1", "f2", "f3")}
        out["mass"] = {w: triple.integrate_density(w) for w in ("f1", "f2", "f3")}
        out["partial"] = triple.integrate_density("f1", self.partial_upper)
        return out

    def ops_per_round(self):
        return len(self.requests) + 3 + 3 + 3 + 3 + 1  # histograms, grids, stats, masses, partial

    def fingerprint(self, out):
        h = hashlib.sha256()
        for arr in out["samples"] + [grid.values for grid in out["hist"].values()]:
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((out["grid"], out["stats"], out["mass"], out["partial"])).encode())
        return h.hexdigest()

    def check(self, out):
        problems = []
        for (n, s), pts in zip(self.requests, out["samples"]):
            if pts.shape != (n, 3):
                problems.append(f"sample({n}, {s}): shape {pts.shape}")
                continue
            wrong = _exactly_ordered_cyclic(pts)
            if wrong:
                problems.append(f"sample({n}, {s}): rows {wrong[:5]} not ordered and cyclic")
        big = out["samples"][0]
        for col, which in enumerate(("f1", "f2", "f3")):
            mean, var = oracle.moments(which)
            got = float(big[:, col].mean())
            if abs(got - mean) > SIGMAS * math.sqrt(var / len(big)):
                problems.append(f"sample: column {col} mean {got} vs oracle {mean}")
        for which, grid in out["hist"].items():
            masses = oracle.bin_masses(which, self.BINS)
            got = grid.values / self.BINS  # bin heights times width = bin shares
            for k, (p, q) in enumerate(zip(masses, got.tolist())):
                if abs(q - p) > BIN_SIGMAS * _se(p, self.HIST_SAMPLES) + 1e-12:
                    problems.append(f"histogram {which} bin {k}: share {q} vs oracle {p}")
        for which, values in out["grid"].items():
            f = oracle.DENSITIES[which]
            err = max(abs(v - float(f(x))) for x, v in zip(self.GRID, values))
            if err > 1e-9:
                problems.append(f"density {which}: max error {err} on the grid")
        for which, got in out["stats"].items():
            want = oracle.stats(which)
            for key, tol in (("mean", 1e-9), ("median", 1e-8), ("mode", 1e-6)):
                if abs(got[key] - want[key]) > tol:
                    problems.append(f"density_stats {which} {key}: {got[key]} vs {want[key]}")
        for which, mass in out["mass"].items():
            if abs(mass - 1.0) > 1e-9:
                problems.append(f"integrate_density {which}: {mass}")
        want = float(oracle.cdf("f1", self.partial_upper))
        if abs(out["partial"] - want) > 1e-9:
            problems.append(f"integrate_density f1 to {self.partial_upper}: {out['partial']} vs {want}")
        return 0, problems


# ------------------------------------------------------------------ decide

BOUNDARY_SEED = 20121205  # fixed: the boundary triples do not depend on --seed
BOUNDARY_COUNT = 200


def _text(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else f"{v.numerator}/{v.denominator}"
                    for v in values)


def _rational(rnd: random.Random) -> Fraction:
    q = rnd.randint(1, 99)
    return Fraction(rnd.randint(0, q), q)


def boundary_triples() -> list[tuple[float, float, float]]:
    """Float triples on Trybula's first boundary, x = fl(1 - y*z)."""
    rnd = random.Random(BOUNDARY_SEED)
    out = []
    for _ in range(BOUNDARY_COUNT):
        y, z = rnd.random(), rnd.random()
        out.append((1.0 - y * z, y, z))
    return out


class Decide(Workload):
    """A stream of tuples through ``core.parse_tuple``, ``ntuple.decide_ntuple``
    with witnesses, ``ntuple.verify_witness`` and the symmetry operations."""

    name = "decide"

    def __init__(self, seed: int):
        rnd = random.Random(seed)
        items = []  # (kind, values)
        items += [("float3", tuple(rnd.random() for _ in range(3))) for _ in range(300)]
        items += [("rational3", tuple(_rational(rnd) for _ in range(3))) for _ in range(150)]
        items += [("boundary3", t) for t in boundary_triples()]
        # lengths cycle through 4..10, so that only values depend on the seed
        items += [("floatN", tuple(rnd.random() for _ in range(4 + i % 7))) for i in range(301)]
        items += [("rationalN", tuple(_rational(rnd) for _ in range(4 + i % 7))) for i in range(147)]
        items.append(("long", tuple(_rational(rnd) for _ in range(200))))
        items.append(("long", tuple(rnd.random() for _ in range(500))))
        items.append(("long", tuple(rnd.random() for _ in range(1000))))
        self.items = [(kind, values, _text(values), rnd.randrange(1, len(values)))
                      for kind, values in items]

    def warm_up(self):
        for kind in ("float3", "rational3", "floatN", "rationalN"):
            _, _, text, k = next(it for it in self.items if it[0] == kind)
            self._one(kind, text, k)

    @staticmethod
    def _one(kind, text, k):
        t = core.parse_tuple(text)
        verdict = ntuple.decide_ntuple(t)
        verified = None
        if verdict.witness is not None:
            verified = ntuple.verify_witness(verdict.witness, t)
        if kind == "boundary3":
            return t, verdict, verified, None
        sym = []
        for u in (core.rotate(t, k), core.reverse(t), core.complement(t)):
            sym.append((u, ntuple.decide_ntuple(u, with_witness=False).status))
        return t, verdict, verified, sym

    def run_round(self):
        return [self._one(kind, text, k) for kind, _, text, k in self.items]

    def ops_per_round(self):
        return len(self.items)

    def _item_problems(self, item, result) -> list[str]:
        kind, values, _, k = item
        t, verdict, verified, sym = result
        exact = [Fraction(v) for v in values]
        label = f"{kind} {_text(values)[:80]}"
        if t.values != values:
            return [f"{label}: parsed as {t.values[:5]}"]
        status = verdict.status
        out = []
        if len(values) == 3:
            want = Status.CYCLIC if oracle.trybula_cyclic(*exact) else Status.NOT_CYCLIC
            if status is not want:
                out.append(f"{label}: {status.value}, exact Trybula says {want.value}")
        elif status is Status.CYCLIC:
            if verdict.witness is None:
                out.append(f"{label}: Cyclic without a witness")
            else:
                dists = [d.atoms for d in verdict.witness.dists]
                if oracle.cycle_probabilities(dists) != exact:
                    out.append(f"{label}: witness cycle probabilities differ from the tuple")
                if verified is not True:
                    out.append(f"{label}: verify_witness returned {verified}")
            if not oracle.updown_holds(exact):
                out.append(f"{label}: Cyclic but no index has s_i >= 1, s_(i+2) <= 1")
        elif status is Status.NOT_CYCLIC:
            if not oracle.pi_n_excludes(exact):
                out.append(f"{label}: NotCyclic but the pi_n test does not hold")
        elif oracle.updown_holds(exact) or oracle.pi_n_excludes(exact):
            out.append(f"{label}: Unknown although a sufficient or necessary test decides it")
        if sym is not None:
            n = len(values)
            want_values = (values[k:] + values[:k], values[::-1], tuple(1 - v for v in values))
            for (u, other), wv, op in zip(sym, want_values, ("rotate", "reverse", "complement")):
                if u.values != wv:
                    out.append(f"{label}: {op} gave the wrong tuple")
                elif Status.UNKNOWN not in (status, other) and other is not status:
                    out.append(f"{label}: {op} changes {status.value} to {other.value} (n={n})")
        return out

    def check(self, out):
        failed, problems = 0, []
        for item, result in zip(self.items, out):
            wrong = self._item_problems(item, result)
            if not wrong:
                continue
            if item[0] == "boundary3":
                failed += 1  # the known rounding fault: counted, not fatal
            else:
                problems.extend(wrong)
        return failed, problems


# ------------------------------------------------------------------ report

class Report(Workload):
    """``cli.main(["report", ...])`` in-process with stdout captured."""

    name = "report"
    SCALE = 0.02
    CHUNKS = 2
    SECTIONS = ("exact_volumes", "mc_volumes", "densities", "f1_stats", "histograms",
                "vol_Dn_star", "alternating", "pn_brackets", "witnesses", "symmetry",
                "determinism")

    def __init__(self, seed: int):
        self.report_seed = random.Random(seed).randrange(1, 2**31)
        self.argv = ["report", "--samples-scale", str(self.SCALE), "--seed",
                     str(self.report_seed), "--chunks", str(self.CHUNKS)]

    @staticmethod
    def _run(argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cyclictuples {' '.join(argv)} exited {code}")
        return buf.getvalue()

    def warm_up(self):
        self._run(["report", "--samples-scale", "0.0001", "--seed", "1",
                   "--chunks", str(self.CHUNKS)])

    def run_round(self):
        return self._run(self.argv)

    def ops_per_round(self):
        return len(self.SECTIONS)

    def check(self, out):
        rep = json.loads(out)
        sections = {name: [] for name in self.SECTIONS}
        for name in rep:
            if name not in sections:
                sections.setdefault("unexpected", []).append(f"unexpected section {name}")
        for name in self.SECTIONS:
            if name not in rep:
                sections[name].append("missing")
            else:
                try:
                    getattr(self, f"_check_{name}")(rep[name], sections[name])
                except (KeyError, TypeError, ValueError) as exc:
                    sections[name].append(f"malformed: {exc!r}")
        problems = [f"report {name}: {p}" for name, ps in sections.items() for p in ps]
        return 0, problems

    @property
    def n_big(self):
        return max(1000, int(1e7 * self.SCALE))

    @property
    def n_mid(self):
        return max(1000, int(1e6 * self.SCALE))

    def _check_exact_volumes(self, sec, bad):
        for key, want in oracle.volumes().items():
            if abs(sec[key] - want) > 1e-12:
                bad.append(f"{key} = {sec[key]}, oracle {want}")
        if sec["identity_p3_rel_err"] > 1e-14 or sec["identity_p3_star_rel_err"] > 1e-14:
            bad.append("closed-form identities do not hold")

    def _check_mc_volumes(self, sec, bad):
        vols = oracle.volumes()
        for key in ("p3", "p3_star"):
            e, p = sec[key], vols[key]
            if e["samples"] != self.n_big or e["chunks"] != self.CHUNKS:
                bad.append(f"{key}: samples/chunks {e['samples']}/{e['chunks']}")
            if abs(e["estimate"] - p) > SIGMAS * _se(p, self.n_big):
                bad.append(f"{key}: estimate {e['estimate']} vs oracle {p}")
            if abs(e["closed_form"] - p) > 1e-12:
                bad.append(f"{key}: closed_form {e['closed_form']}")
            if abs(e["stderr"] - _se(e["estimate"], self.n_big)) > 1e-12:
                bad.append(f"{key}: stderr {e['stderr']}")
            if e["stderr"] > 0 and abs(e["sigmas_off"] - abs(e["estimate"] - e["closed_form"]) / e["stderr"]) > 1e-9:
                bad.append(f"{key}: sigmas_off {e['sigmas_off']}")

    def _check_densities(self, sec, bad):
        for w, err in sec["normalization_error"].items():
            if not 0 <= err <= 1e-9:
                bad.append(f"normalization {w}: {err}")
        if sec["f2_symmetry_max_err"] > 1e-12 or sec["f3_reflection_max_err"] > 1e-12:
            bad.append("symmetry errors above 1e-12")

    def _check_f1_stats(self, sec, bad):
        want = oracle.stats("f1")
        for key, tol in (("mean", 1e-9), ("median", 1e-8), ("mode", 1e-6)):
            if abs(sec[key] - want[key]) > tol:
                bad.append(f"{key} {sec[key]} vs oracle {want[key]}")
            if abs(sec[key] - sec["published"][key]) > 1e-3:
                bad.append(f"{key} {sec[key]} vs published {sec['published'][key]}")
        base = sec["baseline"]
        if abs(base["mean"] - 0.25) > 1e-15 or abs(base["median"] - (1 - 2 ** (-1 / 3))) > 1e-15:
            bad.append(f"baseline stats {base}")

    def _hist_bound(self, which, bins, n):
        """Largest |histogram - f(centre)| the sampling error allows: per
        bin, the oracle's bias of the bin mean plus 5 binomial sigmas."""
        masses = oracle.bin_masses(which, bins)
        f = oracle.DENSITIES[which]
        bound = 0.0
        for k, p in enumerate(masses):
            centre = (k + 0.5) / bins
            bias = abs(p * bins - float(f(centre)))
            bound = max(bound, bias + (SIGMAS * _se(p, n) + 1.0 / n) * bins)
        return bound

    def _check_histograms(self, sec, bad):
        for which in ("f1", "f2"):
            h = sec[which]
            if h["samples"] != self.n_mid or h["bins"] != 50:
                bad.append(f"{which}: samples/bins {h['samples']}/{h['bins']}")
            bound = self._hist_bound(which, 50, self.n_mid)
            if not 0 <= h["sup_norm_error"] <= bound:
                bad.append(f"{which}: sup error {h['sup_norm_error']} above {bound}")
        if sec["f1_mass_above_omega"] != 0:
            bad.append(f"f1 mass above omega: {sec['f1_mass_above_omega']}")

    def _check_vol_Dn_star(self, sec, bad):
        for n in (3, 4, 5, 6):
            e = sec[str(n)]
            want = oracle.vol_dn_star(n)
            if Fraction(e["exact"]) != want or e["exact_float"] != float(want):
                bad.append(f"n={n}: exact {e['exact']} vs oracle {want}")
            if abs(e["estimate"] - float(want)) > SIGMAS * _se(float(want), self.n_big):
                bad.append(f"n={n}: estimate {e['estimate']} vs oracle {float(want)}")

    def _check_alternating(self, sec, bad):
        if sec["A_1_to_10"] != [oracle.zigzag(n) for n in range(1, 11)]:
            bad.append(f"A_1..A_10 = {sec['A_1_to_10']}")
        want = max(Fraction(oracle.zigzag(n), math.factorial(n)) / 3 / (2 / math.pi) ** (n + 1)
                   for n in range(1, 31))
        if not sec["andre_bound_max_ratio"] <= 1 or abs(sec["andre_bound_max_ratio"] - want) > 1e-9:
            bad.append(f"andre ratio {sec['andre_bound_max_ratio']} vs oracle {want}")

    def _check_pn_brackets(self, sec, bad):
        for n in range(4, 9):
            e = sec[str(n)]
            lo, up = e["lower"]["estimate"], e["upper"]["estimate"]
            want = oracle.pn_bounds(n)
            for key in ("lower", "sharper_lower", "upper"):
                if abs(e["bounds"][key] - want[key]) > 1e-12:
                    bad.append(f"n={n}: bound {key} {e['bounds'][key]} vs oracle {want[key]}")
            se = 0.5 / math.sqrt(self.n_mid)
            if not (lo <= up and lo - SIGMAS * se <= want["upper"]
                    and up + SIGMAS * se >= want["sharper_lower"]):
                bad.append(f"n={n}: bracket [{lo}, {up}] inconsistent with {want}")
            if e["consistent"] is not True:
                bad.append(f"n={n}: report says inconsistent")

    def _check_witnesses(self, sec, bad):
        n_wit = max(20, int(1000 * self.SCALE))
        if sec["random_tuples_verified"] != n_wit or sec["random_tuples_failed"] != 0:
            bad.append(f"{sec['random_tuples_verified']} verified, {sec['random_tuples_failed']} failed")
        if not (sec["efron_verifies"] and sec["moon_moser_verifies"] and sec["pass"]):
            bad.append("dice fixtures or pass flag false")

    def _check_symmetry(self, sec, bad):
        n_sym = max(200, int(1e5 * self.SCALE))
        if sec["samples"] != n_sym or sec["triple_violations"] or sec["ntuple_violations"]:
            bad.append(f"symmetry {sec}")
        if not 0 <= sec["unknown_exempted"] <= 3 * (n_sym // 2) or sec["pass"] is not True:
            bad.append(f"symmetry {sec}")

    def _check_determinism(self, sec, bad):
        if sec != {"repeat_identical": True, "chunk_invariant": True}:
            bad.append(f"determinism {sec}")


WORKLOADS = {w.name: w for w in (Estimate, Sample, Decide, Report)}
