"""Acceptance gate: one test per criterion, at the stated tolerances.

Every measured number comes from ``cyclictuples.checks``, the same
functions behind ``cyclictuples report``; each test picks its sample size,
seed and chunk count, and the tolerances and published constants it
asserts live here.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see one printed PASS line (with the measured numbers) per criterion.
"""

import math
from itertools import permutations

from cyclictuples import checks

SEED = 20240810


def _ok(num: int, detail: str) -> None:
    print(f"[criterion {num:2d}] PASS  {detail}")


def test_criterion_01_exact_volumes():
    v = checks.exact_volumes()
    assert abs(v["p3"] - 0.6275748) <= 1e-6
    assert abs(v["p3_star"] - 0.0112175) <= 1e-6
    rel_star, rel_p3 = v["identity_p3_star_rel_err"], v["identity_p3_rel_err"]
    assert rel_star <= 1e-14
    assert rel_p3 <= 1e-14
    _ok(1, f"p3={v['p3']:.10f} p3*={v['p3_star']:.10f} identity rel errs {rel_star:.1e}/{rel_p3:.1e}")


def test_criterion_02_monte_carlo_triple_volumes():
    section = checks.mc_volumes(samples=10_000_000, seed=SEED, chunks=8)
    sigmas = {target: est["sigmas_off"] for target, est in section.items()}
    for target, off in sigmas.items():
        est = section[target]
        assert off <= 4.0, f"{target}: {est['estimate']} vs {est['closed_form']} is {off:.2f} sigmas"
    _ok(2, f"10^7 samples: p3 off {sigmas['p3']:.2f} sigma, p3* off {sigmas['p3_star']:.2f} sigma")


def test_criterion_03_density_identities():
    d = checks.densities()
    errs = d["normalization_error"]
    assert all(e <= 1e-8 for e in errs.values())
    sym = d["f2_symmetry_max_err"]
    assert sym <= 1e-12
    assert d["f3_reflection_max_err"] == 0.0
    _ok(3, f"normalization errs {max(errs.values()):.1e}, f2 symmetry max {sym:.1e}, f3 reflection exact")


def test_criterion_04_table_statistics():
    s = checks.f1_stats()
    for key, published in (("mean", 0.211), ("median", 0.197), ("mode", 0.107)):
        assert abs(s[key] - published) <= 5e-3, (key, s[key])
    base = s["baseline"]
    assert base["mean"] == 0.25
    assert abs(base["median"] - (1 - 2 ** (-1 / 3))) <= 1e-9
    _ok(4, f"f1 mean={s['mean']:.4f} median={s['median']:.4f} mode={s['mode']:.4f}; baseline exact")


def test_criterion_05_histograms_match_closed_forms():
    h = checks.histograms(1_000_000, seed=SEED)
    sups = {which: h[which]["sup_norm_error"] for which in ("f1", "f2")}
    for which, sup in sups.items():
        assert sup <= 0.05, (which, sup)
    assert h["f1_mass_above_omega"] == 0
    _ok(5, f"sup-norm errors f1={sups['f1']:.4f} f2={sups['f2']:.4f}; mass above omega = 0")


def test_criterion_06_dn_star_volumes():
    offs = []
    for n in (3, 4, 5, 6):
        est = checks.dn_star_volume(n, samples=10_000_000, seed=SEED + n, chunks=8)
        off = est["sigmas_off"]
        assert off <= 4.0, (n, est["estimate"], est["exact_float"], off)
        offs.append(off)
    _ok(6, "10^7 samples each: sigma offs " + ", ".join(f"n={n}:{o:.2f}" for n, o in zip((3, 4, 5, 6), offs)))


def test_criterion_07_alternating_permutations():
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

    a = checks.alternating()
    expected = [1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
    for n in range(1, 11):
        b = brute(n)
        assert a["A_1_to_10"][n - 1] == b == expected[n - 1]
    worst = a["andre_bound_max_ratio"]
    assert worst <= 1.0
    _ok(7, f"enumeration agrees for n<=10; bound ratio max {worst:.4f} <= 1 for n<=30")


def test_criterion_08_bracket_consistency():
    details = []
    for n in range(4, 9):
        res = checks.pn_bracket(n, samples=1_000_000, seed=SEED + n, chunks=1)
        lo, up, b = res["lower"], res["upper"], res["bounds"]
        assert lo["estimate"] <= up["estimate"]
        assert lo["estimate"] - 4 * lo["stderr"] <= b["upper"]
        assert up["estimate"] + 4 * up["stderr"] >= b["lower"]
        assert res["consistent"], "an end fails its exact test"
        details.append(f"n={n}:[{lo['estimate']:.4f},{up['estimate']:.4f}]")
    _ok(8, "10^6 samples: " + " ".join(details))


def test_criterion_09_witness_soundness():
    w = checks.witnesses(1000, SEED)
    assert w["random_tuples_failed"] == 0, "exact verification failed"
    assert w["random_tuples_verified"] == 1000
    _ok(9, "1000 random rational witnesses verified with exact equality")


def test_criterion_10_fixtures():
    w = checks.witnesses(0, SEED)
    assert w["efron_verifies"]
    assert w["moon_moser_verifies"]
    _ok(10, "Efron dice give (2/3)^4 and Moon-Moser dice give (5/9)^3, exactly")


def test_criterion_11_symmetry_suite():
    s = checks.symmetry(100_000, SEED + 1)
    assert s["triple_violations"] == 0
    assert s["ntuple_violations"] == 0
    _ok(11, f"{s['samples']} tuples invariant under the symmetry group ({s['unknown_exempted']} Unknown comparisons exempt)")


def test_criterion_12_determinism():
    d = checks.determinism(500_000, SEED, chunk_counts=(2, 5, 8))
    assert d["repeat_identical"]
    assert d["chunk_invariant"]
    _ok(12, "reruns bit-identical; estimates invariant across chunk counts 1/2/5/8")
