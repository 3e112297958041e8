import dataclasses
import hashlib
import io
import json
import math
import threading
import time

import pytest

from cyclictuples import core, mc, ntuple, rng, triple
from cyclictuples.cli import build_parser, main

# each subcommand's parser by name, as the parser lists them
SUBPARSERS = next(a.choices for a in build_parser()._actions if a.dest == "command")
COMMANDS = list(SUBPARSERS)
# every option with a type= converter, as (subcommand, option)
TYPED_OPTIONS = [
    (cmd, action.option_strings[0]) for cmd, sub in SUBPARSERS.items() for action in sub._actions if action.type
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCheck:
    def test_cyclic_exit_zero(self, capsys):
        code, data = run_json(capsys, "check", "--tuple", "5/9,5/9,5/9")
        assert code == 0 and data["status"] == "Cyclic"
        assert data["tuple"] == "5/9,5/9,5/9"  # rationals echoed as p/q

    def test_not_cyclic_exit_one(self, capsys):
        code, data = run_json(capsys, "check", "--tuple", "1,1,1")
        assert code == 1 and data["reason"] == "TrybulaIneq1Fails"

    def test_unknown_exit_three(self, capsys):
        code, data = run_json(capsys, "check", "--tuple", "2/3,2/3,2/3,2/3")
        assert code == 3 and data["status"] == "Unknown"

    def test_witness_attached_for_cyclic_ntuple(self, capsys):
        code, data = run_json(capsys, "check", "--tuple", "0.6,0.5,0.3,0.4")
        assert code == 0 and "witness" in data
        code, data = run_json(capsys, "check", "--tuple", "0.6,0.5,0.3,0.4", "--no-witness")
        assert code == 0 and "witness" not in data

    def test_malformed_exit_two(self, capsys):
        code = main(["check", "--tuple", "a,b,c"])
        capsys.readouterr()
        assert code == 2


# one check per Reason: tuple, extra flags, JSON status, exit code
REASON_CASES = {
    core.Reason.TRYBULA_BOTH_HOLD: ("5/9,5/9,5/9", (), "Cyclic", 0),
    core.Reason.TRYBULA_INEQ1_FAILS: ("0.9,0.9,0.9", (), "NotCyclic", 1),
    core.Reason.TRYBULA_INEQ2_FAILS: ("0.1,0.1,0.1", (), "NotCyclic", 1),
    core.Reason.UP_DOWN_CONDITION_MET: ("0.6,0.5,0.3,0.4", (), "Cyclic", 0),
    core.Reason.MIXED_PAIRWISE_SUMS: ("0.6,0.5,0.3,0.4", ("--no-witness",), "Cyclic", 0),
    core.Reason.MIN_EXCEEDS_PI_N: ("0.8,0.8,0.8,0.8", (), "NotCyclic", 1),
    core.Reason.MAX_BELOW_ONE_MINUS_PI_N: ("0.1,0.1,0.1,0.1", (), "NotCyclic", 1),
    core.Reason.UNDECIDED: ("2/3,2/3,2/3,2/3", (), "Unknown", 3),
}


def test_reason_cases_cover_every_reason():
    assert set(REASON_CASES) == set(core.Reason)


@pytest.mark.parametrize("reason", list(REASON_CASES), ids=lambda r: r.value)
def test_check_prints_each_reason(capsys, reason):
    text, flags, status, exit_code = REASON_CASES[reason]
    code, data = run_json(capsys, "check", "--tuple", text, *flags)
    assert (data["status"], data["reason"], code) == (status, reason.value, exit_code)
    assert ("witness" in data) == (reason is core.Reason.UP_DOWN_CONDITION_MET)


class TestWitnessRoundTrip:
    def test_pipe_into_verify(self, capsys, tmp_path):
        code, data = run_json(capsys, "witness", "--tuple", "0.6,0.5,0.3,0.4")
        assert code == 0
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        code, data = run_json(
            capsys, "check", "--tuple", "0.6,0.5,0.3,0.4", "--verify-witness", str(path)
        )
        assert code == 0 and data["verified"] is True

    def test_check_witness_pipes_into_verify(self, capsys, tmp_path):
        # check reads decimals exactly, both to decide and to verify
        code, data = run_json(capsys, "check", "--tuple", "0.6,0.5,0.3,0.4")
        assert code == 0 and data["tuple"] == "3/5,1/2,3/10,2/5"
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data["witness"]))
        code, data = run_json(
            capsys, "check", "--tuple", "0.6,0.5,0.3,0.4", "--verify-witness", str(path)
        )
        assert code == 0 and data["verified"] is True

    def test_tampered_witness_fails(self, capsys, tmp_path):
        code, data = run_json(capsys, "witness", "--tuple", "1/2,1/2,1/2,1/2")
        assert code == 0
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        code, data = run_json(
            capsys, "check", "--tuple", "1/2,1/2,1/2,2/3", "--verify-witness", str(path)
        )
        assert code == 1 and data["verified"] is False

    def test_hypothesis_not_met(self, capsys):
        code, data = run_json(capsys, "witness", "--tuple", "0.1,0.1,0.1,0.1")
        assert code == 1 and "error" in data

    def test_explicit_index_not_met_pinned(self, capsys):
        code, out = run(capsys, "witness", "--tuple", "0.6,0.5,0.3,0.4", "--index", "1")
        assert code == 1
        assert out == (
            '{\n  "tuple": "3/5,1/2,3/10,2/5",\n'
            '  "error": "index 1: need s_i >= 1 and s_(i+2) <= 1, got 4/5 and 1"\n}\n'
        )

    def test_explicit_index(self, capsys):
        code, data = run_json(capsys, "witness", "--tuple", "0.6,0.5,0.3,0.4", "--index", "0")
        assert code == 0 and data["n"] == 4


class TestExactAndBounds:
    def test_exact_six_decimals(self, capsys):
        code, data = run_json(capsys, "exact")
        assert code == 0
        assert f"{data['p3']:.6f}" == "0.627575"
        assert set(data) == {"p3", "p3_star", "vol_I", "vol_II"}

    def test_bounds(self, capsys):
        code, data = run_json(capsys, "bounds", "--n", "6")
        assert code == 0
        assert data["lower"] <= data["sharper_lower"] <= data["sharper_upper"] <= data["upper"]

    def test_bounds_rejects_small_n(self, capsys):
        code = main(["bounds", "--n", "3"])
        capsys.readouterr()
        assert code == 2


class TestDensityCsv:
    def test_all_columns(self, capsys):
        code, out = run(capsys, "density", "--grid", "11")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "x,f1,f2,f3"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == pytest.approx(2.390153, abs=1e-6)

    def test_single_column(self, capsys):
        code, out = run(capsys, "density", "--which", "f2", "--grid", "5")
        lines = out.strip().splitlines()
        assert lines[0] == "x,f2" and len(lines) == 6


class TestStats:
    def test_f1(self, capsys):
        code, data = run_json(capsys, "stats", "--which", "f1")
        assert code == 0
        assert data["mean"] == pytest.approx(0.211, abs=5e-3)
        assert data["median"] == pytest.approx(0.197, abs=5e-3)
        assert data["mode"] == pytest.approx(0.107, abs=5e-3)

    def test_unrestricted(self, capsys):
        code, data = run_json(capsys, "stats", "--which", "unrestricted")
        assert code == 0 and data["mean"] == 0.25


class TestEstimate:
    def test_single_target(self, capsys):
        code, data = run_json(
            capsys, "estimate", "--target", "p3", "--samples", "1e5", "--seed", "42", "--chunks", "8"
        )
        assert code == 0
        assert set(data) == {"target", "estimate", "stderr", "samples", "seed", "chunks"}
        assert data["samples"] == 100_000 and data["seed"] == 42

    def test_bracket(self, capsys):
        code, data = run_json(
            capsys, "estimate", "--target", "pn_bracket", "--n", "5", "--samples", "5e4"
        )
        assert code == 0
        assert data["lower"]["estimate"] <= data["upper"]["estimate"]

    def test_missing_n_is_usage_error(self, capsys):
        code = main(["estimate", "--target", "vol_Dn_star", "--samples", "100"])
        capsys.readouterr()
        assert code == 2


class TestHistogram:
    def test_csv(self, capsys):
        code, out = run(capsys, "histogram", "--which", "f1", "--samples", "2e4", "--bins", "20", "--seed", "3")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "x,f1" and len(lines) == 21


class TestReport:
    def test_small_scale_report(self, capsys):
        code, data = run_json(capsys, "report", "--samples-scale", "0.002", "--seed", "7")
        assert code == 0
        assert set(data) >= {
            "exact_volumes",
            "mc_volumes",
            "densities",
            "f1_stats",
            "histograms",
            "vol_Dn_star",
            "alternating",
            "pn_brackets",
            "witnesses",
            "symmetry",
            "determinism",
        }
        assert data["determinism"]["repeat_identical"] is True
        assert data["determinism"]["chunk_invariant"] is True
        assert data["witnesses"]["pass"] is True
        assert data["symmetry"]["pass"] is True
        assert data["alternating"]["A_1_to_10"][-1] == 50521
        assert data["alternating"]["andre_bound_max_ratio"] <= 1.0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--target", "p3", "--samples", "inf"],
            ["estimate", "--target", "p3", "--samples", "1e400"],
            ["estimate", "--target", "p3", "--samples", "nan"],
            ["histogram", "--which", "f1", "--samples", "1e9"],
        ],
        ids=["inf", "1e400", "nan", "histogram_1e9"],
    )
    def test_bad_samples_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--samples" in err and "Traceback" not in err

    def test_histogram_reads_sampler_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(triple, "MAX_SAMPLE_ROWS", 100)
        with pytest.raises(SystemExit) as exc:
            main(["histogram", "--which", "f1", "--samples", "101"])
        assert exc.value.code == 2 and "--samples" in capsys.readouterr().err

    def test_empty_witness_exit_two(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{}")
        code = main(["check", "--tuple", "0.6,0.5,0.3,0.4", "--verify-witness", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "dists" in err and "Traceback" not in err

    def test_long_exact_token_exit_two(self, capsys):
        start = time.perf_counter()
        code = main(["check", "--tuple", "1e-9999999,0.5,0.5"])
        err = capsys.readouterr().err
        assert code == 2 and "more than 4300 digits" in err
        assert time.perf_counter() - start < 2  # refused before 10**9999999 is computed

    def test_long_witness_token_exit_two(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        atom = {"point": "1e-9999999", "weight": "1"}
        path.write_text(json.dumps({"n": 4, "dists": [[atom]] * 4}))
        start = time.perf_counter()
        code = main(["check", "--tuple", "0.6,0.5,0.3,0.4", "--verify-witness", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and "more than 4300 digits" in err
        assert time.perf_counter() - start < 2

    def test_witness_atom_cap_exit_two(self, capsys, tmp_path, monkeypatch):
        _, data = run_json(capsys, "witness", "--tuple", "0.6,0.5,0.3,0.4")  # 8 atoms
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        monkeypatch.setattr(core, "MAX_WITNESS_ATOMS", 7)
        code = main(["check", "--tuple", "0.6,0.5,0.3,0.4", "--verify-witness", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and "8 atoms, at most 7" in err

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_every_subcommand_prints_its_help(self, capsys, cmd):
        # help strings are built from the library's caps, and argparse %-formats them
        with pytest.raises(SystemExit) as exit_:
            main([cmd, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: cyclictuples {cmd}")

    def test_help_names_the_atom_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "MAX_WITNESS_ATOMS", 7)
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "7 atoms" in capsys.readouterr().out

    def test_help_names_the_byte_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert f"at most {core.MAX_WITNESS_BYTES:,} bytes" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_witness_byte_cap_exit_two(self, capsys, tmp_path, monkeypatch, source):
        _, data = run_json(capsys, "witness", "--tuple", "0.6,0.5,0.3,0.4")
        text = json.dumps(data).encode()
        path = tmp_path / "w.json"
        path.write_bytes(text)
        argv = ["check", "--tuple", "0.6,0.5,0.3,0.4", "--verify-witness"]
        argv.append(str(path) if source == "file" else "-")
        for limit, want in ((len(text), 0), (len(text) - 1, 2)):
            monkeypatch.setattr(core, "MAX_WITNESS_BYTES", limit)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
            code = main(argv)
            err = capsys.readouterr().err
            assert code == want
            if want == 2:
                assert f"witness JSON has more than {limit} bytes" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "dists",
        [
            [[[1] * 10**5]] * 3,  # each atom one long list
            [[{"point": "a" * 200_000, "weight": "1"}]] * 3,  # a long point string
            [[{"point": [1] * 10**5, "weight": "1"}]] * 3,  # a long point list
        ],
        ids=["atom-list", "point-string", "point-list"],
    )
    def test_bad_witness_atom_message_bounded(self, capsys, tmp_path, dists):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"n": 3, "dists": dists}))
        code = main(["check", "--tuple", "0.6,0.5,0.3", "--verify-witness", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and "witness atom" in err
        assert len(err.encode()) <= 500

    @pytest.mark.parametrize(
        "text, declared_n",
        [
            ("1e4000,0.5,0.5", None),  # an exact value of 4,001 digits
            ("x" * 100_000 + ",0.5,0.5", None),  # a long malformed entry
            ("x" * 100_000 + ",,0.5", None),  # a long string with an empty entry
            ("0.6,0.5,0.3,0.4", "4" * 100_000),  # a witness declaring a long n
        ],
        ids=["long-value", "long-entry", "long-string", "long-n"],
    )
    def test_echoed_input_message_bounded(self, capsys, tmp_path, text, declared_n):
        argv = ["check", "--tuple", text]
        if declared_n is not None:
            _, data = run_json(capsys, "witness", "--tuple", text)
            path = tmp_path / "w.json"
            path.write_text(json.dumps(dict(data, n=declared_n)))
            argv += ["--verify-witness", str(path)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert len(err.encode()) <= 200

    @pytest.mark.parametrize("char", ["1", "x"])
    @pytest.mark.parametrize("cmd, option", TYPED_OPTIONS, ids=[f"{c}{o}" for c, o in TYPED_OPTIONS])
    def test_long_option_value_message_bounded(self, capsys, cmd, option, char):
        # argparse prints the subcommand's usage, then one error line
        required = {"witness": ["--tuple", "0.6,0.5,0.3,0.4"], "estimate": ["--target", "p3"],
                    "histogram": ["--which", "f1"], "bounds": ["--n", "5"]}
        with pytest.raises(SystemExit) as exc:
            main([cmd, *required.get(cmd, []), option, char * 100_000])
        err = capsys.readouterr().err
        usage = SUBPARSERS[cmd].format_usage()
        assert exc.value.code == 2 and err.startswith(usage)
        assert option in err and len(err[len(usage):].encode()) <= 200

    def test_deeply_nested_witness_exit_two(self, capsys, monkeypatch):
        text = b"[" * 100_000 + b"]" * 100_000
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
        code = main(["check", "--tuple", "0.6,0.5,0.3,0.4", "--verify-witness", "-"])
        err = capsys.readouterr().err
        assert code == 2 and "witness JSON is nested too deeply" in err


def test_report_stdout_pinned(capsys):
    # every number of the small report, to the last digit of its JSON
    code, out = run(capsys, "report", "--samples-scale", "0.002", "--seed", "7")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert code == 0 and digest == "e0c7297c72543ea8471cc0e895806f1cf3ceedcec426c86dfd89a6c59d4c62de"


def test_report_survives_zero_stderr(capsys, monkeypatch):
    # an estimate of exactly 0 or 1 has stderr 0: its distance is measured
    # in the exact value's binomial standard error instead
    estimate_many = mc.estimate_many
    ends = {"p3_star": 0.0, "vol_Dn_star": 1.0}

    def at_an_end(specs):
        specs = list(specs)
        return [
            dataclasses.replace(est, estimate=ends[spec.target], stderr=0.0) if spec.target in ends else est
            for spec, est in zip(specs, estimate_many(specs))
        ]

    monkeypatch.setattr(mc, "estimate_many", at_an_end)
    code, data = run_json(capsys, "report", "--samples-scale", "0.002", "--seed", "7")
    samples = 20_000
    p3_star = data["mc_volumes"]["p3_star"]
    assert p3_star["estimate"] == 0.0 and p3_star["stderr"] == 0.0
    p = triple.P3_STAR
    assert p3_star["sigmas_off"] == p / math.sqrt(p * (1 - p) / samples)
    for section in data["vol_Dn_star"].values():
        p = section["exact_float"]
        assert section["sigmas_off"] == (1 - p) / math.sqrt(p * (1 - p) / samples)


def test_report_draws_one_sample(capsys, monkeypatch):
    calls = []
    sampler = triple.sample_ordered_cyclic

    def counting(*args, **kwargs):
        calls.append(args)
        return sampler(*args, **kwargs)

    monkeypatch.setattr(triple, "sample_ordered_cyclic", counting)
    monkeypatch.setattr(mc, "sample_ordered_cyclic", counting)
    code = main(["report", "--samples-scale", "0.002", "--seed", "7"])
    capsys.readouterr()
    assert code == 0 and calls == [(2000, 7)]


def test_report_draws_each_stream_once(capsys, monkeypatch):
    # scale 0.002: 20,000 samples for p3, p3* and D*_3..D*_6, 2,000 for the
    # brackets at n = 4..8; each (seed, dim) stream is drawn to its longest
    # count, and determinism draws its 2,000 p3 samples three times
    counting = threading.local()
    words = []
    count_chunk, draw = mc._count_chunk, rng.uniform_words

    def in_mc(*args):
        counting.on = True
        try:
            return count_chunk(*args)
        finally:
            counting.on = False

    def recording(seed, start, count, dim=None, **kwargs):
        if getattr(counting, "on", False):
            words.append(count)
        return draw(seed, start, count, dim, **kwargs)

    monkeypatch.setattr(mc, "_count_chunk", in_mc)
    monkeypatch.setattr(rng, "uniform_words", recording)
    code = main(["report", "--samples-scale", "0.002", "--seed", "7"])
    capsys.readouterr()
    streams = 20_000 * (3 + 4 + 5 + 6) + 2_000 * (7 + 8)
    assert code == 0 and sum(words) == streams + 3 * 2_000 * 3


class TestReportFailures:
    """A report whose own check fails says so in its section and exits 1."""

    def report(self, capsys):
        return run_json(capsys, "report", "--samples-scale", "0.002", "--seed", "7")

    def test_failed_witness_verification(self, capsys, monkeypatch):
        monkeypatch.setattr(ntuple, "verify_witness", lambda w, t: False)
        code, data = self.report(capsys)
        assert code == 1 and data["witnesses"]["pass"] is False

    def test_verdict_changed_by_complement(self, capsys, monkeypatch):
        def by_sum(x, y, z):  # invariant under every ordering, flipped by the complement
            return x + y + z > 1.5
        monkeypatch.setattr(triple, "cyclic", by_sum)
        code, data = self.report(capsys)
        assert code == 1 and data["symmetry"]["pass"] is False and data["symmetry"]["triple_violations"] == 100

    def test_ntuple_verdict_changed_by_complement(self, capsys, monkeypatch):
        def by_sum(*xs):  # never Unknown, invariant under rotation and reverse
            below = sum(xs) < len(xs) / 2
            return 1 * below - 1 * ~below
        monkeypatch.setattr(ntuple, "status_code", by_sum)
        code, data = self.report(capsys)
        sym = data["symmetry"]
        assert code == 1 and sym["pass"] is False and sym["triple_violations"] == 0
        assert sym["ntuple_violations"] == 100 and sym["unknown_exempted"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--samples-scale", "inf"],
        ["histogram", "--which", "f1", "--bins", "10000000"],
        ["density", "--grid", "10000000"],
        ["estimate", "--target", "p3", "--chunks", "100000"],
    ],
    ids=["scale_inf", "bins", "grid", "chunks"],
)
def test_caps_exit_two(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "error" in err and "Traceback" not in err


# Each subcommand's numeric flags, with arguments that keep a valid run small
# and single-threaded.  Every fuzzed report value is rejected before it runs;
# report's --seed is left out, since a valid report starts worker threads.
FUZZ_FLAGS = [
    (["estimate", "--target", "p3", "--samples", "1000"], "--samples", "1.1e11"),
    (["estimate", "--target", "p3", "--samples", "1000"], "--seed", None),
    (["estimate", "--target", "p3", "--samples", "1000"], "--chunks", "1025"),
    (["estimate", "--target", "vol_Dn_star", "--samples", "1000"], "--n", "1025"),
    (["histogram", "--which", "f1", "--samples", "1000"], "--samples", "100000001"),
    (["histogram", "--which", "f1", "--samples", "1000"], "--bins", "1000001"),
    (["histogram", "--which", "f1", "--samples", "1000"], "--seed", None),
    (["density", "--which", "f1"], "--grid", "1000001"),
    (["report", "--samples-scale", "0.001"], "--samples-scale", "100.00001"),
    (["report", "--samples-scale", "0.001"], "--chunks", "1025"),
    (["bounds"], "--n", "1025"),
    (["witness", "--tuple", "0.6,0.5,0.3,0.4"], "--index", None),
]
FUZZ_VALUES = ["inf", "nan", "-1", "0", "1e400"]


@pytest.mark.parametrize(
    "base, flag, over_cap", FUZZ_FLAGS, ids=[f"{b[0]}{f}" for b, f, _ in FUZZ_FLAGS]
)
def test_numeric_flag_fuzz(capsys, base, flag, over_cap):
    values = FUZZ_VALUES + ([over_cap] if over_cap else [])
    for value in values:
        try:
            code = main(base + [flag, value])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in {0, 1, 2, 3}, (flag, value)
        assert "Traceback" not in err, (flag, value)
        if value == over_cap:
            assert code == 2 and "error" in err, (flag, value)
