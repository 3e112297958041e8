import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scistats

from cyclictuples import mc, ntuple, rng
from cyclictuples.mc import EstimatorSpec, estimate, histogram
from cyclictuples.ntuple import MAX_N, pn_bounds, vol_dn_star
from cyclictuples.triple import OMEGA, P3, P3_STAR, VOL_C3_I, VOL_C3_II, density, sample_ordered_cyclic


class TestSpecValidation:
    def test_unknown_target(self):
        with pytest.raises(ValueError):
            EstimatorSpec(target="p7", samples=10, seed=0)

    def test_n_requirements(self):
        with pytest.raises(ValueError):
            EstimatorSpec(target="vol_Dn_star", samples=10, seed=0)
        with pytest.raises(ValueError):
            EstimatorSpec(target="pn_bracket", samples=10, seed=0, n=3)
        with pytest.raises(ValueError):
            EstimatorSpec(target="p3", samples=10, seed=0, n=5)
        EstimatorSpec(target="p3", samples=10, seed=0, n=3)  # allowed
        for target in ("vol_Dn_star", "pn_bracket"):
            with pytest.raises(ValueError):
                EstimatorSpec(target=target, samples=10, seed=0, n=MAX_N + 1)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            EstimatorSpec(target="p3", samples=0, seed=0)
        with pytest.raises(ValueError):
            EstimatorSpec(target="p3", samples=10, seed=0, chunks=0)


def _ends(result):
    """(estimate, stderr) of each end of an ``estimate`` result."""
    ends = result.values() if isinstance(result, dict) else [result]
    return [(e.estimate, e.stderr) for e in ends]


class TestDeterminism:
    def test_bit_identical_reruns(self):
        spec = EstimatorSpec(target="p3", samples=100_000, seed=77, chunks=4)
        a, b = estimate(spec), estimate(spec)
        assert a == b

    @pytest.mark.parametrize("target", list(mc.TARGETS))
    def test_chunk_invariance(self, target):
        # 100,001 samples: several blocks per chunk at 2 chunks, uneven chunks at 3, 7 and 16
        n = None if mc.TARGETS[target][0] is None else 5
        base = _ends(estimate(EstimatorSpec(target=target, samples=100_001, seed=3, n=n)))
        for chunks in (2, 3, 7, 16):
            spec = EstimatorSpec(target=target, samples=100_001, seed=3, chunks=chunks, n=n)
            assert _ends(estimate(spec)) == base, chunks

    def test_bracket_chunk_invariance(self):
        a = estimate(EstimatorSpec(target="pn_bracket", samples=50_000, seed=1, chunks=1, n=5))
        b = estimate(EstimatorSpec(target="pn_bracket", samples=50_000, seed=1, chunks=5, n=5))
        assert a["lower"].estimate == b["lower"].estimate
        assert a["upper"].estimate == b["upper"].estimate

    @pytest.mark.parametrize("target", list(mc.TARGETS))
    def test_more_chunks_than_samples(self, target):
        n = None if mc.TARGETS[target][0] is None else 5
        for samples in (1, 5):
            for seed in (1, 2):
                base = estimate(EstimatorSpec(target=target, samples=samples, seed=seed, n=n))
                for chunks in (3, 7):
                    spec = EstimatorSpec(target=target, samples=samples, seed=seed, chunks=chunks, n=n)
                    assert _ends(estimate(spec)) == _ends(base), (samples, seed, chunks)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a group at FORK_WORDS is shared among at most cpus processes: this
        # one counts the first share of the chunks, a forked child each other
        base = estimate(EstimatorSpec(target="p3", samples=10_001, seed=3, chunks=1))
        monkeypatch.setattr(mc, "FORK_WORDS", 3 * 10_001)
        pids = record_forks(monkeypatch)
        seen = record_chunk_threads(monkeypatch)
        for cpus, chunks, forks, here in [(2, 7, 1, 3), (4, 3, 2, 1), (1, 7, 0, 7), (4, 1, 0, 1)]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            pids.clear()
            seen.clear()
            for _ in range(3):
                again = estimate(EstimatorSpec(target="p3", samples=10_001, seed=3, chunks=chunks))
                assert (again.estimate, again.stderr) == (base.estimate, base.stderr)
            assert (len(pids), len(seen)) == (3 * forks, 3 * here), cpus
        assert_no_child()

    def test_blocks_capped_in_words(self, monkeypatch):
        words = []
        draw = rng.uniform_words

        def recording(seed, start, count, dim=None, **kwargs):
            words.append(count)
            return draw(seed, start, count, dim, **kwargs)

        monkeypatch.setattr(rng, "uniform_words", recording)
        for target in ("vol_Dn_star", "pn_bracket"):
            estimate(EstimatorSpec(target=target, samples=4_000, seed=1, n=MAX_N))
        assert len(words) == 4 and sum(words) == 2 * 4_000 * MAX_N
        assert max(words) <= 3 << 20

    def test_every_target_draws_samples_times_dim_words(self, monkeypatch):
        words = []
        draw = rng.uniform_words

        def recording(seed, start, count, dim=None, **kwargs):
            words.append(count)
            return draw(seed, start, count, dim, **kwargs)

        monkeypatch.setattr(rng, "uniform_words", recording)
        samples = 3 * rng.BLOCK_WORDS // 2 + 1  # more than one block at every dim
        for target, n in [(t, None) for t, (low, _) in mc.TARGETS.items() if low is None] + [
            ("vol_Dn_star", 3), ("vol_Dn_star", 7), ("pn_bracket", 4), ("pn_bracket", 40)
        ]:
            for chunks in (1, 3):
                words.clear()
                estimate(EstimatorSpec(target=target, samples=samples, seed=2, chunks=chunks, n=n))
                assert sum(words) == samples * (n or 3), (target, n, chunks)
                assert len(words) > chunks

    def test_seed_changes_result(self):
        a = estimate(EstimatorSpec(target="p3", samples=100_000, seed=1))
        b = estimate(EstimatorSpec(target="p3", samples=100_000, seed=2))
        assert a.estimate != b.estimate


def record_forks(monkeypatch) -> list:
    """A list to which each ``os.fork`` appends the child's pid, in the parent."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def assert_no_child():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_chunk_threads(monkeypatch) -> list:
    """A list to which each ``mc._count_chunk`` call appends the ident of its
    thread, that thread's kept ``rng.BlockBuffers`` and their block."""
    seen = []
    count_chunk = mc._count_chunk

    def recording(*args):
        hits = count_chunk(*args)
        buffers = rng._kept.buffers
        seen.append((threading.get_ident(), buffers, buffers.block))
        return hits

    monkeypatch.setattr(mc, "_count_chunk", recording)
    return seen


def in_new_thread(fn):
    """fn's result, computed on a thread of its own."""
    result = []
    t = threading.Thread(target=lambda: result.append(fn()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    return result[0]


class TestKeptBuffers:
    def test_concurrent_threads_match_sequential(self):
        # four threads on two cores, each on its own spec, switching often:
        # a buffer shared between threads would change some count
        specs = [
            EstimatorSpec(target="p3", samples=300_001, seed=5, chunks=1),
            EstimatorSpec(target="p3_star", samples=300_001, seed=5, chunks=2),
            EstimatorSpec(target="pn_bracket", samples=200_001, seed=6, chunks=1, n=6),
            EstimatorSpec(target="vol_Dn_star", samples=200_001, seed=7, chunks=2, n=4),
        ]
        want = [estimate(s) for s in specs]
        got = [None] * len(specs)
        start = threading.Barrier(len(specs))

        def run(i):
            start.wait()
            got[i] = estimate(specs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(specs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_thread_keeps_at_most_block_words(self):
        def kept_sizes():
            estimate(EstimatorSpec(target="p3", samples=100_000, seed=1))
            estimate(EstimatorSpec(target="pn_bracket", samples=4_000, seed=1, n=1024))
            b = rng._kept.buffers
            return [a.size for a in (b.block, b.offsets)]

        sizes = in_new_thread(kept_sizes)
        assert 0 < max(sizes) <= rng.BLOCK_WORDS

    def test_second_estimate_reuses_buffers(self):
        def reused():
            estimate(EstimatorSpec(target="p3", samples=100_000, seed=1))
            b = rng._kept.buffers
            block, offsets = b.block, b.offsets
            estimate(EstimatorSpec(target="p3_star", samples=50_000, seed=2))
            same_dim = rng._kept.buffers is b and b.block is block and b.offsets is offsets
            estimate(EstimatorSpec(target="vol_Dn_star", samples=100_000, seed=3, n=4))
            return same_dim and rng._kept.buffers is b and b.block is block

        assert in_new_thread(reused)

    def test_sampler_and_estimate_share_buffers(self, monkeypatch):
        calls = [
            lambda: sample_ordered_cyclic(20_000, seed=3),
            lambda: estimate(EstimatorSpec(target="p3", samples=50_000, seed=4)),
            lambda: sample_ordered_cyclic(1_000, seed=5),
        ]
        want = [in_new_thread(call) for call in calls]
        used = []
        draw = rng.uniform_words

        def recording(seed, start, count, dim=None, *, out=None):
            used.append(out)
            return draw(seed, start, count, dim, out=out)

        monkeypatch.setattr(rng, "uniform_words", recording)

        def in_turn():
            return [call() for call in calls], rng._kept.buffers

        got, kept = in_new_thread(in_turn)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert np.array_equal(got[2], want[2])
        assert len(used) > 3 and all(b is kept for b in used)
        assert 0 < max(kept.block.size, kept.offsets.size) <= rng.BLOCK_WORDS


class TestChunkProcesses:
    def test_small_group_runs_on_callers_thread(self, monkeypatch):
        # the largest p3 group below FORK_WORDS: seven chunks in order on
        # this thread, in the buffers it keeps, and no fork and no thread
        def refused(*args):
            raise AssertionError("forked or started a thread below FORK_WORDS")

        samples = (mc.FORK_WORDS - 1) // 3
        want = estimate(EstimatorSpec(target="p3", samples=samples, seed=4))
        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setattr(threading.Thread, "start", refused)
        seen = record_chunk_threads(monkeypatch)
        got = estimate(EstimatorSpec(target="p3", samples=samples, seed=4, chunks=7))
        assert (got.estimate, got.stderr) == (want.estimate, want.stderr)
        assert len(seen) == 7
        assert {ident for ident, _, _ in seen} == {threading.get_ident()}
        assert all(buffers is rng._kept.buffers and block is seen[0][2] for _, buffers, block in seen)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        # the thread would not exist in a forked child: the group runs here
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(mc, "FORK_WORDS", 1)
        pids = record_forks(monkeypatch)
        spec = EstimatorSpec(target="p3", samples=10_001, seed=3, chunks=2)
        forked = estimate(spec)
        running = threading.Event()
        waiting = threading.Thread(target=running.wait)
        waiting.start()
        try:
            assert estimate(spec) == forked
        finally:
            running.set()
            waiting.join(timeout=30)
        assert not waiting.is_alive() and len(pids) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_warning_ignored(self, monkeypatch):
        # Python 3.12+ warns on a fork when the process has other OS threads,
        # as numpy's BLAS thread is; under -W error only that warning is ignored
        fork = os.fork

        def warning_fork():
            warnings.warn("This process (pid=1) is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(mc, "FORK_WORDS", 1)
        want = _ends(estimate(EstimatorSpec(target="p3", samples=10_001, seed=3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ends(estimate(EstimatorSpec(target="p3", samples=10_001, seed=3, chunks=2))) == want
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("fault", ["raises", "killed", "truncated", "empty", "interrupted"])
    def test_failed_worker_raises_and_every_child_is_reaped(self, monkeypatch, fault):
        # three processes on 9,999 samples in three chunks: the child counting
        # chunk 1 fails (or, "interrupted", this process does), the one
        # counting chunk 2 would sleep for a minute unless it is killed
        parent, count_chunk = os.getpid(), mc._count_chunk

        def failing(specs, start, stop):
            if os.getpid() == parent:
                if fault == "interrupted":
                    raise KeyboardInterrupt
            elif start == 6_666:
                time.sleep(60)
            elif fault == "raises":
                raise ValueError("chunk failed")
            elif fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault == "empty":
                os._exit(0)
            return count_chunk(specs, start, stop)

        if fault == "truncated":
            dumps = pickle.dumps
            monkeypatch.setattr(pickle, "dumps", lambda obj: dumps(obj)[:-1])
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(mc, "FORK_WORDS", 1)
        monkeypatch.setattr(mc, "_count_chunk", failing)
        pids = record_forks(monkeypatch)
        error = {
            "raises": "exited with 1",
            "killed": f"killed by signal {signal.SIGKILL.value}",
            "truncated": "short reply",
            "empty": r"short reply \(0 bytes\)",
        }
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt if fault == "interrupted" else RuntimeError, match=error.get(fault)):
            estimate(EstimatorSpec(target="p3", samples=9_999, seed=1, chunks=3))
        assert len(pids) == 2 and time.monotonic() - started < 30
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("fork_words", [None, 1], ids=["serial-chunks", "forked-chunks"])
    def test_forked_child_gets_same_repr(self, monkeypatch, fork_words):
        # a chunked estimate here, then the same one in a child of this
        # process, which forks a worker of its own at fork_words 1
        if fork_words:
            monkeypatch.setattr(mc, "FORK_WORDS", fork_words)
        spec = EstimatorSpec(target="p3", samples=100_000, seed=9, chunks=2)
        want = repr(estimate(spec))
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read)
                signal.alarm(30)  # a child left waiting dies
                os.write(write, repr(estimate(spec)).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            got = pipe.read().decode()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want
        assert_no_child()

    def test_import_starts_no_thread(self):
        # importing makes no thread, no child and no executor, and neither
        # do one chunk, two chunks below FORK_WORDS, check, witness or exact
        code = (
            "import contextlib, io, os, sys, threading\n"
            "import cyclictuples\n"
            "from cyclictuples import cli, mc\n"
            "def childless():\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        return True\n"
            "assert threading.active_count() == 1 and childless()\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "for chunks in (1, 2):\n"
            "    mc.estimate(mc.EstimatorSpec(target='p3', samples=10_000, seed=1, chunks=chunks))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for cmd in ('check', 'witness'):\n"
            "        cli.main([cmd, '--tuple', '0.6,0.5,0.3,0.4'])\n"
            "    cli.main(['exact'])\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "assert childless()\n"
        )
        src = os.path.dirname(os.path.dirname(mc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


class TestEstimateMany:
    @pytest.mark.parametrize(
        "specs",
        [
            [  # one seed at several dims, and another seed
                EstimatorSpec(target="p3", samples=30_000, seed=4, chunks=2),
                EstimatorSpec(target="vol_Dn_star", samples=20_000, seed=4, n=4),
                EstimatorSpec(target="vol_Dn_star", samples=25_000, seed=4, chunks=3, n=7),
                EstimatorSpec(target="pn_bracket", samples=10_000, seed=4, n=5),
                EstimatorSpec(target="vol_Dn_star", samples=20_000, seed=5, n=4),
            ],
            [  # one (seed, dim): 1 sample, less than a block, several blocks
                EstimatorSpec(target="p3", samples=1, seed=5),
                EstimatorSpec(target="p3_star", samples=5_000, seed=5, chunks=3),
                EstimatorSpec(target="vol_C3_I", samples=50_001, seed=5, chunks=2),
                EstimatorSpec(target="vol_C3_II", samples=40_000, seed=5, chunks=7),
                EstimatorSpec(target="vol_C3_ordered", samples=16_385, seed=5),
                EstimatorSpec(target="vol_Dn_star", samples=2, seed=5, chunks=4, n=3),
                EstimatorSpec(target="p3", samples=50_001, seed=5, n=3),
            ],
            [  # brackets beside a longer volume of the same stream
                EstimatorSpec(target="pn_bracket", samples=1, seed=6, n=4),
                EstimatorSpec(target="pn_bracket", samples=3_000, seed=6, chunks=2, n=4),
                EstimatorSpec(target="vol_Dn_star", samples=60_000, seed=6, chunks=2, n=4),
                EstimatorSpec(target="pn_bracket", samples=30_000, seed=6, chunks=5, n=4),
                EstimatorSpec(target="pn_bracket", samples=20_000, seed=6, n=8),
            ],
            [  # duplicates, also at another chunk count
                EstimatorSpec(target="p3", samples=20_000, seed=7),
                EstimatorSpec(target="pn_bracket", samples=5_000, seed=7, n=6),
                EstimatorSpec(target="p3", samples=20_000, seed=7),
                EstimatorSpec(target="p3", samples=20_000, seed=7, chunks=3),
                EstimatorSpec(target="pn_bracket", samples=5_000, seed=7, n=6),
            ],
        ],
        ids=["seed-at-dims", "one-stream", "brackets", "duplicates"],
    )
    def test_equals_estimate_of_each(self, specs):
        want = [estimate(spec) for spec in specs]
        got = mc.estimate_many(specs)
        assert got == want
        assert repr(got) == repr(want)


class TestAgainstClosedForms:
    @pytest.mark.parametrize(
        "target,truth",
        [
            ("p3", P3),
            ("p3_star", P3_STAR),
            ("vol_C3_I", VOL_C3_I),
            ("vol_C3_II", VOL_C3_II),
            ("vol_C3_ordered", P3 / 6),
        ],
    )
    def test_triple_targets(self, target, truth):
        est = estimate(EstimatorSpec(target=target, samples=1_000_000, seed=123))
        assert abs(est.estimate - truth) <= 4 * est.stderr

    def test_dn_star(self):
        est = estimate(EstimatorSpec(target="vol_Dn_star", samples=1_000_000, seed=5, n=4))
        assert abs(est.estimate - float(vol_dn_star(4))) <= 4 * est.stderr

    def test_stderr_formula(self):
        est = estimate(EstimatorSpec(target="p3", samples=250_000, seed=9))
        expected = math.sqrt(est.estimate * (1 - est.estimate) / 250_000)
        assert est.stderr == expected

    def test_region_identity_six_fold(self):
        est = estimate(EstimatorSpec(target="vol_C3_ordered", samples=1_000_000, seed=31))
        assert abs(6 * est.estimate - P3) <= 4 * 6 * est.stderr


class TestBrackets:
    def test_lower_below_upper_and_consistent(self):
        for n in (4, 6, 9):
            res = estimate(EstimatorSpec(target="pn_bracket", samples=200_000, seed=n, n=n))
            lo, up = res["lower"], res["upper"]
            assert lo.estimate <= up.estimate
            b = pn_bounds(n)
            assert lo.estimate - 4 * lo.stderr <= b.upper
            assert up.estimate + 4 * up.stderr >= b.lower

    @staticmethod
    def sigmas_from_exact(n, samples=1_000_000, seed=41):
        """Distance of each bracket end from its exact value, in standard
        errors of the exact p.  The estimator tests against _pi_n_upper,
        8 ulps above pi_n, which moves the upper end's volume by about
        n * 8 ulps: far below one standard error."""
        res = estimate(EstimatorSpec(target="pn_bracket", samples=samples, seed=seed, n=n))
        b = pn_bounds(n)
        return [
            abs(res[end].estimate - p) / math.sqrt(p * (1 - p) / samples)
            for end, p in (("lower", b.sharper_lower), ("upper", b.sharper_upper))
        ]

    @pytest.mark.parametrize("n", range(4, 9))
    def test_ends_estimate_exact_values(self, n):
        lower_off, upper_off = self.sigmas_from_exact(n)
        assert lower_off <= 5 and upper_off <= 5

    def test_shifted_pi_n_threshold_caught_by_exact_upper(self, monkeypatch):
        # A necessity test 0.01 below pi_n calls too many tuples not cyclic:
        # the loose bounds still hold, the exact upper end does not.
        shifted = lambda n: ntuple.pi_n(n) - 0.01  # noqa: E731
        monkeypatch.setattr(ntuple, "_pi_n_upper", shifted)
        n = 4
        res = estimate(EstimatorSpec(target="pn_bracket", samples=1_000_000, seed=41, n=n))
        lo, up = res["lower"], res["upper"]
        b = pn_bounds(n)
        assert lo.estimate <= up.estimate
        assert lo.estimate - 4 * lo.stderr <= b.upper
        assert up.estimate + 4 * up.stderr >= b.lower
        assert self.sigmas_from_exact(n)[1] > 5

    def test_lower_estimates_mixed_sum_volume(self):
        # the provably-cyclic fraction is exactly 1 - A_{n-1}/(n-1)!
        n = 5
        res = estimate(EstimatorSpec(target="pn_bracket", samples=500_000, seed=8, n=n))
        lo = res["lower"]
        truth = 1 - 5 / 24  # 1 - A_4/4!
        assert abs(lo.estimate - truth) <= 4 * lo.stderr


class TestCoverage:
    def test_two_sigma_interval_calibration(self):
        hits = 0
        for seed in range(100):
            est = estimate(EstimatorSpec(target="p3", samples=100_000, seed=seed))
            if abs(est.estimate - P3) <= 2 * est.stderr:
                hits += 1
        assert hits >= 90


class TestHistogram:
    def test_deterministic(self):
        a = histogram("f1", 20_000, 20, seed=2)
        b = histogram("f1", 20_000, 20, seed=2)
        assert np.array_equal(a.values, b.values)

    def test_normalized(self):
        g = histogram("f2", 50_000, 25, seed=6)
        assert g.values.sum() / 25 == pytest.approx(1.0, abs=1e-12)

    def test_no_mass_above_omega_for_f1(self):
        g = histogram("f1", 50_000, 50, seed=6)
        assert g.values[g.xs > OMEGA + 0.01].sum() == 0.0

    def test_matches_closed_form_loosely(self):
        g = histogram("f1", 200_000, 40, seed=11)
        sup = max(abs(v - density("f1", x)) for x, v in g.points())
        assert sup < 0.12

    def test_f2_mirror_symmetry_chi_square(self):
        bins = 40
        samples = 200_000
        g = histogram("f2", samples, bins, seed=17)
        counts = np.rint(g.values * samples / bins).astype(int)
        left, right = counts[: bins // 2], counts[bins // 2:][::-1]
        mask = (left + right) > 0
        chi2 = float((((left - right) ** 2) / (left + right))[mask].sum())
        p = scistats.chi2.sf(chi2, df=int(mask.sum()))
        assert p > 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram("f9", 1000, 20, seed=0)
        with pytest.raises(ValueError):
            histogram("f1", 1000, 5, seed=0)
        with pytest.raises(ValueError):
            histogram("f1", 0, 20, seed=0)

    def test_caps_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(mc, "sample_ordered_cyclic", no_sampling)
        with pytest.raises(ValueError):
            histogram("f1", 1000, mc.MAX_BINS + 1, seed=0)
        with pytest.raises(ValueError):
            EstimatorSpec(target="p3", samples=10, seed=0, chunks=mc.MAX_CHUNKS + 1)
        EstimatorSpec(target="p3", samples=10, seed=0, chunks=mc.MAX_CHUNKS)

    def test_bin_sample_matches_histogram(self):
        pts = mc.sample_ordered_cyclic(5_000, 4)
        for which in ("f1", "f2", "f3"):
            a = histogram(which, 5_000, 30, seed=4)
            b = mc.bin_sample(which, pts, 30)
            assert np.array_equal(a.xs, b.xs) and np.array_equal(a.values, b.values)
