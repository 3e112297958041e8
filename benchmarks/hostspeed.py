"""Host-speed reference: two fixed kernels, timed in a child process.

The measuring host's speed wanders by up to half in phases of seconds to
minutes (README.md, "Steadiness"), and it slows the library's rounds and
these kernels alike.  ``worker.py`` times the kernels just before each
round and divides the round's time by the host's slowness at that moment,
the kernels' time over their nominal time.  The kernels use no library
code, so a change to the library moves a round's time and not the
reference.  They run in a child process of their own, so that their
memory never adds to the workload's peak RSS; the worker waits for the
reply, so the two never run at once.

    python3 benchmarks/hostspeed.py      # serves requests on stdin

Each input line names kernels (``python``, ``numpy``, comma-separated);
the reply line is a JSON object with each kernel's time in seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

# Each kernel's time on the measuring machine in a quiet phase: a wall
# time divided by the slowness is in seconds of a host at this speed.
NOMINAL_S = {"python": 0.047, "numpy": 0.080}


def _python_kernel() -> int:
    """Pure-Python integer arithmetic and dict and tuple churn, like the
    exact arithmetic of ``decide`` and ``report``."""
    d = {}
    s = 0
    for i in range(200_000):
        s += i * i % 7
        d[i & 1023] = (s, i)
    return s


def _numpy_kernel() -> float:
    """Out-of-place uint64 passes over 3 * 2^20 words (25 MB a pass), the
    memory traffic of a splitmix64 counter stream like ``sample``'s."""
    import numpy as np

    m1 = np.uint64(0xBF58476D1CE4E5B9)
    m2 = np.uint64(0x94D049BB133111EB)
    z = np.arange(1, (3 << 20) + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * m1
    z = (z ^ (z >> np.uint64(27))) * m2
    z = z ^ (z >> np.uint64(31))
    return float(((z >> np.uint64(11)) * 2.0**-53)[7])


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def serve() -> int:
    for fn in KERNELS.values():  # first calls: imports and lazy set-up
        fn()
    print("ready", flush=True)
    for line in sys.stdin:
        times = {}
        for name in line.strip().split(","):
            t = time.perf_counter()
            KERNELS[name]()
            times[name] = time.perf_counter() - t
        print(json.dumps(times), flush=True)
    return 0


class HostSpeed:
    """The child process, used as a context manager by ``worker.py``."""

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = kernels
        self._request = ",".join(kernels) + "\n"
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.__exit__(None, None, None)
            raise RuntimeError("host-speed reference did not start")
        return self

    def slowness(self) -> float:
        """The host's slowness now: the kernels' mean time over nominal."""
        self._proc.stdin.write(self._request)
        self._proc.stdin.flush()
        times = json.loads(self._proc.stdout.readline())
        return sum(times[k] / NOMINAL_S[k] for k in self.kernels) / len(self.kernels)

    def __exit__(self, *exc):
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(serve())
