"""Fixed reference work that tracks the host's speed.

The benchmark runs on a shared host whose speed swings by up to 1.8x
for seconds to minutes at a time, which no count of repeats averages
away.  So the runner times a fixed piece of the benchmark's own work next
to the measured work and scales each measured time by the reference's
nominal time over its time measured alongside:

    scaled = measured * nominal / reference_now

A change to framegs moves the measured time and not the reference, so
the scaled time moves with it; a slow spell of the host moves both and
cancels.  Different kinds of work slow down by different amounts, so
each item names the reference of its own kind:

- ``compute``: Jacobi-style plane rotations on a fixed 12x12 array, the
  same mix of interpreter steps and small numpy calls as the package's
  small-frame kernels and its Jacobi solver.  Nominal 4.3 ms, its time
  on an idle 2-vCPU Intel Xeon host.
- ``dense``: inner products with, and rank-one updates of, a fixed
  1000x128 complex prefix, the work of the pass's dependent branch on
  large frames.  Such work slows far less than ``compute`` when the
  host turns slow: the (1000, 128) complex frame of oneshot-large by
  1.2x and this reference by 1.2x where ``compute`` slowed by 1.9x.
  Nominal 9.4 ms on that host.
- ``process``: a fresh Python process that imports numpy, the start-up
  every CLI call pays before framegs runs.  Nominal 130 ms on that host.

Nothing here imports framegs, so no change to the package moves it.
"""

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

_A0 = np.random.default_rng(20160226).standard_normal((12, 12))
_A0 = _A0 + _A0.T
_C, _S = 0.8, 0.6


def _rotations():
    A = _A0.copy()
    d = A.shape[0]
    for p in range(d - 1):
        for q in range(p + 1, d):
            rp = A[p, :].copy()
            rq = A[q, :].copy()
            A[p, :] = _C * rp - _S * rq
            A[q, :] = _S * rp + _C * rq
            cp = A[:, p].copy()
            cq = A[:, q].copy()
            A[:, p] = _C * cp - _S * cq
            A[:, q] = _S * cp + _C * cq
    return A


def _compute():
    for _ in range(6):
        _rotations()


def _dense_work():
    """The ``dense`` reference; its 2 MB prefix is built only when used."""
    rng = np.random.default_rng(20160227)
    P0 = rng.standard_normal((1000, 128)) + 1j * rng.standard_normal((1000, 128))
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)

    def run():
        P = P0.copy()
        for _ in range(8):
            w = (P.conj() @ f).conj()
            P += (1e-4 * w)[:, None] * f[None, :]

    return run


def _process(env):
    subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)


class Reference:
    """Times the reference of one kind and turns measured times into
    scaled ones.  ``mark()`` times the reference once and keeps the time
    it ran at.  A measured interval is scaled by the median of the marks
    within WINDOW_S of it: the host's fast and slow states last seconds,
    while a single mark also catches spikes of a few milliseconds."""

    NOMINAL_S = {"compute": 0.0043, "dense": 0.0094, "process": 0.130}
    WINDOW_S = 1.0

    def __init__(self, kind, env=None):
        self.nominal = self.NOMINAL_S[kind]
        if kind == "compute":
            self._run = _compute
        elif kind == "dense":
            self._run = _dense_work()
        else:
            self._run = lambda: _process(env)
        self.at = []        # midpoint of each mark, in time order
        self.seconds = []   # its reference time

    def mark(self):
        t0 = time.perf_counter()
        self._run()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)

    def factor(self, t0, t1) -> float:
        """Nominal over reference time around the interval [t0, t1]; the
        caller has marked within WINDOW_S before t0."""
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW_S)
        return self.nominal / statistics.median(self.seconds[lo:hi])

    def scaled(self, fn, repeats):
        """Median scaled time of ``fn`` over ``repeats`` calls, each
        bracketed by marks."""
        spans = []
        self.mark()
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            self.mark()
            spans.append((t0, t1))
        return statistics.median((t1 - t0) * self.factor(t0, t1) for t0, t1 in spans)
