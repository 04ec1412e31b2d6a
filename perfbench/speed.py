"""Host-speed probe and the estimator that uses it.

The cores of a shared host are not always equally fast. A fixed
calibration snippet (small numpy operations and Python bookkeeping, like
the solver loops) timed every `PERIOD_S` seconds from a ``SIGALRM``
handler shows the core switching between a fast and a slow level within
seconds, and the share of slow time drifting over minutes, longer than a
benchmark run. A median of a few operations' times then reports the
drift, not the program.

A slower core slows the snippet and the program alike, so their ratio
holds steady where either time alone does not. The level of an interval
is the mean snippet time of the samples taken in it, as the interval's
duration sums the fast and the slow time in it; the slowest `TRIM` of
the samples are dropped, as a sample hit by an interrupt says nothing
about the core. Each sample times the second of two back-to-back runs of
the snippet: the first refills the caches that the program evicted,
which would otherwise make the sample track the program's memory
footprint rather than the core's speed. The snippet does not use
saddlenet, and no constant of the machine enters.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
TRIM = 0.1

_X = np.linspace(-1.0, 1.0, 20)
_LO = np.full(20, -0.5)
_HI = np.full(20, 0.5)
_IDX = np.arange(20)[::-1].copy()


class _Acc(object):
    def __init__(self):
        self.value = 0.0


def snippet():
    """The calibration work: about 50 microseconds on an idle core."""
    acc = _Acc()
    rows = []
    for i in range(4):
        y = _X * 2.0
        z = np.clip(y - _X, _LO, _HI)
        w = np.concatenate([z, y[_IDX]])
        acc.value += float(np.sqrt(np.sum(w * w)))
        for j in range(40):
            rows.append((i, j, acc.value))
    return acc.value


class SpeedProbe(object):
    """Context manager timing the snippet every `PERIOD_S` while the body runs.

    ``samples`` holds ``(end time, snippet seconds)`` pairs in time order.
    """

    def __init__(self):
        self.samples = []
        self._times = None
        self._previous = None

    def _sample(self, signum, frame):
        snippet()
        t0 = time.perf_counter()
        snippet()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._times = [t for t, _ in self.samples]
        return False

    def level(self, start=float("-inf"), end=float("inf")):
        """Snippet seconds of the samples taken in ``[start, end]``.

        That is their mean with the slowest `TRIM` left out; by default
        over the whole probe. An interval without a sample takes the
        sample nearest in time. Call it after the probe has stopped.
        """
        times = self._times
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi > lo:
            return trimmed_mean([d for _, d in self.samples[lo:hi]])
        near = [i for i in (lo - 1, lo) if 0 <= i < len(times)]
        mid = 0.5 * (start + end)
        return self.samples[min(near, key=lambda i: abs(times[i] - mid))][1]


def trimmed_mean(values):
    """Mean of `values` without the largest `TRIM` share of them."""
    vals = sorted(values)
    return statistics.mean(vals[:len(vals) - int(TRIM * len(vals))])
