"""How fast the machine runs right now, from a fixed reference loop.

The benchmark runs on a shared virtual machine whose speed is not steady:
a fixed pure-Python loop there ran up to 1.5 times slower for minutes at a
time, and whole runs of the same workload and seed moved with it.  So the
measured phase is interleaved with short slices of a reference loop that
calls nothing from approxalg, and every time the benchmark reports is
scaled to a fixed reference speed:

    reported = measured * REFERENCE_S / (mean time of the slices around it)

A change to approxalg cannot move the slices, so it moves the scaled
figures exactly as it moves the measured ones; a change in the machine's
speed moves slices and tasks together and cancels.  It cancels only as far
as the slices do the same kind of work as the workload, so there are two
kinds (a workload names its own in ``workloads.py``):

  ``interpreter``  subgroup closures on tuples in pure Python, in the
                   idiom of the finite-structure code in ``rings``;
  ``mixed``        that slice followed by a numpy gcd/modulo grid, like the
                   array code in ``ideals`` and ``closures``.  Array work
                   slows less than interpreted code when the machine does,
                   and these workloads spend much of their time in it.

The speed also changes within a run, so a task's time is scaled by the
slices nearest to it (``scale_at``), not by the run's mean.  On 6 seeds of
20-second runs of finite-lattices, this scaling took the quartile spread of
tasks_per_s, task_p50_ms and task_tail_ms from 0.31, 0.29 and 0.28 of the
median unscaled to 0.04, 0.07 and 0.05.
"""

import bisect
import time

import numpy as np

# One slice at the reference speed, in seconds: about its median time on
# the 2-vCPU VM described in README.md.  Only ratios of figures matter.
REFERENCE_S = {"interpreter": 0.003, "mixed": 0.0055}

# scale_at uses this many slices on each side of a task (about 0.3 s)
WINDOW = 3

_D = np.arange(300, dtype=np.int64)
_X = np.arange(1, 200, dtype=np.int64)


def _interpreter_slice():
    """Subgroups of Z/24 x Z/6 generated by one element, closed under + and
    - the way ``rings.close_under`` does it: tuples, small functions, sets
    and frozensets."""
    def add(x, y):
        return ((x[0] + y[0]) % 24, (x[1] + y[1]) % 6)

    def neg(x):
        return ((-x[0]) % 24, (-x[1]) % 6)

    found = set()
    for g in ((2, 1), (3, 0), (4, 2), (6, 3), (8, 1), (9, 2)) * 12:
        out = {(0, 0), g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for y in [add(x, z) for z in list(out)] + [neg(x)]:
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        found.add(frozenset(out))
    return len(found)


def _array_slice():
    dd, xx = np.meshgrid(_D, _X, indexing="ij")
    g = np.gcd(dd, 360)
    return int(((xx % np.where(dd == 0, 1, dd)) != 0).sum() + g.sum())


class SpeedProbe:
    """Times slices of the reference loop of one kind."""

    def __init__(self, kind):
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.starts = []
        self.samples = []
        self._slice()  # first call pays one-off costs; not recorded

    def _slice(self):
        _interpreter_slice()
        if self.kind == "mixed":
            _array_slice()

    def sample(self):
        """Run one slice and record when it started and how long it took."""
        t0 = time.perf_counter()
        self._slice()
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def mean_s(self):
        return sum(self.samples) / len(self.samples)

    def scale(self):
        """Factor that turns a time measured while the slices ran into one
        at the reference speed."""
        return REFERENCE_S[self.kind] / self.mean_s()

    def scale_at(self, t):
        """The same factor for a time measured from ``t`` on, from the
        WINDOW slices before it and the WINDOW after it."""
        i = bisect.bisect(self.starts, t)
        near = self.samples[max(0, i - WINDOW):i + WINDOW]
        return REFERENCE_S[self.kind] * len(near) / sum(near)
