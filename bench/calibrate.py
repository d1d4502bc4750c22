"""A fixed kernel timed between fits, to follow the host's speed.

The benchmark runs on a shared host whose speed drifts: a fixed
pure-Python loop took anywhere from 12 to 20 ms within one minute, in CPU
time as much as in wall time, and two sets of runs of identical code
differed by up to 55 % in their median fit time.  So the run times a
fixed kernel between fits and reports every time metric in reference
seconds::

    reported = measured * sum(REFERENCE[part]) / sum(median time of part)

over the kernel's parts.  The parts mirror what the measured phase spends
its time on, so a slower host slows kernel and program alike and the
ratio stays put, while a change to broydenfit moves only the program.
The measured seconds, the factors and every sample go to the results file.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Share of a measured phase's time spent in the kernel.  Samples are taken
# between fits as soon as the kernel falls behind this share, so they are
# spread evenly over the phase whatever a fit or a sample costs.
SHARE = 0.05
# Each in-process part runs once untimed before it is timed.  Otherwise the
# first sample after a fit finds the caches full of the fit's data, and
# the share of such cold samples, which follows the fits' length, would
# move the factor: on tall, one sample per fit timed 48 % slower than
# bursts of back-to-back samples.
WARM = ("python", "numpy_small", "tall")
# Nominal seconds of each part, near its median on the machine described
# in NOTES.md.  They fix the unit of the reported times and must not change.
REFERENCE = {
    "python": 2.0e-3,
    "numpy_small": 2.0e-3,
    "tall": 7.5e-3,
    "spawn": 0.14,
}
# Parts per workload: interpreter speed everywhere, plus the regime the
# workload's fits live in.  Two parts were tried and dropped because the
# fits did not follow them: a dense part (800 x 200 Gram matrix and
# 200 x 200 solve) on wide, which moved 30 % over five runs where the fits
# moved 20 %, and the spawn part on external, where at 0.14 s a sample
# only 9 samples fit in a run's share and the spread of fit_s grew from
# 0.09 to 0.12.
PARTS = {
    "corpus": ("python", "numpy_small"),
    "tall": ("python", "tall"),
    "wide": ("python",),
    "external": ("python",),
}
# Set-up is mostly a fresh interpreter importing numpy and scipy.
SETUP_PARTS = ("python", "spawn")


def _python():
    total = 0
    for i in range(25_000):
        total += i * i
    return total


def _spawn():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Calibration:
    """Kernel samples over one phase; ``factor()`` rescales its times."""

    def __init__(self, parts, problems=()):
        self.parts = parts
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(50, 3))
        self._b = rng.normal(size=50)
        # The tall part reads a dataset already in memory, so that it adds
        # nothing to the run's peak memory.
        self._tall = problems[0].x if "tall" in parts else None
        self.samples: dict[str, list[float]] = {part: [] for part in parts}
        self.times: list[float] = []  # perf_counter() at the end of each sample
        self.kernel_s = 0.0
        self._start = perf_counter()

    def _numpy_small(self):
        ones = np.ones(3)
        for _ in range(200):
            r = self._b - self._a @ ones
            float(r @ r)
            np.outer(r[:3], r[:3])

    def _tall_part(self):
        x = self._tall
        r = x @ np.ones(x.shape[1])
        r @ x

    def sample(self) -> None:
        kernels = {"python": _python, "numpy_small": self._numpy_small,
                   "tall": self._tall_part, "spawn": _spawn}
        start = perf_counter()
        for part in self.parts:
            if part in WARM:
                kernels[part]()
            t0 = perf_counter()
            kernels[part]()
            self.samples[part].append(perf_counter() - t0)
        self.times.append(perf_counter())
        self.kernel_s += self.times[-1] - start

    def tick(self) -> None:
        """Sample until the kernel has had ``SHARE`` of the phase so far."""
        while not self.times or self.kernel_s < SHARE * (perf_counter() - self._start):
            self.sample()

    def factor(self) -> float:
        """Reference over measured kernel time."""
        measured = sum(statistics.median(self.samples[p]) for p in self.parts)
        return sum(REFERENCE[p] for p in self.parts) / measured

    def record(self) -> dict:
        return {
            "factor": self.factor(),
            "reference_s": {p: REFERENCE[p] for p in self.parts},
            "median_s": {p: statistics.median(v) for p, v in self.samples.items()},
            "samples_s": self.samples,
            "times": self.times,
        }
