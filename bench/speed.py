"""Host speed measured beside the work, so that timings survive a drifting host.

On a shared host the speed one process gets can change by a factor of two
within a minute, and process CPU time slows with it, so neither wall nor
CPU time of a task repeats from run to run. The benchmark therefore runs a
fixed calibration slice between tasks, after each window of task time, and
scales each task's time by the speed measured around it:

    scaled = raw * reference / (trimmed mean of the nearby slice times)

A scaled time is the time the task would take on a host where one slice
takes its reference time. A change to tegkit moves scaled times as it
moves raw ones; a change of host speed moves the slices too and cancels
out. Neither slice runs tegkit code. A mean of the slices, not their
median, is used: the host switches between fast and slow spells faster
than a task runs, and a task runs at the average speed of its spells. It
drops the slowest and fastest TRIM of them, which a single interrupted or
delayed process start would otherwise move. The record keeps the raw
figures and the slice times beside the scaled ones.

Two slices, each like the work it calibrates, because the host's speed
for interpreter work and for starting programs (mapping and loading shared
libraries) drift apart:

- COMPUTE, interpreter and small-array work, for in-process tasks;
- STARTUP, a fresh interpreter that imports numpy, for CLI commands and
  for `import tegkit`. It does not import tegkit, so what tegkit adds to
  a start still shows.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

#: Slices on each side of a window that its speed estimate uses.
NEIGHBOURS = 5
#: Share of slices dropped at each end before the mean is taken.
TRIM = 0.1
#: Slices before and after a timed call outside the loop (set-up).
AROUND = 3
SLICE_REPS = 400

_BASE = np.linspace(0.0, 1.0, 101)


def compute_slice() -> float:
    """Seconds one fixed slice of interpreter and small-array work takes."""
    start = time.perf_counter()
    a = _BASE.copy()
    seen = {}
    total = 0.0
    for k in range(SLICE_REPS):
        b = a[:-2] + a[2:] - 2.0 * a[1:-1]
        a[1:-1] += 0.1 * b
        total += float(a[50]) + k * 0.5
        seen[k % 7] = f"{total:.6g}"  # dict and str work, as record keeping does
    return time.perf_counter() - start


def trimmed_mean(xs) -> float:
    xs = sorted(xs)
    k = int(len(xs) * TRIM)
    return statistics.fmean(xs[k:len(xs) - k])


def startup_slice() -> float:
    """Seconds a fresh interpreter takes to start, import numpy and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start


#: (slice, its time at the reference speed, task time between two slices)
COMPUTE = (compute_slice, 2.0e-3, 0.025)
STARTUP = (startup_slice, 0.15, 0.5)


def around(kind, fn, *args):
    """(speed factor, result) of fn(*args): a time measured during the call
    times the factor is that time at the reference speed of `kind`."""
    calibration_slice, reference_s, _ = kind
    before = [calibration_slice() for _ in range(AROUND)]
    result = fn(*args)
    after = [calibration_slice() for _ in range(AROUND)]
    return reference_s / trimmed_mean(before + after), result


class Clock:
    """Calibration slices between the tasks of a timed loop."""

    def __init__(self, kind=COMPUTE, warmup: int = 5):
        self.calibration_slice, self.reference_s, self.window_s = kind
        for _ in range(warmup):
            self.calibration_slice()
        self.slices = []  # seconds per slice
        self.window_of = []  # per task: index of the slice that closes its window
        self._pending = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        self.slices.append(self.calibration_slice())
        self._pending = 0.0

    def task_done(self, seconds: float) -> None:
        """Note a task's raw time; run a slice once a window has filled."""
        self.window_of.append(len(self.slices))
        self._pending += seconds
        if self._pending >= self.window_s:
            self.calibrate()

    def scaled(self, times: list) -> list:
        """The tasks' raw times, in order, scaled to the reference speed."""
        if self.window_of and self.window_of[-1] == len(self.slices):
            self.calibrate()  # close the last window
        factors = [self.reference_s / trimmed_mean(
            self.slices[max(0, j - NEIGHBOURS): j + NEIGHBOURS + 1])
            for j in range(len(self.slices))]
        return [t * factors[j] for t, j in zip(times, self.window_of)]

    def summary(self) -> dict:
        q = statistics.quantiles(self.slices, n=10) if len(self.slices) > 1 else [0.0] * 9
        return {"slices": len(self.slices), "slice_ms_p10": q[0] * 1e3,
                "slice_ms_p50": statistics.median(self.slices) * 1e3,
                "slice_ms_p90": q[-1] * 1e3, "reference_slice_ms": self.reference_s * 1e3}
