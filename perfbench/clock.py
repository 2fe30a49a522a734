"""Wall time rescaled to a fixed reference speed of the machine.

The single-thread speed of a shared host drifts by tens of percent over
seconds to minutes, far more than the bounds the benchmark must hold.  So a
short reference loop, which uses nothing from ``snoise``, runs between
operations about every ``CAL_EVERY_S`` seconds.  Each stretch of wall time
between two such calibrations is multiplied by the loop's reference
duration over the mean duration of the two calibrations around it.  The
result reads in seconds as the workload would take at the speed where the
loop takes its reference duration: a faster ``snoise`` lowers it, a busier
host much less so.  The calibration's own time is left out of the pass.

Interpreter-bound, dispatch-bound and memory-bound code slow down by
different amounts on a busy host, so the loop does a little of each: Python
float arithmetic, small numpy calls and a numpy sort of 4 MB.  Set-up is
scaled by the Python part alone, because the numpy parts would import numpy
before set-up starts.  Raw wall times are kept alongside in the result file.
"""

from __future__ import annotations

import math
import time

CAL_EVERY_S = 1.0
CAL_REPEATS = 3
# typical calibrated durations on a 2-CPU Xeon host (Python 3.11, numpy 2.4);
# these define the speed scaled times refer to
PYTHON_REF_S = 0.0035
MIXED_REF_S = 0.012

perf = time.perf_counter


def python_loop() -> float:
    total = 0.0
    for i in range(30_000):
        total += math.sqrt(i * 0.5)
    return total


class MixedLoop:
    """Python arithmetic, small numpy calls and a large numpy sort."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._small = np.arange(64.0)
        self._big = np.random.default_rng(0).random(500_000)

    def __call__(self) -> float:
        np = self._np
        total = python_loop()
        x = self._small
        for _ in range(750):
            x = np.exp(-x * 1e-3) + x.sum() * 1e-9
        return total + float(x[0]) + float(np.sort(self._big)[0])


def calibrate(loop, repeats=CAL_REPEATS) -> float:
    """Seconds ``loop`` takes now: the fastest of ``repeats`` runs.

    The fastest run follows the host's slow drifts but not the millisecond
    stalls that hit a single run.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = perf()
        loop()
        best = min(best, perf() - t0)
    return best


class _Op:
    __slots__ = ("watch", "start")

    def __init__(self, watch):
        self.watch = watch

    def __enter__(self):
        self.start = perf()
        return self

    def __exit__(self, *exc):
        self.watch._op_done(perf() - self.start)
        return False


class Stopwatch:
    """Times one pass and each operation in it, at the reference speed.

    Usage per pass: ``begin()``, then ``with watch.op(): ...`` around each
    timed operation, ``watch.step()`` after each untimed one, then ``end()``,
    which returns ``(raw_s, scaled_s)``.  Calibrations happen only between
    operations, never inside one.
    """

    def __init__(self):
        self._loop = MixedLoop()
        self._loop()  # untimed first run

    def _calibrate(self):
        cal = calibrate(self._loop)
        self.calibrations.append(cal)
        self._seg_start = perf()
        return cal

    def begin(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.latencies: list[float] = []  # scaled seconds per operation
        self.calibrations: list[float] = []
        self.steps = 0                    # untimed operations
        self._pending: list[float] = []
        self._cal = self._calibrate()

    def op(self):
        return _Op(self)

    def step(self):
        self.steps += 1
        if perf() - self._seg_start >= CAL_EVERY_S:
            self._flush()

    def _op_done(self, raw):
        self._pending.append(raw)
        if perf() - self._seg_start >= CAL_EVERY_S:
            self._flush()

    def _flush(self):
        seg = perf() - self._seg_start
        before = self._cal
        self._cal = self._calibrate()
        scale = MIXED_REF_S / (0.5 * (before + self._cal))
        self.raw_s += seg
        self.scaled_s += seg * scale
        self.latencies.extend(x * scale for x in self._pending)
        self._pending = []

    def end(self):
        self._flush()
        return self.raw_s, self.scaled_s


def scaled_interval(fn):
    """Run ``fn`` between two Python-loop calibrations.

    Returns ``(result, raw_s, scaled_s)``.
    """
    before = calibrate(python_loop, 5)
    t0 = perf()
    out = fn()
    raw = perf() - t0
    after = calibrate(python_loop, 5)
    return out, raw, raw * PYTHON_REF_S / (0.5 * (before + after))
