"""Host-speed normalization of measured seconds.

On a shared host the same work can take up to twice as long from one
minute to the next, because other tenants contend for the cores.  A
raw wall-clock median then moves with the neighbours, not with the
code.  Every timed interval the benchmark reports is therefore scaled
by ``REF_S / cal``, where ``cal`` is the mean time of a fixed
pure-Python calibration loop (independent of the library under test)
over the samples taken during the interval.  A sampler thread runs the
loop every ``PERIOD_S``; it holds the interpreter lock for about a
third of a millisecond at a time, so it costs the measured work about
3% and follows the host's speed through long operations.  The mean, not
the median, is the right statistic: the host switches between a fast
and a slow speed, and an interval's duration is the sum over both.
The result reads as seconds on a host where the loop takes ``REF_S``:
a change to the library moves it, a busy neighbour mostly does not.
"""

from __future__ import annotations

import base64
import bisect
import contextlib
import hashlib
import json
import os
import statistics
import threading
import time

clock = time.perf_counter

#: nominal time of one calibration loop
REF_S = 0.0003
#: pause between two samples
PERIOD_S = 0.01
#: an interval with fewer samples borrows the nearest ones
MIN_SAMPLES = 5
#: loops in one explicit calibration point
POINT_LOOPS = 20
#: nominal time of one store-like calibration loop
IO_REF_S = 0.00005


def calibration_loop() -> float:
    t0 = clock()
    d: dict = {}
    acc = 0
    for i in range(400):
        key = (i & 63, i & 7)
        d[key] = d.get(key, 0) + 1
        acc += len(str(i)) + max(i & 15, 3)
    return clock() - t0


def point() -> float:
    """A factor from ``POINT_LOOPS`` loops run now, in this thread."""
    return REF_S / statistics.fmean(
        calibration_loop() for _ in range(POINT_LOOPS))


def write_io_record(path: str) -> None:
    """Write the fixed record :func:`io_loop` reads."""
    doc = {"payload": {"data": base64.b64encode(bytes(range(256)) * 2)
                       .decode(), "items": list(range(64))}}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def io_loop(path: str) -> float:
    """A warm artifact-store read in miniature: read a small JSON
    record, hash it, decode it and encode it canonically again.  A warm
    serve job is mostly this work, which a busy neighbour slows by
    another share than it slows :func:`calibration_loop`: scaled by the
    pure-Python loop, warm job latencies spread 1.5-2x wider than scaled
    by this one."""
    t0 = clock()
    with open(path, "rb") as fh:
        data = fh.read()
    hashlib.sha256(data).hexdigest()
    doc = json.loads(data)
    base64.b64decode(doc["payload"]["data"])
    json.dumps(doc, sort_keys=True)
    return clock() - t0


def io_point(path: str) -> float:
    """A factor from ``POINT_LOOPS`` store-like loops run now."""
    return IO_REF_S / statistics.fmean(
        io_loop(path) for _ in range(POINT_LOOPS))


class HostSpeed:
    """A background sampler of the calibration loop; use as a context
    manager so the thread is stopped and joined.

    The process is pinned to one core while it measures, and the sampler
    thread with it: otherwise the sampler may time the other core, which
    a neighbour can slow down while the measured work runs at full speed
    (the calibration factor then swung by 1.5x while the work's own times
    held still).  Forked processes inherit the pin.
    """

    def __init__(self) -> None:
        #: (start time, loop seconds), appended by the sampler thread
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="hostspeed")

    def __enter__(self) -> "HostSpeed":
        self._cpus = os.sched_getaffinity(0)
        self._pin = {min(self._cpus)}
        os.sched_setaffinity(0, self._pin)
        self._thread.start()  # inherits the pin
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        os.sched_setaffinity(0, self._cpus)

    def _sample(self) -> None:
        while not self._stop.is_set():
            if not self._paused.is_set():
                t = clock()
                self._samples.append((t, calibration_loop()))
            self._stop.wait(PERIOD_S)

    @contextlib.contextmanager
    def paused(self):
        """No samples inside: for sub-millisecond latencies the sampler
        would delay.  Time such intervals between explicit :func:`point`
        calls."""
        self._paused.set()
        try:
            yield
        finally:
            self._paused.clear()

    def factor(self, t0: float, t1: float) -> float:
        """``REF_S`` over the mean loop time during ``[t0, t1]``."""
        samples = self._samples[:]
        if not samples:
            return point()
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1, key=lambda s: s[0])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
            mid = (t0 + t1) / 2.0
            if hi >= len(samples) or (
                    lo > 0 and mid - samples[lo - 1][0]
                    < samples[hi][0] - mid):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.fmean(d for _, d in samples[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]`` in normalized seconds."""
        return (t1 - t0) * self.factor(t0, t1)
