"""Host-normalized timing: a fixed reference kernel and a segment clock.

The benchmark host's own speed drifts, by more than a tenth between runs
and by up to 2.4x for minutes at a time, while CPU time keeps equal to
wall time (so ``process_time`` would not help).  The clock therefore
measures the host while it measures the program.  At the first period
boundary at least ``SEGMENT_S`` after a segment opened, it closes the
segment, runs a fixed reference kernel and charges the segment as

    raw_segment_s * REF_NOMINAL_MS / ref_measured_ms

where ``ref_measured_ms`` is the mean of the reference timings taken
right before and right after the segment.  The reference kernel's own
time is never part of a segment.  Segments are cut by time, not by a
period count, because a period takes 10 to 40 ms depending on the
workload while the host's speed changes within a second.  This module
imports nothing from the program under test.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Minimum wall time of a timed segment, in seconds.
SEGMENT_S = 0.1

#: Time of one reference block on the nominal host, in ms.  Normalized
#: seconds are seconds on a host that runs one block in exactly this
#: time.
REF_NOMINAL_MS = 4.0

# A small fixed polygon (pure-Python ray casting, the program's hottest
# kind of work) and a 256-element array (the small NumPy ops it mixes in).
_POLY = ((0.0, 0.0), (3.0, 0.5), (4.0, 3.0), (1.5, 4.5), (-0.5, 2.5))
_ARRAY = np.linspace(0.0, 1.0, 256)
_PY_POINTS = 5200
_NP_ROUNDS = 120


def _reference_block() -> float:
    """One block of fixed work: float ray casts plus small array ops."""
    acc = 0.0
    x, y = 0.1, 0.2
    poly = _POLY
    for _ in range(_PY_POINTS):
        x = (x * 1.37 + 0.61) % 5.0
        y = (y * 1.91 + 0.37) % 5.0
        inside = False
        bx, by = poly[-1]
        for ax, ay in poly:
            if (ay > y) != (by > y) and x < ax + (y - ay) * (bx - ax) / (by - ay):
                inside = not inside
            bx, by = ax, ay
        if inside:
            acc += math.hypot(x, y)
    a = _ARRAY.copy()
    for _ in range(_NP_ROUNDS):
        d = np.hypot(a - 0.3, a[::-1] - 0.7)
        acc += float(d[d < 0.5].sum())
        a = np.sqrt(a * 0.999 + 0.0005)
    return acc


def measure_ref_ms() -> float:
    """Wall time of one reference block, in milliseconds."""
    start = perf_counter()
    _reference_block()
    return (perf_counter() - start) * 1e3


class SegmentClock:
    """Times one scheme run in host-normalized segments of periods.

    :meth:`begin` takes the opening reference measurement; the step hook
    calls :meth:`on_step` before every period; :meth:`end` closes the last
    segment once the run has returned.  The run's clock starts at its
    first period, so set-up before period 1 is not charged here.
    """

    def __init__(self) -> None:
        self.refs: list = []
        self.raw: list = []
        self.sensor_periods = 0
        self.world = None
        self._segment_start = None
        self._population = None
        self._live = 0

    def begin(self) -> None:
        self.refs.append(measure_ref_ms())

    def on_step(self, world) -> None:
        if self._segment_start is None:
            self.world = world
        elif perf_counter() - self._segment_start >= SEGMENT_S:
            self._close_segment()
        if world.population_version != self._population:
            self._population = world.population_version
            self._live = world.alive_count()
        self.sensor_periods += self._live
        if self._segment_start is None:
            self._segment_start = perf_counter()

    def _close_segment(self) -> None:
        self.raw.append(perf_counter() - self._segment_start)
        self.refs.append(measure_ref_ms())
        self._segment_start = perf_counter()

    def end(self) -> None:
        if self._segment_start is not None:
            self._close_segment()
            self._segment_start = None

    @property
    def raw_s(self) -> float:
        """Wall seconds of the run's periods (reference kernel excluded)."""
        return sum(self.raw)

    @property
    def normalized_s(self) -> float:
        """Host-normalized seconds of the run's periods."""
        return sum(
            normalize(raw, self.refs[i], self.refs[i + 1])
            for i, raw in enumerate(self.raw)
        )


def normalize(raw_s: float, ref_before_ms: float, ref_after_ms: float) -> float:
    """``raw_s`` charged at the host speed measured just around it."""
    return raw_s * REF_NOMINAL_MS * 2.0 / (ref_before_ms + ref_after_ms)


def normalized(measure) -> float:
    """Host-normalized ``measure()``, which times something in raw seconds."""
    before = measure_ref_ms()
    raw = measure()
    return normalize(raw, before, measure_ref_ms())
