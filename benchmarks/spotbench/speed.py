"""Host-speed calibration for the benchmark's timings.

The hosts this benchmark runs on are shared: over seconds, the same
pure-Python loop runs up to 40% slower or faster as neighbours come and go.
A fixed calibration kernel timed right before and right after each measured
region tracks that speed, and the benchmark reports each host time in
*calibrated seconds*: the measured seconds times
``REFERENCE_S / (mean of the two kernel times)``.  On a host where the kernel
takes :data:`REFERENCE_S`, calibrated and measured seconds agree.

The kernel does what the simulator does most -- heap pushes and pops of
tuples, small-object allocation, dict updates, float arithmetic -- and uses
nothing from ``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Tuple, TypeVar

#: Kernel time, in seconds, that defines one calibrated second.
REFERENCE_S = 0.006

T = TypeVar("T")


class _Item:
    __slots__ = ("time", "key", "value")

    def __init__(self, time_: float, key: int, value: int) -> None:
        self.time = time_
        self.key = key
        self.value = value


def kernel_seconds(rounds: int = 6000) -> float:
    """Time one run of the calibration kernel."""
    start = time.perf_counter()
    heap: list = []
    totals: dict = {}
    accumulated = 0.0
    popped = []
    for i in range(rounds):
        item = _Item(i * 0.37 % 101.0, i % 17, i)
        heapq.heappush(heap, (item.time, i, item))
        totals[item.key] = totals.get(item.key, 0) + item.value
        if len(heap) > 64:
            when, _, oldest = heapq.heappop(heap)
            accumulated += when * 1.0001
            popped.append(oldest.key)
    return time.perf_counter() - start


def timed(function: Callable[[], T], before: float) -> Tuple[T, float, float, float]:
    """Run *function*; return its result, raw seconds, calibrated seconds, and
    the kernel time measured after it (the next region's *before*)."""
    start = time.perf_counter()
    result = function()
    raw = time.perf_counter() - start
    after = kernel_seconds()
    return result, raw, raw * REFERENCE_S / ((before + after) / 2.0), after
