"""Phase timers for the adaptation-round control stack.

Every adaptation round runs the same control stack -- the parallelization
controller proposes a configuration (``propose``), the device mapper solves
the placement matching (``map``), the migration planner orders the transfers
(``plan``) -- all inside the discrete-event simulation loop (``simulate``).
:class:`PhaseTimers` accumulates wall-clock time and call counts per phase so
the perf harness in ``benchmarks/perf/`` can report a per-phase breakdown and
track the adaptation-round cost as a first-class, regression-guarded metric
(``map`` and ``plan`` each carry their own ``ms_per_call`` baseline guard).

Phase timing wraps the *outermost* call, so a memo hit inside a phase (the
mapper's submatrix memo) still counts as one cheap call — exactly what the
per-call guard should see.

Timers never influence simulated behaviour: they only read
``time.perf_counter`` around existing calls, so enabling or disabling them
cannot change a single decision or digest.  Components accept an optional
timers object and default to :data:`NULL_TIMERS`, a shared no-op instance, so
standalone use (tests, notebooks) pays nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class PhaseTimers:
    """Accumulates wall-clock seconds and call counts per named phase."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under *name* (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    def record(self, name: str, seconds: float) -> None:
        """Add one timed call of *seconds* to phase *name*."""
        if not self.enabled:
            return
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + 1

    def reset(self) -> None:
        """Drop all accumulated measurements."""
        self._seconds.clear()
        self._calls.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        """Total wall-clock seconds spent in phase *name*."""
        return self._seconds.get(name, 0.0)

    def calls(self, name: str) -> int:
        """Number of timed calls recorded for phase *name*."""
        return self._calls.get(name, 0)

    @property
    def phases(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds": ..., "calls": ...}}`` for every phase seen."""
        return {
            name: {"seconds": self._seconds[name], "calls": float(self._calls[name])}
            for name in sorted(self._seconds)
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Alias of :attr:`phases` (a fresh dict, safe to mutate)."""
        return self.phases


class _NullTimers(PhaseTimers):
    """Shared no-op timers used when a component gets no real instance."""

    def __init__(self) -> None:
        super().__init__(enabled=False)


#: Process-wide no-op instance; components fall back to it so timing code
#: needs no ``if timers is not None`` guards.
NULL_TIMERS = _NullTimers()
