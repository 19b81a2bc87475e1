"""Wall-clock timing of named phases.

The performance experiments (Table II, Figures 4, 6, 7) need consistent
timing of individual phases (covariance generation, Cholesky factorization,
QMC sweep).  A :class:`TimingRegistry` accumulates named regions so a caller
can print per-phase breakdowns.

No function takes a registry argument.  Library code times its phases with
:func:`timed` (a region) and :func:`add_timing` (a measured total); both
record into the registry of the innermost active :func:`collect_timings`
block and do nothing when none is active.  The active collector lives in a
:class:`contextvars.ContextVar`, so each thread collects on its own, and a
nested collector's phases also reach every enclosing one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = ["TimingRegistry", "add_timing", "collect_timings", "timed"]


@dataclass
class _Stat:
    total: float = 0.0
    count: int = 0
    minimum: float = float("inf")
    maximum: float = 0.0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class TimingRegistry:
    """Accumulates named timing regions.

    Filled by :func:`collect_timings` to report the time spent in Cholesky
    factorization vs the QMC sweep, mirroring the paper's discussion of
    which phase dominates in dense vs TLR runs.
    """

    stats: dict[str, _Stat] = field(default_factory=lambda: defaultdict(_Stat))

    @contextmanager
    def region(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stats[name].add(time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.stats[name].add(seconds)

    def total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def mean(self, name: str) -> float:
        return self.stats[name].mean if name in self.stats else 0.0

    def count(self, name: str) -> int:
        return self.stats[name].count if name in self.stats else 0

    def names(self) -> list[str]:
        return sorted(self.stats)

    def merge(self, other: "TimingRegistry") -> None:
        for name, stat in other.stats.items():
            agg = self.stats[name]
            agg.total += stat.total
            agg.count += stat.count
            agg.minimum = min(agg.minimum, stat.minimum)
            agg.maximum = max(agg.maximum, stat.maximum)

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "total": stat.total,
                "count": float(stat.count),
                "mean": stat.mean,
                "min": stat.minimum if stat.count else 0.0,
                "max": stat.maximum,
            }
            for name, stat in self.stats.items()
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = ["region                          total(s)   calls    mean(s)"]
        for name in self.names():
            stat = self.stats[name]
            lines.append(f"{name:<30s} {stat.total:10.4f} {stat.count:7d} {stat.mean:10.4f}")
        return "\n".join(lines)


#: the registry of the innermost active ``collect_timings`` block
_ACTIVE: ContextVar[TimingRegistry | None] = ContextVar("repro_timings", default=None)


@contextmanager
def collect_timings():
    """Collect the phases timed in this context into a fresh registry.

    Yields the :class:`TimingRegistry`.  On exit its regions are merged
    into the enclosing collector, if there is one.

    >>> with collect_timings() as outer:
    ...     with collect_timings() as inner:
    ...         with timed("phase"):
    ...             pass
    >>> inner.count("phase"), outer.count("phase")
    (1, 1)
    """
    registry = TimingRegistry()
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)
        enclosing = _ACTIVE.get()
        if enclosing is not None:
            enclosing.merge(registry)


@contextmanager
def timed(name: str):
    """Time a region into the active collector; a no-op when none is active."""
    registry = _ACTIVE.get()
    if registry is None:
        yield
    else:
        with registry.region(name):
            yield


def add_timing(name: str, seconds: float) -> None:
    """Record a measured duration into the active collector, if any."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.add(name, seconds)
