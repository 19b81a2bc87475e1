"""Shared utilities: input validation, timers, and lightweight reporting.

These helpers are intentionally dependency-free (NumPy only) so every other
subpackage can rely on them without import cycles.
"""

from repro.utils.validation import (
    check_covariance,
    check_limits,
    check_positive_int,
    check_probability,
    check_square,
    check_symmetric,
    ensure_1d,
    ensure_2d,
)
from repro.utils.timers import TimingRegistry, add_timing, collect_timings, timed
from repro.utils.reporting import Table, format_seconds, format_si

__all__ = [
    "check_covariance",
    "check_limits",
    "check_positive_int",
    "check_probability",
    "check_square",
    "check_symmetric",
    "ensure_1d",
    "ensure_2d",
    "TimingRegistry",
    "add_timing",
    "collect_timings",
    "timed",
    "Table",
    "format_seconds",
    "format_si",
]
