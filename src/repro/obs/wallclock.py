"""The library's only wall-clock reader.

Determinism is a code-level contract here (see ``docs/analysis.md``,
rule DET01): logic must take time from the virtual bus clock
(``bus.clock_ms``) so that the same seed replays byte-identically,
and anything that genuinely wants *wall* time — latency measurement
for metrics, CLI progress lines, the benchmark harness — must go
through this module.  That keeps every wall-clock consumer in one
audited, greppable place; the static analyzer flags
``time.time``/``time.perf_counter``/``datetime.now`` calls anywhere
else.

Nothing measured here may influence control flow or any value that
reaches the simulation event log: wall time feeds *observations*
(histograms, trace spans, printed durations), never decisions.  The
regression test for that contract jitters :func:`now_s` and asserts
the sim fingerprint does not move
(``tests/analysis/test_wallclock_isolation.py``).
"""

from __future__ import annotations

import time

__all__ = ["now_s", "now_ms", "elapsed_s", "elapsed_ms"]


def now_s() -> float:
    """Monotonic wall time in seconds (measurement only, never logic)."""
    return time.perf_counter()


def now_ms() -> float:
    """Monotonic wall time in milliseconds (measurement only)."""
    return time.perf_counter() * 1000.0


def elapsed_s(started_s: float) -> float:
    """Seconds since a :func:`now_s` reading."""
    return now_s() - started_s


def elapsed_ms(started_s: float) -> float:
    """Milliseconds since a :func:`now_s` reading."""
    return (now_s() - started_s) * 1000.0
