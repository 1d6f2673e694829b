"""Shared benchmark fixtures.

Benchmarks run with the SGX cost model ENABLED (its ledger charges are
the modeled column the figures report beside measured time).  The active parameter profile is
chosen by ``REPRO_BENCH_SCALE`` (quick | full); see
``repro.bench.params`` and EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.bench.params import load_params


@pytest.fixture(scope="session")
def params():
    active = load_params()
    print(f"\n[bench] parameter profile: {active.name}")
    return active
