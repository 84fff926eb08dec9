"""The fault-sweep experiment: golden pin, determinism, and the paper's
graceful-degradation claim (the lock must degrade at least as fast as
the CSB at every nonzero fault rate)."""

from __future__ import annotations

import os

import pytest

from repro.common.errors import ConfigError
from repro.evaluation.experiments import EXPERIMENTS
from repro.evaluation.fault_sweep import (
    DEFAULT_RATES,
    DEFAULT_SEED,
    fault_sweep_config,
    fault_sweep_cycles,
    fault_sweep_table,
)

GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "..", "expected_results",
    "fault-sweep.csv",
)


def cycles(mechanism, rate, seed=DEFAULT_SEED):
    """Cycles per access on the sweep's machine at one fault rate."""
    return fault_sweep_cycles(mechanism, config=fault_sweep_config(rate, seed))


def test_registered_and_matches_golden_csv():
    """One simulated table call pins registration, seed determinism, and
    the checked-in golden rows all at once."""
    assert "fault-sweep" in EXPERIMENTS
    with open(GOLDEN) as handle:
        expected = handle.read()
    assert fault_sweep_table().to_csv() == expected


def test_lock_degrades_at_least_as_fast_as_csb():
    lock0 = cycles("lock", 0.0)
    csb0 = cycles("csb", 0.0)
    for rate in DEFAULT_RATES[1:]:
        lock_slowdown = cycles("lock", rate) / lock0
        csb_slowdown = cycles("csb", rate) / csb0
        assert lock_slowdown > 1.0, rate
        assert csb_slowdown > 1.0, rate
        assert lock_slowdown >= csb_slowdown, (
            rate, lock_slowdown, csb_slowdown
        )


def test_sweep_is_seed_sensitive_but_seed_deterministic():
    rate = 0.1
    with_seed_7 = cycles("lock", rate, seed=7)
    assert with_seed_7 == cycles("lock", rate, seed=7)
    assert with_seed_7 != cycles("lock", rate, seed=8)


def test_rates_must_start_at_zero():
    with pytest.raises(ConfigError):
        fault_sweep_table(rates=(0.05, 0.1))
    with pytest.raises(ConfigError):
        fault_sweep_table(rates=())


def test_unknown_mechanism_rejected():
    with pytest.raises(ConfigError):
        cycles("tm", 0.0)
