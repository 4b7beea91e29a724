"""Randomized sweeps: reproducibility and two-route consistency."""

from __future__ import annotations

import pytest

from wlpcheck import run_random_trials
from wlpcheck.trials import TrialConfig


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(count=0)
    with pytest.raises(ValueError):
        TrialConfig(count=5, min_degree=4, max_degree=3)
    with pytest.raises(ValueError):
        TrialConfig(count=5, min_generators=6, max_generators=5)
    with pytest.raises(ValueError):
        TrialConfig(count=5, min_generators=2)  # three variables need three powers


def test_small_sweep_is_consistent_and_reproducible():
    config = TrialConfig(count=6, seed=424242, max_degree=6, max_generators=4)
    report = run_random_trials(config)
    assert len(report.results) == 6
    assert report.all_wlp
    assert report.all_consistent
    for result in report.results:
        assert result.wlp_holds
        assert result.predicted_holds
        assert result.ranks_agree
        assert result.consistent
        assert len(result.degrees) >= 3
        assert result.hilbert[0] == 1

    again = run_random_trials(config)
    assert again == report


def test_trials_differ_across_indexes():
    config = TrialConfig(count=4, seed=11, max_degree=5, max_generators=4)
    report = run_random_trials(config)
    degree_sets = {r.degrees for r in report.results}
    hilberts = {r.hilbert for r in report.results}
    assert len(degree_sets) > 1 or len(hilberts) > 1


def test_seed_changes_the_draws():
    a = run_random_trials(TrialConfig(count=3, seed=1, max_degree=5, max_generators=4))
    b = run_random_trials(TrialConfig(count=3, seed=2, max_degree=5, max_generators=4))
    assert a != b
