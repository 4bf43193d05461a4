"""The benchmark's summary rules: percentiles, the knee, error accounting."""

import pytest

from perfbench import stats
from perfbench.stats import Rung


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.min_samples_for(0.99) == 1000
    assert stats.min_samples_for(0.95) == 200
    assert stats.min_samples_for(0.999) == 10000
    assert stats.tail_quantile(999) == 0.95
    assert stats.tail_quantile(1000) == 0.99
    assert stats.tail_quantile(10000) == 0.999
    assert stats.tail_quantile(99) is None


def test_latency_summary_states_count_and_supported_tail():
    samples = [i / 1000.0 for i in range(1, 1001)]  # 1..1000 ms
    summary = stats.latency_summary(samples)
    assert summary["n"] == 1000
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert summary["tail_q"] == 0.99
    assert summary["tail_ms"] == pytest.approx(990.0)
    short = stats.latency_summary(samples[:300])
    assert short["tail_q"] == 0.95
    assert stats.latency_summary([])["tail_ms"] is None


def test_p99_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.p99_ms([0.001] * 999)
    assert stats.p99_ms([0.001] * 990 + [0.5] * 10) == pytest.approx(1.0)
    assert stats.p99_ms([0.001] * 989 + [0.5] * 11) == pytest.approx(500.0)


def _rung(rate, p99, drain=1.0, failed=0, samples=1200):
    return Rung(rate=rate, p99_ms=p99, drain_ratio=drain, failed=failed, samples=samples)


def test_knee_interpolates_between_last_pass_and_first_fail():
    rungs = [_rung(1000, 10.0), _rung(1200, 50.0), _rung(1440, 200.0)]
    knee, censored = stats.knee_rate(rungs, budget_ms=100.0)
    assert not censored
    assert knee == pytest.approx(1320.0)  # log(100) is halfway from log(50) to log(200)


def test_knee_is_the_highest_passing_rung_and_orders_rungs():
    # 1200 failed on a transient stall; 1440 passed, so the server kept up there.
    rungs = [_rung(1440, 20.0), _rung(1000, 10.0), _rung(1200, 400.0), _rung(1728, 400.0)]
    knee, censored = stats.knee_rate(rungs, budget_ms=100.0)
    assert not censored
    assert 1440 < knee < 1728


def test_knee_interpolates_the_drain_ratio_when_a_backlog_grows():
    backlog = [_rung(1000, 10.0, drain=0.99), _rung(1200, 60.0, drain=0.91)]
    knee, __ = stats.knee_rate(backlog, 100.0)
    assert knee == pytest.approx(1100.0)


def test_knee_failed_requests_cap_at_last_passing_rate():
    errors = [_rung(1000, 10.0), _rung(1200, 50.0, failed=3)]
    assert stats.knee_rate(errors, 100.0) == (1000, False)


def test_knee_censored_when_every_rung_passes():
    assert stats.knee_rate([_rung(1000, 5.0), _rung(1200, 6.0)], 100.0) == (1200, True)


def test_knee_undefined_when_the_first_rung_fails():
    with pytest.raises(ValueError):
        stats.knee_rate([_rung(1000, 150.0), _rung(1200, 50.0)], 100.0)
    with pytest.raises(ValueError):
        stats.knee_rate([], 100.0)
    thin = _rung(1000, 5.0, samples=999)
    assert not stats.rung_ok(thin, 100.0)


def test_error_rate_counts_failed_over_attempted():
    tally = stats.Tally()
    assert tally.error_rate == 0.0
    tally.add(100)
    tally.add(50, 5)
    assert (tally.attempted, tally.failed) == (150, 5)
    assert tally.error_rate == pytest.approx(5 / 150)
    with pytest.raises(ValueError):
        tally.add(1, 2)
    with pytest.raises(ValueError):
        tally.add(-1)
