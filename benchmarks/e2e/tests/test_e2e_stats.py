"""Percentiles, sample-count rule, spread, calibration normalisation."""

import pytest

from harness import (
    CALIB_REF_MS, CycleSample, normalise, percentile, spread,
    summarise_window, tail_supported,
)


def test_percentile_interpolates_and_handles_edges():
    assert percentile([5.0], 99) == 5.0
    assert percentile([1, 2, 3, 4, 5], 50) == 3.0
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1.0
    assert percentile([4, 1, 3, 2], 100) == 4.0
    assert percentile(list(range(101)), 90) == pytest.approx(90.0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert not tail_supported(72, 99)
    assert not tail_supported(999, 99)
    assert tail_supported(1000, 99)
    assert tail_supported(7200, 99)
    assert tail_supported(100, 90) and not tail_supported(99, 90)


def test_spread_is_iqr_over_median():
    values = [10.0, 10.0, 10.0, 10.0]
    assert spread(values) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    # statistics.quantiles(n=4) exclusive method: q1=8.5, q3=11.5
    assert spread(values) == pytest.approx(3.0 / 10.0)
    assert spread([5.0]) == 0.0


def test_normalise_cancels_a_uniformly_slower_machine():
    quiet = normalise(0.600, [0.004, 0.004, 0.004])
    slow = normalise(0.900, [0.006, 0.006, 0.006])
    assert quiet == pytest.approx(slow)
    # on the reference box calibrated ms read like raw ms
    assert normalise(0.600, [CALIB_REF_MS / 1000.0]) == pytest.approx(600.0)


def test_window_summary_on_synthetic_cycles():
    # the box alternates between its quiet speed and 1.5x slower; the
    # program's cycle costs 100 reference-ms throughout
    samples = []
    for i in range(20):
        factor = 1.5 if i % 2 else 1.0
        samples.append(CycleSample(
            index=i, step_wall_s=[0.060 * factor, 0.040 * factor],
            calib_s=[0.004 * factor] * 6, sim_s=7.0, ok=True))
    summary = summarise_window(samples)
    assert summary["wall_norm_ms_p50"] == pytest.approx(100.0)
    assert summary["cycles_per_s"] == pytest.approx(10.0)
    assert summary["sim_s_per_cycle"] == pytest.approx(7.0)
    assert summary["client.cycle_wall_raw_ms_p50"] == pytest.approx(125.0)
    assert summary["client.drift_ratio"] == pytest.approx(1.0)
    assert summary["client.samples"] == 20


def test_drift_ratio_sees_cycles_getting_slower():
    samples = [CycleSample(i, [0.100 * (1 + i / 10.0)], [0.004] * 6, 1.0, True)
               for i in range(16)]
    assert summarise_window(samples)["client.drift_ratio"] > 1.5
