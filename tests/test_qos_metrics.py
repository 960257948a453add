"""Suspicion-interval extraction and QoS accounting."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.qos.metrics import (
    MistakeAccumulator,
    account_arrival,
    qos_from_intervals,
    suspicion_intervals_from_freshness,
)


class TestSuspicionIntervals:
    def test_no_mistakes_when_freshness_always_ahead(self):
        arrivals = np.array([0.0, 1.0, 2.0, 3.0])
        freshness = arrivals + 1.5
        starts, ends = suspicion_intervals_from_freshness(arrivals, freshness)
        assert starts.size == 0 and ends.size == 0

    def test_single_late_arrival(self):
        arrivals = np.array([0.0, 1.0, 3.0])
        freshness = np.array([1.2, 2.0, 4.0])
        starts, ends = suspicion_intervals_from_freshness(arrivals, freshness)
        # Arrival at 3.0 exceeded FP 2.0 -> wrong suspicion [2.0, 3.0).
        assert starts.tolist() == [2.0]
        assert ends.tolist() == [3.0]

    def test_degenerate_freshness_clipped_at_arrival(self):
        # FP before its own arrival: suspicion can only start at A_r.
        arrivals = np.array([0.0, 5.0])
        freshness = np.array([-1.0, 6.0])
        starts, ends = suspicion_intervals_from_freshness(arrivals, freshness)
        assert starts.tolist() == [0.0]
        assert ends.tolist() == [5.0]

    def test_trailing_freshness_ignored(self):
        arrivals = np.array([0.0, 1.0])
        freshness = np.array([2.0, -10.0])  # last guard protects nothing
        starts, _ = suspicion_intervals_from_freshness(arrivals, freshness)
        assert starts.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            suspicion_intervals_from_freshness(np.zeros(3), np.zeros(4))

    def test_short_input_yields_empty(self):
        starts, ends = suspicion_intervals_from_freshness(
            np.array([1.0]), np.array([2.0])
        )
        assert starts.size == 0 and ends.size == 0

    def test_infinite_freshness_never_mistaken(self):
        arrivals = np.array([0.0, 100.0, 200.0])
        freshness = np.full(3, np.inf)
        starts, _ = suspicion_intervals_from_freshness(arrivals, freshness)
        assert starts.size == 0


class TestQoSFromIntervals:
    def test_basic_accounting(self):
        qos = qos_from_intervals(
            starts=np.array([10.0, 50.0]),
            ends=np.array([12.0, 51.0]),
            detection_times=np.array([0.2, 0.3, 0.4]),
            t_begin=0.0,
            t_end=100.0,
        )
        assert qos.mistakes == 2
        assert qos.mistake_time == pytest.approx(3.0)
        assert qos.mistake_rate == pytest.approx(0.02)
        assert qos.query_accuracy == pytest.approx(0.97)
        assert qos.detection_time == pytest.approx(0.3)
        assert qos.samples == 3

    def test_empty_intervals(self):
        qos = qos_from_intervals(
            np.empty(0), np.empty(0), np.array([0.5]), t_begin=0.0, t_end=10.0
        )
        assert qos.mistakes == 0
        assert qos.query_accuracy == 1.0

    def test_nan_detection_without_samples(self):
        qos = qos_from_intervals(
            np.empty(0), np.empty(0), np.empty(0), t_begin=0.0, t_end=10.0
        )
        assert math.isnan(qos.detection_time)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_samples_the_accumulator_rejects(self, bad):
        # The batch paths apply MistakeAccumulator.add_detection_sample's
        # rule to the samples' mean; +inf stays a legal sample.
        with pytest.raises(ConfigurationError, match="detection sample"):
            qos_from_intervals(
                np.empty(0), np.empty(0), np.array([0.5, bad]), 0.0, 10.0
            )
        qos = qos_from_intervals(
            np.empty(0), np.empty(0), np.array([0.5, math.inf]), 0.0, 10.0
        )
        assert qos.detection_time == math.inf

    def test_mistake_time_clamped_to_period(self):
        qos = qos_from_intervals(
            np.array([0.0]), np.array([20.0]), np.empty(0), t_begin=0.0, t_end=10.0
        )
        assert qos.query_accuracy == 0.0

    def test_rejects_empty_period(self):
        with pytest.raises(ConfigurationError):
            qos_from_intervals(np.empty(0), np.empty(0), np.empty(0), 5.0, 5.0)


class TestMistakeAccumulator:
    def test_snapshot_matches_batch(self):
        acc = MistakeAccumulator(t_begin=0.0)
        acc.add_mistake(10.0, 12.0)
        acc.add_mistake(50.0, 51.0)
        for td in (0.2, 0.3, 0.4):
            acc.add_detection_sample(td)
        snap = acc.snapshot(100.0)
        batch = qos_from_intervals(
            np.array([10.0, 50.0]),
            np.array([12.0, 51.0]),
            np.array([0.2, 0.3, 0.4]),
            0.0,
            100.0,
        )
        assert snap.mistakes == batch.mistakes
        assert snap.mistake_time == pytest.approx(batch.mistake_time)
        assert snap.query_accuracy == pytest.approx(batch.query_accuracy)
        assert snap.detection_time == pytest.approx(batch.detection_time)

    def test_empty_interval_ignored(self):
        acc = MistakeAccumulator(t_begin=0.0)
        acc.add_mistake(5.0, 5.0)
        acc.add_mistake(5.0, 4.0)
        assert acc.mistakes == 0

    def test_rejects_nonfinite_detection_sample(self):
        acc = MistakeAccumulator(t_begin=0.0)
        for bad in (math.nan, -math.inf):
            with pytest.raises(ConfigurationError):
                acc.add_detection_sample(bad)
        assert acc.td_count == 0

    def test_snapshot_requires_elapsed_time(self):
        acc = MistakeAccumulator(t_begin=5.0)
        with pytest.raises(ConfigurationError):
            acc.snapshot(5.0)


class TestAccountArrival:
    """The one streaming rule (DESIGN.md §5, one arrival at a time)."""

    def test_first_call_starts_accounting_without_a_mistake(self):
        acc = account_arrival(None, 10.0, 11.0, 9.9)
        assert acc.t_begin == 10.0
        assert acc.mistakes == 0
        assert acc.td_count == 1
        assert acc.detection_time == pytest.approx(1.1)

    def test_late_arrival_is_one_mistake_from_the_guarding_fp(self):
        acc = account_arrival(None, 0.0, 1.0, 0.0)
        acc = account_arrival(acc, 1.5, 2.0, 1.5)  # FP 1.0 passed at 1.0
        acc = account_arrival(acc, 1.9, 3.0, 1.9)  # on time
        assert acc.mistakes == 1
        assert acc.mistake_time == pytest.approx(0.5)

    def test_degenerate_fp_clipped_at_its_arrival(self):
        acc = account_arrival(None, 5.0, 4.0, 5.0)  # FP before its arrival
        acc = account_arrival(acc, 7.0, 8.0, 7.0)
        assert acc.mistake_time == pytest.approx(2.0)

    def test_infinite_fp_never_mistaken_and_td_infinite(self):
        acc = None
        for a in (0.0, 100.0, 200.0):
            acc = account_arrival(acc, a, math.inf, a)
        report = acc.snapshot(200.0)
        assert report.mistakes == 0
        assert report.query_accuracy == 1.0
        assert report.detection_time == math.inf
