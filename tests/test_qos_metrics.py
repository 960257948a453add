"""Suspicion-interval extraction and QoS accounting.

The replay's accounting (:func:`qos_from_freshness`) finds late reveals by
comparison and takes lateness only where a reveal is late.  The
subtraction-based accounting it replaced, every reveal's gap computed and
kept where positive, stays below as the oracle: reports must be ``==``
field for field, floats compared as their bits.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.qos.metrics import (
    DENSE_LATE_SHARE,
    MistakeAccumulator,
    _mean_detection,
    _report,
    account_arrival,
    qos_from_freshness,
    qos_from_intervals,
    suspicion_intervals_from_freshness,
)
from repro.replay.engine import _account, _rising
from repro.traces.trace import MonitorView


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


# --------------------------------------------------------------------- #
# late reveals by comparison ≡ by subtraction
# --------------------------------------------------------------------- #


def subtraction_qos(arrivals, freshness, detection_times, t_begin, t_end):
    """The oracle: every reveal's gap ``A[1:] − max(FP[:-1], A[:-1])`` by
    subtraction, late where positive, summed over the late gaps."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    freshness = np.asarray(freshness, dtype=np.float64)
    td, samples = _mean_detection(detection_times)
    if arrivals.size < 2:
        return _report(0, 0.0, td, samples, t_begin, t_end)
    gaps = np.maximum(freshness[:-1], arrivals[:-1])
    np.subtract(arrivals[1:], gaps, out=gaps)
    wrong = gaps[gaps > 0.0]
    mistakes = int(wrong.size)
    mistake_time = float(np.sum(wrong)) if mistakes else 0.0
    return _report(mistakes, mistake_time, td, samples, t_begin, t_end)


def report_bits(report) -> tuple:
    return tuple(
        struct.unpack("<q", struct.pack("<d", v))[0] if isinstance(v, float) else v
        for v in (
            report.detection_time,
            report.mistake_rate,
            report.query_accuracy,
            report.mistakes,
            report.mistake_time,
            report.accounted_time,
            report.samples,
        )
    )


def assert_accounts_like_subtraction(arrivals, freshness):
    """Every way of calling the comparison path equals the oracle."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    freshness = np.asarray(freshness, dtype=np.float64)
    td = np.zeros(arrivals.size)
    span = (float(arrivals[0]), float(arrivals[-1]) + 1.0)
    expected = report_bits(subtraction_qos(arrivals, freshness, td, *span))
    m = max(arrivals.size - 1, 0)
    rising = arrivals[1:] > arrivals[:-1]
    gaps = np.full(arrivals.size + 3, np.nan)
    late = np.ones(arrivals.size + 3, dtype=bool)
    for kwargs in (
        {},
        {"rising": rising},
        {"gaps": gaps, "late": late},
        {"gaps": gaps, "late": late, "rising": rising},
    ):
        actual = qos_from_freshness(arrivals, freshness, td, *span, **kwargs)
        assert report_bits(actual) == expected, kwargs
    return expected[3] / m if m else 0.0


#: Reveal gaps drawn with ties (``A[j+1] == A[j]``) and tiny steps.
gap_pool = st.one_of(
    st.just(0.0), st.just(5e-324), st.floats(1e-9, 1e-3), st.floats(0.05, 2.0)
)
#: Freshness offsets from each arrival: late, on time, degenerate, NaN, ±inf.
offset_pool = st.one_of(
    st.just(0.0),
    st.just(math.nan),
    st.just(math.inf),
    st.just(-math.inf),
    st.floats(-1.0, 1.0),
    st.floats(1e-12, 1e-6),
)


@settings(max_examples=400, deadline=None)
@given(
    start=st.sampled_from((0.0, 0.3, 1.5e6, 2.0**40)),
    gaps=st.lists(gap_pool, min_size=0, max_size=120),
    offsets=st.data(),
)
def test_comparison_accounting_equals_subtraction(start, gaps, offsets):
    arrivals = start + np.concatenate(([0.0], np.cumsum(gaps)))
    arrivals = np.maximum.accumulate(arrivals)  # rounding keeps them sorted
    freshness = arrivals + np.array(
        offsets.draw(
            st.lists(offset_pool, min_size=arrivals.size, max_size=arrivals.size)
        )
    )
    assert_accounts_like_subtraction(arrivals, freshness)


def test_ties_and_nonfinite_freshness():
    arrivals = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    freshness = np.array(
        [0.5, 0.5, 0.9, np.nan, -np.inf, np.inf, 3.5, -1.0, np.nan, 8.0, 9.0]
    )
    assert_accounts_like_subtraction(arrivals, freshness)
    report = qos_from_freshness(arrivals, freshness, np.zeros(11), 0.0, 9.0)
    # Late: 1.0 after FP 0.5, 2.0 after its tied predecessor 1.0, 5.0
    # after 4.0 and 6.0 after 5.0 (FP −1.0 is clipped at its arrival).
    # Not late: a tie (1.0 → 1.0, and 3.0 → 3.0 under FP −inf), the gaps
    # NaN and +inf guard, and 8.0 arriving exactly at its FP.
    assert report.mistakes == 4
    assert report.mistake_time == 0.5 + 1.0 + 1.0 + 1.0


def heavy_tailed_arrivals(rng, n: int) -> np.ndarray:
    """Sorted arrivals whose gaps span many magnitudes, so that summing
    the lateness in any other order shows in the last bits."""
    return 1e5 + np.cumsum(rng.lognormal(-2.0, 2.5, n))


@pytest.mark.parametrize("offset, share", [(1e9, 0.0), (-1e9, 1.0)])
def test_no_late_and_all_late_reveals(offset, share):
    arrivals = heavy_tailed_arrivals(np.random.default_rng(5), 5000)
    assert assert_accounts_like_subtraction(arrivals, arrivals + offset) == share


@pytest.mark.parametrize("target", [0.02, 0.3, DENSE_LATE_SHARE - 0.05,
                                    DENSE_LATE_SHARE + 0.05, 0.95])
def test_both_lateness_paths(target):
    """Late shares on both sides of the crossover, so the gathered and the
    full-array lateness paths both run."""
    rng = np.random.default_rng(int(target * 1000))
    arrivals = heavy_tailed_arrivals(rng, 20_000)
    timeout = np.quantile(np.diff(arrivals), 1.0 - target)
    freshness = arrivals + timeout
    freshness[rng.random(arrivals.size) < 0.01] = np.nan
    share = assert_accounts_like_subtraction(arrivals, freshness)
    assert abs(share - target) < 0.02
    assert (share > DENSE_LATE_SHARE) == (target > DENSE_LATE_SHARE)


@pytest.mark.parametrize("r0", [0, 1, 99, 2946])
def test_account_slices_like_the_oracle(small_view, r0):
    """``_account``'s ``r0`` slices, with and without the borrowed pair
    and the view's ``rising``, against the oracle on the same slices."""
    view = small_view
    rng = np.random.default_rng(r0)
    fp = view.arrivals + rng.uniform(0.0, 0.2, len(view))
    fp[: r0 // 2] = np.nan  # warm-up points are never read
    arrivals, fresh = view.arrivals[r0:], fp[r0:]
    expected = report_bits(
        subtraction_qos(
            arrivals, fresh, fresh - view.send_times[r0:],
            float(arrivals[0]), float(arrivals[-1]),
        )
    )
    size = len(view) - r0
    scratch = np.empty(size), np.empty(size, dtype=bool)
    rising = _rising(view)
    assert report_bits(_account(view, fp, r0)) == expected
    assert report_bits(_account(view, fp, r0, scratch)) == expected
    assert report_bits(_account(view, fp, r0, scratch, rising)) == expected
    assert report_bits(_account(view, fp, r0, None, rising)) == expected


def test_rising_is_the_views_strict_increase():
    view = MonitorView(
        seq=np.arange(6),
        arrivals=np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.5]),
        send_times=np.arange(6, dtype=np.float64),
    )
    rising = _rising(view)
    assert rising.tolist() == [True, False, True, False, True]
    assert not rising.flags.writeable
