"""Sliding sample windows: correctness of the O(1) running statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SFD
from repro.core.tuning import SelfTuningMonitor
from repro.detectors import BertierFD, ChenFD
from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.window import (
    RECOMPUTE_EVERY,
    HeartbeatWindow,
    SampleWindow,
    SortedWindow,
)
from repro.qos.spec import QoSRequirements


class TestSampleWindow:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            SampleWindow(0)

    def test_fill_and_eviction(self):
        w = SampleWindow(3)
        assert w.push(1.0) is None
        assert w.push(2.0) is None
        assert w.push(3.0) is None
        assert w.full
        assert w.push(4.0) == 1.0  # oldest pushed out (Section IV-C2)
        assert w.values().tolist() == [2.0, 3.0, 4.0]

    def test_mean_and_variance_match_numpy(self):
        rng = np.random.default_rng(0)
        w = SampleWindow(50)
        data = rng.normal(5.0, 2.0, size=500)
        for x in data:
            w.push(x)
        live = data[-50:]
        assert w.mean == pytest.approx(np.mean(live))
        assert w.variance == pytest.approx(np.var(live))
        assert w.std == pytest.approx(np.std(live))

    def test_single_sample_variance_zero(self):
        w = SampleWindow(10)
        w.push(3.0)
        assert w.variance == 0.0

    def test_empty_queries_raise(self):
        w = SampleWindow(4)
        with pytest.raises(NotWarmedUpError):
            _ = w.mean
        with pytest.raises(NotWarmedUpError):
            _ = w.variance

    def test_rejects_nonfinite(self):
        w = SampleWindow(4)
        with pytest.raises(ConfigurationError):
            w.push(float("nan"))

    def test_clear(self):
        w = SampleWindow(4)
        w.push(1.0)
        w.clear()
        assert len(w) == 0 and not w.full

    def test_values_order_before_full(self):
        w = SampleWindow(5)
        for x in (3.0, 1.0, 2.0):
            w.push(x)
        assert w.values().tolist() == [3.0, 1.0, 2.0]

    def test_periodic_sum_refresh_consistency(self):
        # Push past the refresh boundary and check stats stay exact.
        w = SampleWindow(8)
        rng = np.random.default_rng(1)
        data = rng.random(RECOMPUTE_EVERY + 20)
        for x in data:
            w.push(x)
        assert w.mean == pytest.approx(np.mean(data[-8:]))


class TestSortedWindow:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            SortedWindow(0)

    def test_eviction_is_fifo_with_duplicates(self):
        w = SortedWindow(3)
        for x in (2.0, 1.0, 2.0):
            assert w.push(x) is None
        # Evictions follow arrival order, whatever the sorted position.
        assert w.push(2.0) == 2.0  # live: 1, 2, 2
        assert (w.quantile(0.0), w.quantile(1.0)) == (1.0, 2.0)
        assert w.push(3.0) == 1.0  # live: 2, 2, 3
        assert (w.quantile(0.0), w.quantile(0.5), w.quantile(1.0)) == (2.0, 2.0, 3.0)
        assert w.push(0.5) == 2.0  # live: 2, 3, 0.5
        assert w.push(0.5) == 2.0  # live: 3, 0.5, 0.5
        assert len(w) == 3
        assert (w.quantile(0.0), w.quantile(0.5), w.quantile(1.0)) == (0.5, 0.5, 3.0)

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.3, 0.5, 0.75, 0.9, 0.999, 1.0])
    def test_quantile_bitwise_equals_numpy(self, q):
        rng = np.random.default_rng(3)
        data = rng.choice([0.0, 0.1, 0.25, 1e-9, 7.0], size=200) + rng.random(200)
        w = SortedWindow(17)
        for i, x in enumerate(data):
            w.push(x)
            assert w.quantile(q) == np.quantile(data[max(0, i - 16) : i + 1], q)

    def test_empty_quantile_raises(self):
        with pytest.raises(NotWarmedUpError):
            SortedWindow(4).quantile(0.5)

    def test_clear(self):
        w = SortedWindow(2)
        w.push(5.0)
        w.push(6.0)
        w.clear()
        assert len(w) == 0
        with pytest.raises(NotWarmedUpError):
            w.quantile(0.5)
        assert w.push(1.0) is None  # nothing left to evict
        assert w.quantile(1.0) == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, bad):
        w = SortedWindow(4)
        w.push(1.0)
        with pytest.raises(ConfigurationError):
            w.push(bad)
        assert len(w) == 1 and w.quantile(1.0) == 1.0


class TestHeartbeatWindow:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            HeartbeatWindow(1)

    def test_sequence_must_increase(self):
        w = HeartbeatWindow(4)
        w.push(0, 0.0)
        with pytest.raises(ConfigurationError):
            w.push(0, 1.0)

    def test_running_means(self):
        w = HeartbeatWindow(3)
        for s, a in [(0, 0.0), (1, 0.1), (3, 0.33), (4, 0.41)]:
            w.push(s, a)
        arrs, seqs = w.items()
        assert seqs.tolist() == [1, 3, 4]
        assert w.mean_arrival == pytest.approx(np.mean(arrs))
        assert w.mean_seq == pytest.approx(np.mean(seqs))

    def test_interval_estimate_robust_to_gaps(self):
        # Regular 0.1 s sending with every 3rd message lost: the estimate
        # must still be ~0.1 (gap-aware denominator).
        w = HeartbeatWindow(10)
        for s in range(0, 30):
            if s % 3 == 2:
                continue
            w.push(s, 0.1 * s + 0.02)
        assert w.interval_estimate() == pytest.approx(0.1)

    def test_interval_estimate_needs_two(self):
        w = HeartbeatWindow(4)
        w.push(0, 0.0)
        with pytest.raises(NotWarmedUpError):
            w.interval_estimate()

    def test_last_accessors(self):
        w = HeartbeatWindow(4)
        with pytest.raises(NotWarmedUpError):
            _ = w.last_seq
        w.push(7, 1.5)
        assert w.last_seq == 7
        assert w.last_arrival == 1.5

    def test_eviction_updates_sums(self):
        w = HeartbeatWindow(2)
        w.push(0, 0.0)
        w.push(1, 0.1)
        w.push(2, 0.2)
        assert w.mean_arrival == pytest.approx(0.15)
        assert w.mean_seq == pytest.approx(1.5)

    def test_clear(self):
        w = HeartbeatWindow(3)
        w.push(0, 0.0)
        w.clear()
        assert len(w) == 0
        w.push(0, 5.0)  # sequence restriction resets too
        assert w.last_seq == 0


def interval_from_items(w: HeartbeatWindow) -> float:
    """Reference ``Δt``: the arrival span over the sequence span, with
    both ends read from a copy of the window (:meth:`HeartbeatWindow.items`)."""
    arrs, seqs = w.items()
    seq_span = int(seqs[-1] - seqs[0])
    return float(arrs[-1] - arrs[0]) / seq_span


#: One stream step: a heartbeat ``(sequence gap, arrival step)``, or a
#: ``clear()``.  Arrival steps include exact ties and sub-ulp steps at a
#: large clock offset.
stream_steps = st.one_of(
    st.tuples(
        st.integers(1, 5),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.sampled_from((1e-12, 0.1))),
    ),
    st.just("clear"),
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(2, 12),
    start=st.sampled_from((0.0, 1.0, 1.7e9)),
    steps=st.lists(stream_steps, min_size=2, max_size=80),
)
def test_interval_estimate_bitwise_equals_items_formula(capacity, start, steps):
    w = HeartbeatWindow(capacity)
    seq, arrival = -1, start
    for step in steps:
        if step == "clear":
            w.clear()
            continue
        gap, dt = step
        seq += gap
        arrival += dt
        w.push(seq, arrival)
        if len(w) >= 2:
            assert w.interval_estimate() == interval_from_items(w)


class TestSteadyObserveCopiesNothing:
    """Timing-free perf guard: a warmed-up Chen-family ``observe`` reads
    the window in O(1) and never copies it.

    Counts calls to :meth:`HeartbeatWindow.items` and ``np.roll`` over 200
    steady-state heartbeats; one copy per heartbeat is what made the
    windowed ``Δt`` the most expensive stage of the live plane.
    """

    REQ = QoSRequirements(
        max_detection_time=5.0, max_mistake_rate=100.0, min_query_accuracy=0.0
    )

    @classmethod
    def build(cls, family: str, window: int):
        if family == "chen":
            return ChenFD(0.1, window_size=window)
        if family == "bertier":
            return BertierFD(window_size=window)
        if family == "sfd":
            return SFD(cls.REQ, window_size=window)
        return SelfTuningMonitor(ChenFD(0.1, window_size=window), "alpha", cls.REQ)

    @pytest.mark.parametrize("window", [5, 1000])
    @pytest.mark.parametrize("family", ["chen", "bertier", "sfd", "tuned-chen"])
    def test_no_window_copy_per_heartbeat(self, family, window, monkeypatch):
        det = self.build(family, window)
        for seq in range(3 * window + 20):  # warm up past a wrapped ring
            det.observe(seq, 0.1 * seq)
        assert det.ready

        calls = []
        real_items, real_roll = HeartbeatWindow.items, np.roll

        def items(self):
            calls.append("items")
            return real_items(self)

        def roll(*args, **kwargs):
            calls.append("roll")
            return real_roll(*args, **kwargs)

        monkeypatch.setattr(HeartbeatWindow, "items", items)
        monkeypatch.setattr(np, "roll", roll)
        for seq in range(seq + 1, seq + 201):
            det.observe(seq, 0.1 * seq + 0.001 * (seq % 7))
        assert calls == []
        assert det.freshness_point() > 0.1 * seq
