"""Property-based tests (hypothesis) on the core invariants.

These cover the load-bearing identities: window statistics vs numpy,
streaming/vectorized freshness-point equality on arbitrary traces, metric
domain invariants, Chen's α monotonicity, and the feedback classification
being total and consistent.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.detectors import BertierFD, ChenFD, PhiFD
from repro.detectors.window import SampleWindow
from repro.qos.metrics import (
    qos_from_intervals,
    suspicion_intervals_from_freshness,
)
from repro.qos.spec import QoSReport, QoSRequirements, Satisfaction, classify
from repro.replay import bertier_freshness, chen_freshness, phi_freshness
from repro.traces.trace import MonitorView

from conftest import stream_freshness


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

@st.composite
def monitor_views(draw, min_size=12, max_size=120):
    """Random but valid monitor views: increasing seqs, ordered arrivals."""
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    base_interval = draw(st.floats(0.01, 1.0))
    jitter = draw(st.floats(0.0, 0.5)) * base_interval
    periods = np.maximum(
        rng.normal(base_interval, jitter, size=n - 1), base_interval * 0.05
    )
    send = np.concatenate(([0.0], np.cumsum(periods)))
    delay = draw(st.floats(0.001, 0.5))
    delays = delay + rng.exponential(delay * 0.3, size=n)
    # Random loss pattern, keep at least min_size received.
    lost = rng.random(n) < draw(st.floats(0.0, 0.2))
    lost[: min_size] = False
    arrivals = send + delays
    keep = ~lost
    seq = np.nonzero(keep)[0].astype(np.int64)
    arr = arrivals[keep]
    order = np.argsort(arr, kind="stable")
    seq, arr = seq[order], arr[order]
    front = seq >= np.maximum.accumulate(seq)
    seq, arr = seq[front], arr[front]
    # The stale-drop front can shrink heavily reordered draws below the
    # vectorized kernels' minimum view size; reject those examples.
    assume(seq.size >= min(min_size, 3))
    return MonitorView(seq=seq, arrivals=arr, send_times=send[seq])


qos_reports = st.builds(
    QoSReport,
    detection_time=st.floats(0.0, 100.0),
    mistake_rate=st.floats(0.0, 100.0),
    query_accuracy=st.floats(0.0, 1.0),
)

requirements = st.builds(
    QoSRequirements,
    max_detection_time=st.floats(0.001, 100.0),
    max_mistake_rate=st.floats(0.0, 100.0),
    min_query_accuracy=st.floats(0.0, 1.0),
)


# --------------------------------------------------------------------- #
# window statistics
# --------------------------------------------------------------------- #

@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
    st.integers(1, 50),
)
def test_sample_window_matches_numpy(samples, capacity):
    w = SampleWindow(capacity)
    for x in samples:
        w.push(x)
    live = np.asarray(samples[-capacity:])
    assert math.isclose(w.mean, float(np.mean(live)), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        w.variance, float(np.var(live)), rel_tol=1e-6, abs_tol=1e-3
    )


# --------------------------------------------------------------------- #
# metric invariants
# --------------------------------------------------------------------- #

@given(monitor_views(), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_interval_extraction_invariants(view, alpha):
    r0 = 4
    # Reordering stale-drops can shrink a view below the window + one
    # accounted interval; such traces are not replayable at this window.
    assume(len(view) >= r0 + 2)
    assume(view.arrivals[-1] > view.arrivals[r0])
    fp = chen_freshness(view, alpha, window=5)
    starts, ends = suspicion_intervals_from_freshness(
        view.arrivals[r0:], fp[r0:]
    )
    assert starts.shape == ends.shape
    assert (ends > starts).all()
    # Intervals are disjoint and ordered.
    assert (starts[1:] >= ends[:-1]).all()
    qos = qos_from_intervals(
        starts,
        ends,
        fp[r0:] - view.send_times[r0:],
        t_begin=float(view.arrivals[r0]),
        t_end=float(view.arrivals[-1]),
    )
    assert 0.0 <= qos.query_accuracy <= 1.0
    assert qos.mistake_rate >= 0.0
    assert qos.mistakes == starts.size


@given(monitor_views())
@settings(max_examples=30, deadline=None)
def test_chen_alpha_monotone_in_mistakes(view):
    """A larger safety margin never creates more or longer mistakes."""
    r0 = 4
    assume(len(view) >= r0 + 2)
    lo = chen_freshness(view, 0.01, window=5)
    hi = chen_freshness(view, 1.0, window=5)
    s_lo, e_lo = suspicion_intervals_from_freshness(view.arrivals[r0:], lo[r0:])
    s_hi, e_hi = suspicion_intervals_from_freshness(view.arrivals[r0:], hi[r0:])
    assert s_hi.size <= s_lo.size
    assert float(np.sum(e_hi - s_hi)) <= float(np.sum(e_lo - s_lo)) + 1e-12


# --------------------------------------------------------------------- #
# streaming == vectorized on arbitrary traces
# --------------------------------------------------------------------- #

@given(monitor_views(), st.integers(3, 12), st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_chen_streaming_equals_vectorized(view, window, alpha):
    fps = stream_freshness(ChenFD(alpha, window_size=window), view)
    fpv = chen_freshness(view, alpha, window=window)
    m = ~np.isnan(fps)
    np.testing.assert_allclose(fpv[m], fps[m], rtol=0, atol=1e-8)


@given(monitor_views(), st.integers(3, 12))
@settings(max_examples=25, deadline=None)
def test_bertier_streaming_equals_vectorized(view, window):
    fps = stream_freshness(BertierFD(window_size=window), view)
    fpv = bertier_freshness(view, window=window)
    m = ~np.isnan(fps)
    np.testing.assert_allclose(fpv[m], fps[m], rtol=0, atol=1e-8)


@given(monitor_views(), st.integers(3, 12), st.floats(0.5, 15.0))
@settings(max_examples=25, deadline=None)
def test_phi_streaming_equals_vectorized(view, window, threshold):
    fps = stream_freshness(PhiFD(threshold, window_size=window), view)
    fpv = phi_freshness(view, threshold, window=window)
    m = ~np.isnan(fps)
    np.testing.assert_allclose(fpv[m], fps[m], rtol=1e-9, atol=1e-8)


# --------------------------------------------------------------------- #
# feedback classification
# --------------------------------------------------------------------- #

@given(qos_reports, requirements)
def test_classify_is_total_and_consistent(measured, req):
    out = classify(measured, req)
    assert out in Satisfaction
    if out is Satisfaction.STABLE:
        assert req.satisfied_by(measured)
    if out is Satisfaction.GROW:
        assert req.detection_ok(measured) and not req.accuracy_ok(measured)
    if out is Satisfaction.SHRINK:
        assert not req.detection_ok(measured) and req.accuracy_ok(measured)
    if out is Satisfaction.INFEASIBLE:
        assert not req.detection_ok(measured) and not req.accuracy_ok(measured)


@given(monitor_views(min_size=30, max_size=80))
@settings(max_examples=20, deadline=None)
def test_phi_threshold_monotone_freshness(view):
    """Higher Φ is uniformly more conservative (later freshness points)."""
    lo = phi_freshness(view, 1.0, window=8)
    hi = phi_freshness(view, 6.0, window=8)
    m = ~np.isnan(lo)
    assert (hi[m] >= lo[m] - 1e-12).all()


# --------------------------------------------------------------------- #
# model calibration properties
# --------------------------------------------------------------------- #

@given(
    st.floats(0.001, 0.5),     # rate
    st.floats(1.0, 50.0),      # mean burst
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_gilbert_elliott_calibration_property(rate, mean_burst, seed):
    from repro.net import GilbertElliottLoss

    # Feasibility constraint of the chain: rate < burst / (1 + burst).
    assume(rate < mean_burst / (1.0 + mean_burst) - 1e-9)
    ge = GilbertElliottLoss.from_rate_and_burst(rate=rate, mean_burst=mean_burst)
    assert math.isclose(ge.rate(), rate, rel_tol=1e-9)
    assert math.isclose(ge.mean_burst, mean_burst, rel_tol=1e-9)
    lost = ge.sample(np.random.default_rng(seed), 50_000)
    assert lost.dtype == bool and lost.shape == (50_000,)


@given(
    st.floats(0.01, 1.0),      # mean
    st.floats(0.001, 0.5),     # std
    st.floats(0.0, 0.9),       # floor fraction of mean
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_lognormal_delay_respects_floor_and_mean(mean, std, floor_frac, seed):
    from repro.net import LogNormalDelay

    floor = mean * floor_frac
    d = LogNormalDelay(mean=mean, std=std, floor=floor)
    s = d.sample(np.random.default_rng(seed), 20_000)
    assert (s >= floor).all()
    # Analytic mean is exact; the sample mean converges to it.
    assert math.isclose(d.mean(), mean, rel_tol=1e-12)
    assert abs(float(s.mean()) - mean) < max(5 * std / math.sqrt(20_000), 0.05 * mean)


# --------------------------------------------------------------------- #
# timeline properties
# --------------------------------------------------------------------- #

@given(monitor_views(), st.floats(0.0, 0.5))
@settings(max_examples=25, deadline=None)
def test_timeline_availability_matches_qap(view, alpha):
    """Timeline availability == the QAP the metrics engine reports."""
    from repro.qos.timeline import Timeline

    r0 = 4
    assume(len(view) >= r0 + 2)
    assume(view.arrivals[-1] > view.arrivals[r0])
    fp = chen_freshness(view, alpha, window=5)
    tl = Timeline.from_freshness(view.arrivals[r0:], fp[r0:])
    starts, ends = suspicion_intervals_from_freshness(
        view.arrivals[r0:], fp[r0:]
    )
    qos = qos_from_intervals(
        starts,
        ends,
        fp[r0:] - view.send_times[r0:],
        t_begin=float(view.arrivals[r0]),
        t_end=float(view.arrivals[-1]),
    )
    assert math.isclose(
        tl.availability, qos.query_accuracy, rel_tol=1e-9, abs_tol=1e-12
    )
    assert tl.episodes == qos.mistakes
