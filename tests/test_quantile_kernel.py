"""The quantile kernel is bitwise equal to ``np.quantile`` over a sliding view.

:func:`repro.replay.vectorized.quantile_stage` runs a sorted sliding
window (:class:`repro.detectors.window.SortedWindow`) while the window
fills, then one ``scipy.ndimage.rank_filter`` pass per distinct rank over
the full windows.  The reference below is the straightforward
``sliding_window_view`` + ``np.quantile`` kernel, kept only as the
oracle: order statistics are exact window elements and the window's
interpolation is numpy's own arithmetic, so the two must agree bit for
bit — compared as int64 views, not with a tolerance.  The cases below
pin the seams of that split: the first full window, both parities of
the filter's ``origin``, windows longer than the view, ranks shared
across quantiles, and non-finite gaps on either side of the seam.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.replay import quantile_freshness
from repro.replay.vectorized import quantile_evaluate, quantile_stage
from repro.traces.trace import MonitorView


def reference_quantile_freshness(
    view: MonitorView, quantile: float, *, window: int
) -> np.ndarray:
    """``FP[r] = A_r + np.quantile(x[max(0, r − window):r], q)``."""
    arrivals = view.arrivals
    fp = np.full(arrivals.size, np.nan, dtype=np.float64)
    x = np.diff(arrivals)
    # Partial windows for r < window: quantile over x[:r].
    for j in range(1, min(window, x.size + 1)):
        fp[j] = arrivals[j] + float(np.quantile(x[:j], quantile))
    if x.size >= window:
        sw = np.lib.stride_tricks.sliding_window_view(x, window)
        fp[window:] = arrivals[window:] + np.quantile(sw, quantile, axis=1)
    return fp


def assert_bitwise_equal(expected: np.ndarray, actual: np.ndarray) -> None:
    assert expected.shape == actual.shape
    np.testing.assert_array_equal(
        expected[1:].view(np.int64), actual[1:].view(np.int64)
    )


def view_from_gaps(gaps: np.ndarray, start: float = 100.0) -> MonitorView:
    arrivals = start + np.concatenate(([0.0], np.cumsum(gaps)))
    seq = np.arange(arrivals.size, dtype=np.int64)
    return MonitorView(seq=seq, arrivals=arrivals, send_times=arrivals - 0.01)


#: Gap values chosen to collide: ties, exact zeros, and a 1e-9…1e3 span.
GAP_POOL = (0.0, 1e-9, 1e-6, 0.001, 0.1, 0.1, 0.25, 1.0, 7.5, 1e3)

gaps_strategy = st.lists(
    st.one_of(
        st.sampled_from(GAP_POOL),
        st.floats(1e-9, 1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=160,
)
quantiles = st.one_of(
    st.sampled_from((1e-9, 0.5, 0.9, 0.99, 1.0)),
    st.floats(1e-9, 1.0, exclude_min=False),
)


@settings(max_examples=120, deadline=None)
@given(
    gaps=gaps_strategy,
    # 8/65: both parities of the filter's origin; 200: longer than any
    # drawn view, so only the filling prefix runs.
    window=st.sampled_from((1, 2, 3, 7, 8, 64, 65, 200)),
    q=quantiles,
)
def test_kernel_bitwise_equals_sliding_np_quantile(gaps, window, q):
    view = view_from_gaps(np.asarray(gaps, dtype=np.float64))
    assert_bitwise_equal(
        reference_quantile_freshness(view, q, window=window),
        quantile_freshness(view, q, window=window),
    )


@pytest.mark.parametrize("window", [1, 2, 7, 100, 1000])
@pytest.mark.parametrize("q", [1e-9, 0.5, 0.9, 0.99, 0.999, 1.0])
def test_bitwise_on_a_wan_view(wan1_view, window, q):
    assert_bitwise_equal(
        reference_quantile_freshness(wan1_view, q, window=window),
        quantile_freshness(wan1_view, q, window=window),
    )


def test_first_index_is_nan_and_rest_finite(small_view):
    fp = quantile_freshness(small_view, 0.9, window=40)
    assert np.isnan(fp[0])
    assert np.isfinite(fp[1:]).all()


@pytest.mark.parametrize("window", [2, 3, 64, 65])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("q", [1e-9, 0.5, 0.9, 1.0])
def test_bitwise_at_the_first_full_window(window, extra, q):
    # window − 1 gaps: prefix only; window: one full window; window + 1: two.
    gaps = np.random.default_rng(window).exponential(0.1, size=window + extra)
    gaps[::5] = 0.1  # ties across the seam
    view = view_from_gaps(gaps)
    assert_bitwise_equal(
        reference_quantile_freshness(view, q, window=window),
        quantile_freshness(view, q, window=window),
    )


def test_each_stage_column_equals_its_one_quantile_stage(wan1_view):
    # At window 1000, 0.999 and 0.9999 both read ranks 998 and 999, and
    # 1.0 reads 999 alone: one rank array feeds three columns.
    qs = (0.5, 0.9, 0.999, 0.9999, 1.0)
    stage = quantile_stage(wan1_view, qs + (1.5,), window=1000)
    assert sorted(stage) == sorted(qs)  # the out-of-range q is skipped
    assert quantile_stage(wan1_view, (0.0, 1.5), window=1000) == {}
    for q in qs:
        alone = quantile_stage(wan1_view, (q,), window=1000)[q]
        np.testing.assert_array_equal(stage[q].view(np.int64), alone.view(np.int64))
    assert_bitwise_equal(
        reference_quantile_freshness(wan1_view, 0.9999, window=1000),
        quantile_evaluate(wan1_view, stage, 0.9999),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("index", [3, 150])
def test_non_finite_arrival_is_rejected(bad, index):
    # Window 64: index 3 falls in the filling prefix, 150 past it.
    arrivals = view_from_gaps(np.full(199, 0.1)).arrivals.copy()
    arrivals[index] = bad
    view = MonitorView(
        seq=np.arange(arrivals.size, dtype=np.int64),
        arrivals=arrivals,
        send_times=arrivals - 0.01,
    )
    with pytest.raises(ConfigurationError, match="finite"):
        quantile_stage(view, (0.5, 0.99, 1.0), window=64)
