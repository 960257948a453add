"""The quantile kernel is bitwise equal to ``np.quantile`` over a sliding view.

:func:`repro.replay.quantile_freshness` runs a sorted sliding window
(:class:`repro.detectors.window.SortedWindow`) instead of recomputing a
selection per window.  The reference below is the straightforward
``sliding_window_view`` + ``np.quantile`` kernel it replaced, kept only
as the oracle: order statistics are exact window elements and the
window's interpolation is numpy's own arithmetic, so the two must agree
bit for bit — compared as int64 views, not with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.replay import quantile_freshness
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
    window=st.sampled_from((1, 2, 3, 7, 64)),
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
