"""Stage kernels on slices and in place; group-owned scratch; one ``EA``.

Three guarantees of the offline stage layer, each checked against a
reference rather than a tolerance:

* **Slices ≡ gathers, bit for bit.**  The oracles below are the
  gather-based sliding windows the kernels used before they were built
  from shifted slices and ``out=`` buffers: ``_trailing`` with its
  ``np.arange`` index arrays, Chen's ``EA``, φ's stage and Bertier's
  ``Δ``.  Every comparison is ``==`` on the int64 bit patterns, so a
  reordered operation or a different NaN shows.
* **Allocation budgets.**  ``tracemalloc`` peaks, in view-length float64
  arrays at ≥ 50k heartbeats, for each stage, for a grouped later point
  and for a pipeline-shaped plan, which must also leave no view-length
  array alive when it returns.
* **Borrowed buffers and shared stages stay private where they must.**
  A scratch checked out (as by an attempt abandoned on a timed-out
  thread) is never lent again; chen, bertier and sfd read one ``EA`` per
  trace, and every point still equals its lone ``replay()`` on both
  executors.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from repro.detectors import registry
from repro.detectors.phi import SIGMA_FLOOR
from repro.exp import ExperimentPlan, ProcessPoolExecutor, SerialExecutor
from repro.qos.spec import QoSRequirements
from repro.replay import engine, replay
from repro.replay.engine import BertierSpec, ChenSpec, FixedSpec, PhiSpec, SFDSpec
from repro.replay.vectorized import (
    bertier_freshness,
    chen_expected_arrivals,
    phi_stage,
)
from repro.traces import WAN_1, WAN_JAIST, MonitorView, synthesize
from repro.traces.columnar import TraceStore

DATA = Path(__file__).parent / "data"
REQ = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)


# --------------------------------------------------------------------- #
# oracles: the gather-based kernels, kept verbatim as the reference
# --------------------------------------------------------------------- #


def _trailing(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    c = np.empty(x.size + 1, dtype=np.float64)
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    idx = np.arange(x.size)
    lo = np.maximum(idx - w + 1, 0)
    return c[idx + 1] - c[lo], (idx - lo + 1).astype(np.float64)


def oracle_ea(view, window, nominal_interval=None):
    arrivals = view.arrivals
    seq = view.seq.astype(np.float64)
    a0, s0 = arrivals[0], seq[0]
    rel_a = arrivals - a0
    rel_s = seq - s0
    sum_a, cnt = _trailing(rel_a, window)
    sum_s, _ = _trailing(rel_s, window)
    mean_a = sum_a / cnt + a0
    mean_s = sum_s / cnt + s0
    idx = np.arange(arrivals.size)
    lo = np.maximum(idx - window + 1, 0)
    if nominal_interval is not None:
        delta = np.full(arrivals.size, float(nominal_interval))
    else:
        span_a = arrivals - arrivals[lo]
        span_s = seq - seq[lo]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = span_a / span_s
    ea = mean_a + delta * (seq + 1.0 - mean_s)
    ea[0] = np.nan
    return ea


def oracle_bertier(view, *, beta=1.0, phi=4.0, gamma=0.1, window=1000,
                   nominal_interval=None):
    arrivals = view.arrivals
    seq = view.seq
    ea = oracle_ea(view, window, nominal_interval)
    idx = np.arange(arrivals.size)
    lo = np.maximum(idx - window + 1, 0)
    if nominal_interval is not None:
        delta = np.full(arrivals.size, float(nominal_interval))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (arrivals - arrivals[lo]) / (seq - seq[lo]).astype(np.float64)
    gaps = (seq[1:] - seq[:-1] - 1).astype(np.float64)
    e = arrivals[1:] - (ea[:-1] + gaps * delta[:-1])
    e = e[1:]
    b, a = [gamma], [1.0, -(1.0 - gamma)]
    delay = lfilter(b, a, e)
    delay_prev = np.empty_like(delay)
    delay_prev[0] = 0.0
    delay_prev[1:] = delay[:-1]
    var = lfilter(b, a, np.abs(e - delay_prev))
    margin = np.zeros(arrivals.size, dtype=np.float64)
    margin[2:] = beta * delay + phi * var
    return ea + margin


def oracle_phi_stage(view, window):
    arrivals = view.arrivals
    x = np.diff(arrivals)
    sum_x, cnt = _trailing(x, window)
    sum_x2, _ = _trailing(x * x, window)
    mean = sum_x / cnt
    var = sum_x2 / cnt - mean * mean
    sigma = np.sqrt(np.maximum(var, 0.0))
    np.maximum(sigma, SIGMA_FLOOR, out=sigma)
    return arrivals[1:] + mean, sigma


def assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def check_all_kernels(view: MonitorView, windows) -> None:
    for window in windows:
        for nominal in (None, 0.1):
            assert_bits(
                chen_expected_arrivals(view, window, nominal),
                oracle_ea(view, window, nominal),
            )
            if len(view) >= 3:
                assert_bits(
                    bertier_freshness(view, window=window, nominal_interval=nominal),
                    oracle_bertier(view, window=window, nominal_interval=nominal),
                )
    for window in (1, *windows):
        got, want = phi_stage(view, window), oracle_phi_stage(view, window)
        assert_bits(got[0], want[0])
        assert_bits(got[1], want[1])


# --------------------------------------------------------------------- #
# slices ≡ gathers, bit for bit
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def golden_view() -> MonitorView:
    golden = json.loads((DATA / "golden_qos.json").read_text())
    return TraceStore(DATA / golden["trace"]).view()


@pytest.fixture(scope="module")
def wan1_20k() -> MonitorView:
    return synthesize(WAN_1, n=20_000, seed=2012).monitor_view()


def test_golden_view_kernels_equal_the_gather_oracles(golden_view):
    check_all_kernels(golden_view, (2, 3, 40, 1000, len(golden_view) + 7))


def test_wan1_20k_kernels_equal_the_gather_oracles(wan1_20k):
    check_all_kernels(wan1_20k, (2, 3, 40, 1000, len(wan1_20k) + 7))


@st.composite
def ragged_views(draw) -> MonitorView:
    """Short views with repeated arrivals and sequence gaps."""
    n = draw(st.integers(3, 80))
    steps = draw(
        st.lists(
            st.one_of(
                st.just(0.0),  # a repeated arrival
                st.floats(1e-9, 5.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    skips = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    start = draw(st.floats(0.0, 1e6, allow_nan=False))
    arrivals = start + np.concatenate(([0.0], np.cumsum(steps)))
    seq = draw(st.integers(0, 10_000)) + np.concatenate(([0], np.cumsum(skips)))
    return MonitorView(
        seq=seq.astype(np.int64),
        arrivals=arrivals,
        send_times=arrivals - 0.05,
    )


@settings(max_examples=60, deadline=None)
@given(view=ragged_views(), window=st.integers(2, 90))
def test_ragged_views_equal_the_gather_oracles(view, window):
    check_all_kernels(view, (2, 3, window, len(view) + 7))


# --------------------------------------------------------------------- #
# allocation budgets, in view-length float64 arrays
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def long_view() -> MonitorView:
    view = synthesize(WAN_JAIST, n=55_000, seed=29).monitor_view()
    assert len(view) >= 50_000
    return view


def peak_arrays(fn, n: int) -> tuple[float, float, object]:
    """``(peak, kept, result)``: bytes ``fn`` allocated at its peak and
    still held on return, in arrays of ``n`` float64 values."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = 8.0 * n
    return (peak - base) / unit, (now - base) / unit, result


def _warm(view: MonitorView) -> None:
    """Run every path once first, so lazy imports do not count."""
    pipeline_plan(view, window=50).run(SerialExecutor())
    replay(BertierSpec(window=50), view)


@pytest.mark.parametrize("nominal", [None, 0.1])
def test_chen_ea_peak(long_view, nominal):
    _warm(long_view)
    peak, _, _ = peak_arrays(
        lambda: chen_expected_arrivals(long_view, 1000, nominal), len(long_view)
    )
    assert peak <= 5.0


def test_phi_stage_peak(long_view):
    _warm(long_view)
    peak, _, _ = peak_arrays(lambda: phi_stage(long_view, 1000), len(long_view))
    assert peak <= 4.0


LATER_POINTS = {
    "chen": [ChenSpec(alpha=a, window=1000) for a in (0.05, 0.2)],
    "phi": [PhiSpec(threshold=t, window=1000) for t in (1.0, 4.0)],
    "fixed": [FixedSpec(timeout=t) for t in (0.2, 0.5)],
    "sfd": [SFDSpec(requirements=REQ, sm1=v, window=1000) for v in (0.05, 0.2)],
}


@pytest.mark.parametrize("family", sorted(LATER_POINTS))
def test_grouped_later_point_peak(long_view, family):
    # The stage and the scratch exist: a later point allocates its own
    # freshness array and little else.
    first, later = LATER_POINTS[family]
    _warm(long_view)
    holder = registry.PreparedStage((first, later))
    replay(first, long_view, prepared=holder)
    peak, _, _ = peak_arrays(
        lambda: replay(later, long_view, prepared=holder), len(long_view)
    )
    assert peak <= 1.5


def pipeline_plan(view: MonitorView, window: int = 1000) -> ExperimentPlan:
    """perfbench ``pipeline``'s plan shape over ``view``."""
    plan = ExperimentPlan().add_trace("t", view)
    plan.add_sweep("t", "chen", (0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.9),
                   window=window)
    plan.add_sweep("t", "phi", (0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0),
                   window=window)
    plan.add_sweep("t", "fixed", (0.1, 0.2, 0.5, 1.0))
    plan.add_sweep("t", "sfd", (0.005, 0.05, 0.2, 0.9), requirements=REQ,
                   window=window)
    return plan


def test_pipeline_plan_peak_and_nothing_kept(long_view):
    plan = pipeline_plan(long_view)
    _warm(long_view)
    peak, kept, result = peak_arrays(
        lambda: plan.run(SerialExecutor()), len(long_view)
    )
    assert len(result.failures) == 0
    assert peak <= 6.0
    assert kept < 0.5  # no view-length array outlives the run


# --------------------------------------------------------------------- #
# borrowed scratch and the per-trace shared stage
# --------------------------------------------------------------------- #


def test_checked_out_scratch_is_never_lent_again(small_view):
    specs = [ChenSpec(alpha=a, window=100) for a in (0.05, 0.2)]
    holder = registry.PreparedStage(specs)
    replay(specs[0], small_view, prepared=holder)  # builds stage and scratch
    size = len(small_view) - 99
    # Held as an attempt abandoned on a timed-out thread would hold it.
    with holder.scratch(size) as (floats, flags):
        floats.fill(np.nan)
        flags.fill(True)
        got = replay(specs[1], small_view, prepared=holder)
        assert np.isnan(floats).all() and flags.all()
        with holder.scratch(size) as (other, _):
            assert other is not floats  # the next point's own pair
    assert got.qos == replay(specs[1], small_view).qos


def test_freshness_never_aliases_a_scratch(small_view):
    specs = [ChenSpec(alpha=a, window=100) for a in (0.05, 0.2)]
    holder = registry.PreparedStage(specs)
    first = replay(specs[0], small_view, prepared=holder)
    kept = first.freshness.copy()
    second = replay(specs[1], small_view, prepared=holder)
    assert np.array_equal(first.freshness, kept, equal_nan=True)
    with holder.scratch(len(small_view) - 99) as (floats, flags):
        for fp in (first.freshness, second.freshness):
            assert not np.shares_memory(fp, floats)
            assert not np.shares_memory(fp, flags)


def test_release_drops_stage_and_scratch(small_view):
    spec = PhiSpec(threshold=2.0, window=100)
    holder = registry.PreparedStage((spec,))
    replay(spec, small_view, prepared=holder)
    with holder.scratch(len(small_view) - 99) as (held, _):
        pass
    holder.release()
    with holder.scratch(len(small_view) - 99) as (fresh, _):
        assert fresh is not held


def ea_family_plan(view: MonitorView) -> ExperimentPlan:
    plan = ExperimentPlan().add_trace("t", view)
    plan.add_sweep("t", "chen", (0.05, 0.2), window=100)
    plan.add_sweep("t", "bertier", window=100)
    plan.add_sweep("t", "sfd", (0.01, 0.1), requirements=REQ, window=100)
    return plan


@pytest.mark.parametrize("executor", ["serial", "pool"])
def test_shared_ea_points_equal_lone_replays(small_view, executor):
    plan = ea_family_plan(small_view)
    runner = SerialExecutor() if executor == "serial" else ProcessPoolExecutor(jobs=2)
    result = plan.run(runner)
    for name in ("chen", "bertier", "sfd"):
        specs = [job.spec for job in plan.jobs() if job.sweep == name]
        assert [p.qos for p in result.curve("t", name).points] == [
            replay(spec, small_view).qos for spec in specs
        ]


def test_serial_plan_builds_one_ea_per_trace(small_view, monkeypatch):
    calls = []
    build = registry.chen_expected_arrivals

    def counted(view, window, nominal_interval=None):
        calls.append((window, nominal_interval))
        return build(view, window, nominal_interval)

    monkeypatch.setattr(registry, "chen_expected_arrivals", counted)
    ea_family_plan(small_view).run(SerialExecutor())
    assert calls == [(100, None)]
    plan = ea_family_plan(small_view)
    plan.add_sweep("t", "chen", (0.1,), window=50, name="chen50")
    calls.clear()
    plan.run(SerialExecutor())
    assert sorted(calls) == [(50, None), (100, None)]


def test_shared_ea_is_read_only(small_view):
    spec = ChenSpec(alpha=0.1, window=100)
    holder = registry.PreparedStage((spec,))
    replay(spec, small_view, prepared=holder)
    ea = holder.scope[("chen_ea", 100, None)]
    assert not ea.flags.writeable


def test_serial_plan_builds_one_rising_mask_per_trace(small_view, monkeypatch):
    """Accounting reads the view's rising-arrival mask from the trace's
    scope: every point of every group over one trace reads one build."""
    calls = []
    build = engine._rising

    def counted(view):
        calls.append(len(view))
        return build(view)

    monkeypatch.setattr(engine, "_rising", counted)
    plan = ea_family_plan(small_view)
    plan.add_sweep("t", "fixed", (0.1, 0.5))
    plan.run(SerialExecutor())
    assert calls == [len(small_view)]
    spec = ChenSpec(alpha=0.1, window=100)
    holder = registry.PreparedStage((spec,))
    replay(spec, small_view, prepared=holder)
    assert not holder.scope["rising"].flags.writeable


# --------------------------------------------------------------------- #
# import weight
# --------------------------------------------------------------------- #


def test_cli_and_monitor_imports_leave_scipy_signal_out():
    code = (
        "import sys, repro.cli, repro.runtime.monitor; "
        "print('scipy.signal' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert out.stdout.strip() == "False"
