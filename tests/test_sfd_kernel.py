"""The SFD replay kernel is bitwise equal to the plain per-slot loop.

:func:`repro.replay.vectorized.sfd_stage` computes everything that does
not depend on the margin once per sweep group, and
:func:`~repro.replay.vectorized.sfd_evaluate` runs the feedback loop's
slot recurrence over it, scanning a slot's reveals as arrays only when
one of them could be late: when the previous slot's margin is below the
slot's first-reveal bound, or its own margin below its late bound.  The
reference below is the straightforward loop that scans every slot and
closes it with the per-slot driver the recurrence replaced (the oracle
of ``tests/test_feedback_kernel.py``), kept only as the oracle.
Freshness points (as int64 views), every
:class:`~repro.core.feedback.TuningRecord`, the final margin and the
status must agree with ``==``; a raising policy must raise with the same
measured QoS.  The fixed cases pin the seams of the skip: slot sizes
around numpy's pairwise-summation blocks, arrivals exactly on their guard
and one ulp past it (in a slot's body and at its first reveal), and a
reveal whose ``A − EA`` rounds, so the skip bound must fail its exact
check.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.feedback import InfeasiblePolicy, SlotConfig
from repro.errors import InfeasibleQoSError
from repro.qos.spec import QoSRequirements
from repro.replay.vectorized import (
    _first_bounds,
    _late_bounds,
    chen_expected_arrivals,
    sfd_evaluate,
    sfd_stage,
)
from repro.traces.trace import MonitorView
from tests.test_feedback_kernel import ReferenceController, ReferenceDriver

LOOSE = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)
TIGHT = QoSRequirements(
    max_detection_time=0.2, max_mistake_rate=0.01, min_query_accuracy=0.999
)


def reference_sfd_evaluate(
    view: MonitorView,
    ea: np.ndarray,
    requirements: QoSRequirements,
    *,
    sm1: float,
    alpha: float = 0.1,
    beta: float = 0.5,
    window: int = 1000,
    slot: SlotConfig,
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP,
    sm_bounds: tuple[float, float] = (0.0, math.inf),
) -> SimpleNamespace:
    """Scan every slot: write ``FP = EA + SM``, tally, find late reveals."""
    arrivals = view.arrivals
    n = arrivals.size
    r0 = window - 1
    base_td = ea - view.send_times
    driver = ReferenceDriver(
        ReferenceController(requirements, alpha=alpha, beta=beta, policy=policy),
        slot,
        sm_bounds,
    )
    sm = driver.clamp(float(sm1))
    fp = np.full(n, np.nan, dtype=np.float64)
    td_sum = 0.0
    td_count = 0
    mistakes = 0
    mistake_time = 0.0
    t_begin = float(arrivals[r0])
    start = r0
    while start < n:
        stop = min(start + slot.heartbeats, n)
        seg = slice(start, stop)
        fp[seg] = ea[seg] + sm
        td_sum += float(np.sum(base_td[seg])) + sm * (stop - start)
        td_count += stop - start
        # Arrival j reveals the gap after j − 1, guarded by fp[j − 1],
        # which the previous slot wrote for the slot's first reveal.
        j0 = start + 1 if start == r0 else start
        if stop > j0:
            gap = arrivals[j0:stop] - np.maximum(
                fp[j0 - 1 : stop - 1], arrivals[j0 - 1 : stop - 1]
            )
            pos = gap > 0.0
            mistakes += int(np.count_nonzero(pos))
            mistake_time += float(np.sum(gap[pos]))
        if stop - start == slot.heartbeats:
            sm = driver.close_slot(
                float(arrivals[stop - 1]),
                sm,
                t_begin,
                mistakes,
                mistake_time,
                td_sum,
                td_count,
            )
        start = stop
    return SimpleNamespace(
        freshness=fp, tuning=driver.trace, final_margin=sm, status=driver.status
    )


def staged_sfd_evaluate(view, ea, requirements, *, window, slot, **kw):
    """The kernel as the registry runs it: a stage, then one grid point."""
    stage = sfd_stage(view, ea, window=window, heartbeats=slot.heartbeats)
    return sfd_evaluate(view, stage, requirements, slot=slot, **kw)


def run_both(
    view: MonitorView,
    requirements=LOOSE,
    *,
    window: int,
    ea: np.ndarray | None = None,
    **kw,
):
    """Both kernels on one view: their results, or the error each raised.

    ``ea`` defaults to Chen's prediction at ``window``; the kernels take
    any array, which lets a case place a prediction exactly.
    """
    if ea is None:
        ea = chen_expected_arrivals(view, window)
    out = []
    for kernel in (reference_sfd_evaluate, staged_sfd_evaluate):
        try:
            out.append(kernel(view, ea, requirements, window=window, **kw))
        except InfeasibleQoSError as exc:
            out.append(exc)
    return out


def assert_same(expected, actual) -> None:
    if isinstance(expected, InfeasibleQoSError):
        assert isinstance(actual, InfeasibleQoSError)
        # The measured QoS of the raising slot pins which slot raised.
        assert actual.measured == expected.measured
        return
    assert not isinstance(actual, Exception), actual
    np.testing.assert_array_equal(
        expected.freshness.view(np.int64), actual.freshness.view(np.int64)
    )
    assert actual.tuning == expected.tuning
    assert actual.final_margin == expected.final_margin
    assert actual.status is expected.status


def view_from(arrivals, delay: float = 0.01) -> MonitorView:
    arrivals = np.asarray(arrivals, dtype=np.float64)
    return MonitorView(
        seq=np.arange(arrivals.size, dtype=np.int64),
        arrivals=arrivals,
        send_times=arrivals - delay,
    )


def jittered_arrivals(n: int, seed: int, start: float = 1000.0) -> np.ndarray:
    """0.1 s heartbeats with jitter and a late spike every so often."""
    rng = np.random.default_rng(seed)
    gaps = 0.1 + rng.normal(0.0, 0.004, n - 1)
    gaps[rng.random(n - 1) < 0.03] += 0.08
    return start + np.concatenate(([0.0], np.cumsum(np.abs(gaps))))


def mistakes_per_slot(result) -> list[int]:
    """Each record's mistake count: per slot under ``horizon=1``,
    cumulative since warm-up under the default horizon."""
    return [rec.qos.mistakes for rec in result.tuning]


# --------------------------------------------------------------------- #
# fixed cases
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("h", [1, 7, 8, 100, 128, 129, 1000, 10000])
@pytest.mark.parametrize("partial", [False, True])
def test_slot_sizes(h, partial):
    """Whole slots only, and a trailing partial slot that never closes."""
    window = 10
    body = h * max(2, 600 // h) + (h // 2 + 1 if partial else 0)
    view = view_from(jittered_arrivals(window - 1 + body, seed=h))
    slot = SlotConfig(h, horizon=3) if h < 100 else SlotConfig(h)
    expected, actual = run_both(
        view, TIGHT, window=window, sm1=0.01, alpha=0.05, slot=slot
    )
    assert_same(expected, actual)
    assert expected.tuning


@pytest.mark.parametrize("h", [7, 100, 129, 10000])
def test_slot_sums_equal_np_sum_per_slice(h):
    """The stage's row-wise reduce adds each slot like ``np.sum``."""
    x = np.random.default_rng(h).standard_normal(3 * h + 5) * 1e3
    rows = np.add.reduce(x[5:].reshape(3, h), axis=1)
    per_slice = [np.sum(x[5 + k * h : 5 + (k + 1) * h]) for k in range(3)]
    np.testing.assert_array_equal(
        rows.view(np.int64), np.array(per_slice).view(np.int64)
    )


SM = 0.05
WINDOW = 5
H = 10


def placed(arrivals: np.ndarray, ea: np.ndarray, j: int, a_j: float, step: float):
    """A view with ``A_j = a_j``, later arrivals ``step`` apart, and
    ``EA_i = A_i + step`` from ``j`` on.

    Arrivals and predictions before ``j`` are the caller's, so the guard
    of arrival ``j`` does not move.
    """
    arrivals = arrivals.copy()
    ea = ea.copy()
    arrivals[j:] = a_j + step * np.arange(arrivals.size - j)
    ea[j:] = arrivals[j:] + step
    return view_from(arrivals), ea


@pytest.mark.parametrize(
    "j",
    [
        WINDOW - 1 + 2 * H + 3,  # in the body of slot 2
        WINDOW - 1 + 2 * H,  # slot 2's first reveal, guarded by slot 1
    ],
)
@pytest.mark.parametrize("ulps", [0, 1])
def test_arrival_on_its_guard_and_one_ulp_late(j, ulps):
    """``A_j = fl(EA_{j−1} + SM)`` is on time; one ulp later is late.

    The margin is pinned at ``SM`` and every other reveal is on time by
    far.  The view sits at 1000 s, where ``A − EA`` is exact, so the
    slot's bound passes its exact check and the skip decides.
    """
    arrivals = 1000.0 + 0.1 * np.arange(50, dtype=np.float64)
    ea = arrivals + 0.1
    a_j = float(ea[j - 1]) + SM
    for _ in range(ulps):
        a_j = math.nextafter(a_j, math.inf)
    view, ea = placed(arrivals, ea, j, a_j, 0.1)
    expected, actual = run_both(
        view,
        window=WINDOW,
        ea=ea,
        sm1=SM,
        slot=SlotConfig(H),
        sm_bounds=(SM, SM),
    )
    assert_same(expected, actual)
    assert mistakes_per_slot(expected)[-1] == ulps


def test_rounded_bound_takes_the_exact_path():
    """``A_j > 2·EA_{j−1}``, and ``fl(A_j − EA_{j−1})`` rounds down.

    With ``EA_{j−1} = 1 + 2⁻⁵²`` and ``A_j`` one ulp above 3.5 the
    difference is a tie that rounds to 2.5, and ``fl(EA_{j−1} + 2.5)`` is
    3.5: under a margin equal to the slot's bound the reveal is still
    late.  The bound's exact check must fail, so the slot is scanned.
    """
    assert_rounded_bound_scanned(first=False)


def test_rounded_first_bound_takes_the_exact_path():
    """The same for a slot's first reveal, whose bound is on the previous
    slot's margin (:func:`_first_bounds`)."""
    assert_rounded_bound_scanned(first=True)


def assert_rounded_bound_scanned(first: bool) -> None:
    j = WINDOW - 1 + H + (0 if first else 4)  # slot 1's first reveal or body
    arrivals = 0.05 * np.arange(WINDOW - 1 + 3 * H, dtype=np.float64)
    ea = arrivals + 0.05
    prev = 1.0 + 2.0**-52
    ea[j - 1] = prev
    a_j = math.nextafter(3.5, math.inf)
    need = a_j - prev
    assert prev + need < a_j
    view, ea = placed(arrivals, ea, j, a_j, 0.05)
    expected, actual = run_both(
        view,
        window=WINDOW,
        ea=ea,
        sm1=need,
        slot=SlotConfig(H),
        sm_bounds=(need, need),
    )
    assert_same(expected, actual)
    assert mistakes_per_slot(expected) == [0, 1, 1]
    rows = slice(WINDOW - 1, WINDOW - 1 + 3 * H)
    a_rows = view.arrivals[rows].reshape(3, H)
    ea_rows = ea[rows].reshape(3, H)
    late, first_reveal = _late_bounds(a_rows, ea_rows), _first_bounds(a_rows, ea_rows)
    rounded, other = (first_reveal, late) if first else (late, first_reveal)
    assert rounded[0] < need and rounded[1] == math.inf and rounded[2] < need
    assert (other < need).all()


@pytest.mark.parametrize(
    "slot",
    [
        SlotConfig(20),
        SlotConfig(20, horizon=3),
        SlotConfig(15, reset_on_adjust=True, min_slots=3),
    ],
)
@pytest.mark.parametrize(
    "policy", [InfeasiblePolicy.STOP, InfeasiblePolicy.HOLD, InfeasiblePolicy.RAISE]
)
@pytest.mark.parametrize(
    "sm_bounds", [(0.0, math.inf), (0.0, 0.0), (0.02, 0.06)], ids=str
)
@pytest.mark.parametrize("requirements", [LOOSE, TIGHT], ids=("loose", "tight"))
def test_feedback_configurations(slot, policy, sm_bounds, requirements):
    """Evaluation windows (trailing horizon, since the last change with
    ``min_slots``), the three policies (RAISE must raise at the same slot),
    clamps, and a margin pinned at 0."""
    view = view_from(jittered_arrivals(3000, seed=11))
    expected, actual = run_both(
        view,
        requirements,
        window=40,
        sm1=0.01,
        alpha=0.1,
        slot=slot,
        policy=policy,
        sm_bounds=sm_bounds,
    )
    assert_same(expected, actual)


def test_margin_pinned_at_zero_scans_late_slots():
    view = view_from(jittered_arrivals(2000, seed=3))
    expected, actual = run_both(
        view,
        window=20,
        sm1=0.0,
        slot=SlotConfig(50, horizon=1),
        sm_bounds=(0.0, 0.0),
    )
    assert_same(expected, actual)
    assert all(mistakes_per_slot(expected))


# --------------------------------------------------------------------- #
# drawn views
# --------------------------------------------------------------------- #

#: Exact and inexact gaps, repeats (ties), zeros and late spikes.
GAP_POOL = (0.0, 0.05, 0.1, 0.1, 0.1, 0.1, 0.1000001, 0.25, 0.7)

slots_strategy = st.one_of(
    st.builds(SlotConfig, st.integers(1, 12)),
    st.builds(SlotConfig, st.integers(1, 12), horizon=st.integers(1, 3)),
    st.builds(
        SlotConfig,
        st.integers(1, 12),
        reset_on_adjust=st.just(True),
        min_slots=st.integers(1, 3),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    gaps=st.lists(
        st.one_of(st.sampled_from(GAP_POOL), st.floats(0.0, 1.0)),
        min_size=10,
        max_size=200,
    ),
    start=st.sampled_from((0.0, 0.3, 1000.0, 1.5e6)),
    window=st.sampled_from((2, 3, 5, 8)),
    slot=slots_strategy,
    sm1=st.one_of(st.sampled_from((0.0, 0.05, 0.1)), st.floats(0.0, 0.5)),
    requirements=st.sampled_from((LOOSE, TIGHT)),
    policy=st.sampled_from(tuple(InfeasiblePolicy)),
    sm_bounds=st.sampled_from(((0.0, math.inf), (0.0, 0.0), (0.03, 0.2))),
)
def test_drawn_views(gaps, start, window, slot, sm1, requirements, policy, sm_bounds):
    view = view_from(start + np.concatenate(([0.0], np.cumsum(gaps))))
    expected, actual = run_both(
        view,
        requirements,
        window=window,
        sm1=sm1,
        alpha=0.1,
        slot=slot,
        policy=policy,
        sm_bounds=sm_bounds,
    )
    assert_same(expected, actual)
