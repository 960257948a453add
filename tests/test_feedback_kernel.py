"""The slot recurrence is bitwise equal to the per-slot driver it replaced.

:meth:`repro.core.feedback.FeedbackDriver.close_slots` closes slots in one
loop with its state in locals: the evaluation window (cumulative, trailing
``horizon``, since the last change, ``min_slots``), the window's QoS,
Algorithm 1's decision under every :class:`InfeasiblePolicy`, the step and
the clamp.  Closed slots are kept as rows and built into
:class:`TuningRecord` objects only when the trace is read.  Streaming
hosts call it with one slot; the SFD replay calls it once over all of its
slots, whose tallies are linear in the margin except for the late reveals
that the slots' scan counts (:class:`LinearSlots`).

The reference below is the per-slot call chain the loop replaced —
``close_slot → end_slot → _diff → decide → classify → clamp``, building a
``QoSReport`` and a ``TuningRecord`` for every slot — kept only as the
oracle.  Returned values, records, ``status``, ``adjustments`` and
``last_decision`` must agree bit for bit (floats compared as their bits,
so a NaN detection time compares too), a raising policy must raise with
the same measured QoS and leave the same state behind, on seeded and
hypothesis-drawn tallies.
"""

from __future__ import annotations

import ast
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.feedback import (
    FeedbackController,
    FeedbackDriver,
    InfeasiblePolicy,
    LinearSlots,
    SlotConfig,
    TuningRecord,
    TuningStatus,
)
from repro.core.sfd import SFD
from repro.errors import ConfigurationError, InfeasibleQoSError
from repro.qos.spec import QoSReport, QoSRequirements, Satisfaction
from repro.replay.engine import SFDSpec, replay

# --------------------------------------------------------------------- #
# the oracle: the per-slot driver chain, as it was before the recurrence
# --------------------------------------------------------------------- #


def reference_classify(measured: QoSReport, required: QoSRequirements) -> Satisfaction:
    speed_ok = required.detection_ok(measured)
    accuracy_ok = required.accuracy_ok(measured)
    if speed_ok and accuracy_ok:
        return Satisfaction.STABLE
    if speed_ok and not accuracy_ok:
        return Satisfaction.GROW
    if not speed_ok and accuracy_ok:
        return Satisfaction.SHRINK
    return Satisfaction.INFEASIBLE


@dataclass
class ReferenceController:
    """The controller with its per-slot ``decide``."""

    requirements: QoSRequirements
    alpha: float = 0.1
    beta: float = 0.5
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP
    status: TuningStatus = field(default=TuningStatus.WARMUP, init=False)
    adjustments: int = field(default=0, init=False)
    last_decision: Satisfaction | None = field(default=None, init=False)

    @property
    def step_magnitude(self) -> float:
        return self.beta * self.alpha

    def decide(self, measured: QoSReport) -> float:
        if self.status is TuningStatus.INFEASIBLE:
            return 0.0
        decision = reference_classify(measured, self.requirements)
        self.last_decision = decision
        if decision is Satisfaction.INFEASIBLE:
            if self.policy is InfeasiblePolicy.RAISE:
                self.status = TuningStatus.INFEASIBLE
                raise InfeasibleQoSError(
                    "this SFD can not satisfy the QoS for the application",
                    measured=measured,
                    required=self.requirements,
                )
            if self.policy is InfeasiblePolicy.STOP:
                self.status = TuningStatus.INFEASIBLE
                return 0.0
            self.status = TuningStatus.TUNING
            self.adjustments += 1
            return self.step_magnitude
        if decision is Satisfaction.STABLE:
            self.status = TuningStatus.STABLE
            return 0.0
        self.status = TuningStatus.TUNING
        self.adjustments += 1
        return decision.sign * self.step_magnitude

    def update_requirements(self, requirements: QoSRequirements) -> None:
        self.requirements = requirements
        if self.status is not TuningStatus.WARMUP:
            self.status = TuningStatus.TUNING
        self.last_decision = None

    def reset(self) -> None:
        self.status = TuningStatus.WARMUP
        self.adjustments = 0
        self.last_decision = None


class ReferenceDriver:
    """The driver that closed one slot per call through ``end_slot``."""

    def __init__(self, controller, slot: SlotConfig, bounds=(0.0, math.inf)):
        lo, hi = bounds
        self.controller = controller
        self.slot = slot
        self.bounds = (float(lo), float(hi))
        self.trace: list[TuningRecord] = []
        self.on_slot = None
        self._slot_index = 0
        self._checkpoints: list = []
        self._change_base = None
        self._since_change = 0

    def clamp(self, value: float) -> float:
        lo, hi = self.bounds
        return min(max(value, lo), hi)

    def close_slot(self, now, value, t_begin, mistakes, mistake_time, td_sum, td_count):
        delta, snapshot = self.end_slot(
            t_begin, now, mistakes, mistake_time, td_sum, td_count
        )
        self._slot_index += 1
        if snapshot is None:
            return value
        after = self.clamp(value + delta)
        record = TuningRecord(
            self._slot_index,
            now,
            value,
            after,
            self.controller.last_decision or Satisfaction.STABLE,
            snapshot,
            self.controller.status,
        )
        self.trace.append(record)
        if self.on_slot is not None:
            self.on_slot(record)
        return after

    @staticmethod
    def _diff(base, cur):
        t0, m0, mt0, ts0, tc0 = base
        now, mistakes, mistake_time, td_sum, td_count = cur
        total = now - t0
        if total <= 0:
            return None
        mt = min(max(mistake_time - mt0, 0.0), total)
        tc = td_count - tc0
        td = (td_sum - ts0) / tc if tc else float("nan")
        m = mistakes - m0
        return QoSReport(td, m / total, 1.0 - mt / total, m, mt, total, tc)

    def end_slot(self, t_begin, now, mistakes, mistake_time, td_sum, td_count):
        cur = (now, mistakes, mistake_time, td_sum, td_count)
        base = (t_begin, 0, 0.0, 0.0, 0)
        k = self.slot.horizon
        if k is not None and len(self._checkpoints) >= k:
            base = self._checkpoints[-k]
        if (
            self.slot.reset_on_adjust
            and self._change_base is not None
            and self._change_base[0] > base[0]
        ):
            base = self._change_base
        self._checkpoints.append(cur)
        keep = max(self.slot.horizon or 1, 1)
        if len(self._checkpoints) > keep + 1:
            del self._checkpoints[: -(keep + 1)]
        self._since_change += 1
        if self._since_change < self.slot.min_slots:
            return 0.0, None
        snapshot = self._diff(base, cur)
        if snapshot is None:
            return 0.0, None
        delta = self.controller.decide(snapshot)
        if delta != 0.0:
            self._change_base = cur
            self._since_change = 0
        return delta, snapshot

    @property
    def status(self) -> TuningStatus:
        return self.controller.status

    def reset(self) -> None:
        self.controller.reset()
        self.trace.clear()
        self._slot_index = 0
        self._checkpoints.clear()
        self._change_base = None
        self._since_change = 0


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #


def bits(x) -> int:
    return struct.unpack("<q", struct.pack("<d", float(x)))[0]


def qos_key(q: QoSReport) -> tuple:
    return (
        bits(q.detection_time),
        bits(q.mistake_rate),
        bits(q.query_accuracy),
        q.mistakes,
        bits(q.mistake_time),
        bits(q.accounted_time),
        q.samples,
    )


def record_key(rec: TuningRecord) -> tuple:
    return (
        rec.slot,
        bits(rec.time),
        bits(rec.sm_before),
        bits(rec.sm_after),
        rec.decision,
        rec.status,
        qos_key(rec.qos),
    )


def assert_same_records(new: list[TuningRecord], old: list[TuningRecord]) -> None:
    assert [record_key(r) for r in new] == [record_key(r) for r in old]
    if not any(math.isnan(r.qos.detection_time) for r in old):
        assert new == old


def controller_state(driver) -> tuple:
    c = driver.controller
    return (c.status, c.adjustments, c.last_decision)


def pair(requirements, slot, *, alpha=0.1, beta=0.5, policy, bounds):
    """The new driver and the oracle, configured alike."""
    new = FeedbackDriver(
        FeedbackController(requirements, alpha=alpha, beta=beta, policy=policy),
        slot,
        bounds,
    )
    old = ReferenceDriver(
        ReferenceController(requirements, alpha=alpha, beta=beta, policy=policy),
        slot,
        bounds,
    )
    return new, old


def drive(driver, ops, value: float) -> list:
    """Apply ``ops`` as a streaming host would: every slot's returned value
    is the next slot's ``value``.  Returns every observable outcome."""
    out = []
    for op in ops:
        kind = op[0]
        if kind == "slot":
            try:
                value = driver.close_slot(op[1], value, *op[2:])
                out.append(("value", bits(value)))
            except InfeasibleQoSError as exc:
                assert exc.required is driver.controller.requirements
                out.append(("raised", qos_key(exc.measured)))
            except ConfigurationError as exc:
                out.append(("rejected", str(exc)))
        elif kind == "requirements":
            driver.controller.update_requirements(op[1])
        else:
            driver.reset()
        out.append(controller_state(driver))
    return out


def assert_drives_alike(new, old, ops, value: float) -> None:
    assert drive(new, ops, value) == drive(old, ops, value)
    assert_same_records(new.trace, old.trace)
    assert controller_state(new) == controller_state(old)


LOOSE = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)
TIGHT = QoSRequirements(
    max_detection_time=0.2, max_mistake_rate=0.01, min_query_accuracy=0.999
)
SPEED_ONLY = QoSRequirements(max_detection_time=0.5)
REQUIREMENTS = (LOOSE, TIGHT, SPEED_ONLY)

SLOTS = (
    SlotConfig(10),
    SlotConfig(10, horizon=1),
    SlotConfig(10, horizon=3),
    SlotConfig(10, reset_on_adjust=True),
    SlotConfig(10, reset_on_adjust=True, min_slots=3),
    SlotConfig(10, horizon=3, reset_on_adjust=True, min_slots=3),
    SlotConfig(10, min_slots=3),
)
BOUNDS = ((0.0, math.inf), (0.02, 0.06), (0.0, 0.0), (0.0, 0.3))
POLICIES = tuple(InfeasiblePolicy)


def cumulative_ops(steps, t_begin: float, requirements_pool) -> list:
    """Streaming ops from per-slot increments.

    Each step is ``(kind, dt, dm, dmt, dtc, td_per_sample)``; ``kind`` 0
    swaps the requirements, 1 resets, anything else closes a slot on the
    cumulative tallies.  A reset restarts accounting, as a host's does.
    """
    ops = []
    now, m, mt, ts, tc = t_begin, 0, 0.0, 0.0, 0
    for kind, dt, dm, dmt, dtc, per in steps:
        if kind == 0:
            ops.append(("requirements", requirements_pool[dm % len(requirements_pool)]))
            continue
        if kind == 1:
            ops.append(("reset",))
            t_begin = now
            m, mt, ts, tc = 0, 0.0, 0.0, 0
            continue
        now += dt
        m += dm
        mt += dmt
        ts += dtc * per
        tc += dtc
        ops.append(("slot", now, t_begin, m, mt, ts, tc))
    return ops


def seeded_steps(seed: int, n: int) -> list:
    """Tallies around LOOSE's bounds, with resets, requirement swaps, empty
    windows, slots without samples and rare shrinking mistake time."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n):
        kind = int(rng.choice(50))  # 0 and 1 (swap, reset): 1 in 50 each
        dt = float(
            rng.choice([0.0, 0.5, 1.0, 4.0, 10.0], p=[0.04, 0.2, 0.3, 0.3, 0.16])
        )
        dm = int(rng.poisson(dt * float(rng.choice([0.02, 0.3, 1.0]))))
        dmt = float(min(dm * rng.uniform(0.0, 0.2), dt))
        if rng.random() < 0.03:
            dmt = -float(rng.uniform(0.0, 0.5))
        dtc = int(rng.choice([0, 5, 10]))
        per = float(rng.uniform(0.1, 1.4))
        steps.append((kind, dt, dm, dmt, dtc, per))
    return steps


# --------------------------------------------------------------------- #
# seeded streams
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("slot", SLOTS, ids=str)
@pytest.mark.parametrize("policy", POLICIES, ids=str)
@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
def test_seeded_streams(slot, policy, bounds):
    for seed, requirements in enumerate(REQUIREMENTS):
        steps = seeded_steps(seed * 7 + slot.min_slots, 160)
        ops = cumulative_ops(steps, 1000.0, REQUIREMENTS)
        new, old = pair(requirements, slot, policy=policy, bounds=bounds)
        value = new.clamp(0.05)
        assert value == old.clamp(0.05)
        assert_drives_alike(new, old, ops, value)


def test_seeded_streams_reach_every_branch():
    """The seeded corpus decides every way, raises, skips, clamps at both
    bounds and evaluates windows with no detection-time sample."""
    seen: Counter = Counter()
    for slot in SLOTS:
        for policy in POLICIES:
            for seed, requirements in enumerate(REQUIREMENTS):
                steps = seeded_steps(seed * 7 + slot.min_slots, 160)
                ops = cumulative_ops(steps, 1000.0, REQUIREMENTS)
                old = ReferenceDriver(
                    ReferenceController(requirements, policy=policy),
                    slot,
                    (0.02, 0.06),
                )
                records = []
                old.on_slot = records.append
                outcomes = drive(old, ops, 0.05)
                kinds = Counter(o[0] for o in outcomes if isinstance(o[0], str))
                seen.update(kinds)
                seen["skipped"] += kinds["value"] > len(records)
                for rec in records:
                    seen[rec.decision] += 1
                    seen["nan td"] += math.isnan(rec.qos.detection_time)
                    # A step of 0.05 from inside [0.02, 0.06] always clamps.
                    seen["at lo"] += rec.decision is Satisfaction.SHRINK
                    seen["at hi"] += rec.decision is Satisfaction.GROW
                    assert rec.sm_after in (0.02, 0.06) or rec.decision not in (
                        Satisfaction.SHRINK, Satisfaction.GROW
                    )
    for key in (*Satisfaction, "raised", "skipped", "nan td", "at lo", "at hi"):
        assert seen[key] > 0, key


# --------------------------------------------------------------------- #
# fixed cases
# --------------------------------------------------------------------- #


def test_raise_leaves_the_same_state_and_goes_on_alike():
    """RAISE raises at the same slot with the same measured QoS; afterwards
    both are INFEASIBLE and frozen (the next slot holds without deciding),
    a requirement swap lifts it alike, and the slot numbering (which does
    not count the raising slot) agrees."""
    ops = [
        ("slot", 10.0, 0.0, 0, 0.0, 5.0, 10),  # TD 0.5 > 0.2, MR 0: shrink
        ("slot", 20.0, 0.0, 9, 2.0, 10.0, 20),  # slow and inaccurate
        ("slot", 30.0, 0.0, 9, 2.0, 15.0, 30),  # frozen
        ("requirements", LOOSE),
        ("slot", 40.0, 0.0, 9, 2.0, 20.0, 40),  # QAP 0.95 < 0.99: grow
        ("slot", 50.0, 0.0, 9, 2.0, 25.0, 50),
    ]
    new, old = pair(TIGHT, SlotConfig(10), policy=InfeasiblePolicy.RAISE,
                    bounds=(0.0, math.inf))
    outcomes = drive(new, ops, 0.3)
    assert outcomes == drive(old, ops, 0.3)
    assert [o[0] for o in outcomes if isinstance(o[0], str)] == [
        "value", "raised", "value", "value", "value"
    ]
    assert [(r.slot, r.decision, r.status) for r in new.trace] == [
        (1, Satisfaction.SHRINK, TuningStatus.TUNING),
        (2, Satisfaction.INFEASIBLE, TuningStatus.INFEASIBLE),
        (3, Satisfaction.GROW, TuningStatus.TUNING),
        (4, Satisfaction.GROW, TuningStatus.TUNING),
    ]
    assert_same_records(new.trace, old.trace)


def test_degenerate_window_and_nan_detection_time():
    ops = [
        ("slot", 5.0, 5.0, 0, 0.0, 0.0, 0),  # total <= 0: skipped
        ("slot", 10.0, 5.0, 0, 0.0, 0.0, 0),  # no samples: TD is NaN
        ("slot", 10.0, 5.0, 1, 0.1, 1.0, 2),  # horizon window of length 0
    ]
    new, old = pair(LOOSE, SlotConfig(10, horizon=1), policy=InfeasiblePolicy.STOP,
                    bounds=(0.0, math.inf))
    assert drive(new, ops, 0.1) == drive(old, ops, 0.1)
    assert len(new.trace) == 1 and math.isnan(new.trace[0].qos.detection_time)
    assert_same_records(new.trace, old.trace)


def test_domain_error_raises_like_qos_report():
    """Tallies that would give a negative mistake rate are rejected with
    QoSReport's own error, at the same slot, leaving the same state."""
    ops = [
        ("slot", 10.0, 0.0, 3, 0.5, 5.0, 10),
        ("slot", 20.0, 0.0, 1, 0.5, 10.0, 20),
        ("slot", 30.0, 0.0, 4, 0.5, 15.0, 30),
    ]
    new, old = pair(LOOSE, SlotConfig(10, horizon=1), policy=InfeasiblePolicy.STOP,
                    bounds=(0.0, math.inf))
    outcomes = drive(new, ops, 0.1)
    assert outcomes == drive(old, ops, 0.1)
    assert outcomes[2][0] == "rejected"
    assert_same_records(new.trace, old.trace)


# --------------------------------------------------------------------- #
# drawn streams
# --------------------------------------------------------------------- #

steps_strategy = st.lists(
    st.tuples(
        st.integers(0, 24),
        st.one_of(st.sampled_from((0.0, 1.0, 10.0)), st.floats(0.0, 20.0)),
        st.integers(0, 8),
        st.one_of(st.just(0.0), st.floats(-1.0, 6.0)),
        st.sampled_from((0, 1, 10)),
        st.floats(0.0, 2.0),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    steps=steps_strategy,
    t_begin=st.sampled_from((0.0, 0.3, 1000.0, 1.5e6)),
    requirements=st.sampled_from(REQUIREMENTS),
    slot=st.sampled_from(SLOTS),
    policy=st.sampled_from(POLICIES),
    bounds=st.sampled_from(BOUNDS),
    alpha=st.sampled_from((0.1, 1.0, 0.3)),
    beta=st.sampled_from((0.5, 0.9, 0.1)),
    sm1=st.one_of(st.sampled_from((0.0, 0.05, 0.5)), st.floats(0.0, 2.0)),
)
def test_drawn_streams(steps, t_begin, requirements, slot, policy, bounds,
                       alpha, beta, sm1):
    ops = cumulative_ops(steps, t_begin, REQUIREMENTS)
    new, old = pair(requirements, slot, alpha=alpha, beta=beta, policy=policy,
                    bounds=bounds)
    assert_drives_alike(new, old, ops, new.clamp(sm1))


# --------------------------------------------------------------------- #
# runs of slots that compute their own tallies (the replay's call)
# --------------------------------------------------------------------- #


def reference_linear(driver, value, t_begin, slots: LinearSlots, late):
    """The replay's host loop around the one-slot driver: tally every slot
    with its margin, add the drawn mistakes of each slot a bound does not
    clear, close it."""
    h = slots.heartbeats
    tally = [0, 0.0, 0.0, 0]
    margins = []
    prev = value
    for k, end in enumerate(slots.ends):
        margins.append(value)
        tally[2] += slots.td[k] + value * h
        tally[3] += h
        if not (value >= slots.late[k] and prev >= slots.first[k]):
            tally[0] += late[k][0]
            tally[1] += late[k][1]
        prev = value
        value = driver.close_slot(end, value, t_begin, *tally)
    return value, margins


def recurrence_linear(driver, value, t_begin, slots: LinearSlots, late):
    """One call: the recurrence scans, tallies and closes every slot."""
    tally = [0, 0.0, 0.0, 0]
    margins = []
    value = driver.close_slots(value, t_begin, tally, None, slots, margins)
    return value, margins


def run_linear(kernel, driver, value, t_begin, slots, late):
    try:
        value, margins = kernel(driver, value, t_begin, slots, late)
    except InfeasibleQoSError as exc:
        return ("raised", qos_key(exc.measured), controller_state(driver))
    return (bits(value), [bits(m) for m in margins], controller_state(driver))


bound_pool = st.one_of(
    st.sampled_from((-math.inf, math.inf, 0.0, 0.05)), st.floats(-0.1, 0.4)
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-5.0, 15.0),
            bound_pool,
            bound_pool,
            st.floats(0.01, 10.0),
            st.integers(0, 4),
            st.floats(0.0, 3.0),
        ),
        max_size=40,
    ),
    h=st.sampled_from((1, 7, 10)),
    requirements=st.sampled_from(REQUIREMENTS),
    slot=st.sampled_from(SLOTS),
    policy=st.sampled_from(POLICIES),
    bounds=st.sampled_from(BOUNDS),
    sm1=st.floats(0.0, 0.5),
)
def test_linear_slots(rows, h, requirements, slot, policy, bounds, sm1):
    slot = SlotConfig(h, slot.horizon, slot.reset_on_adjust, slot.min_slots)
    ends = list(np.cumsum([r[3] for r in rows]) + 100.0)
    first = [r[2] for r in rows]
    if first:
        first[0] = -math.inf  # slot 0's first arrival reveals nothing
    late = [(r[4], r[5]) for r in rows]
    scans = []

    def scan(k, sm, sm_prev):
        scans.append((k, sm, sm_prev))
        return late[k]

    slots = LinearSlots(
        h, [r[0] for r in rows], [r[1] for r in rows], first, ends, scan
    )
    new, old = pair(requirements, slot, policy=policy, bounds=bounds)
    value = new.clamp(sm1)
    expected = run_linear(reference_linear, old, value, 100.0, slots, late)
    actual = run_linear(recurrence_linear, new, value, 100.0, slots, late)
    assert actual == expected
    assert_same_records(new.trace, old.trace)
    if actual[0] == "raised":
        return
    # Each scan carries the slot's margin and the previous slot's, and
    # the recurrence scans exactly the slots whose bounds they miss.
    margins = [struct.unpack("<d", struct.pack("<q", m))[0] for m in actual[1]]
    missed = [
        (k, sm, margins[k - 1] if k else sm)
        for k, sm in enumerate(margins)
        if not (sm >= slots.late[k] and (margins[k - 1] if k else sm) >= first[k])
    ]
    assert [(k, bits(sm), bits(p)) for k, sm, p in scans] == [
        (k, bits(sm), bits(p)) for k, sm, p in missed
    ]


def test_linear_slots_scan_only_where_a_bound_fails():
    """One call closes every slot, and scans exactly the slots whose
    bounds their margins miss: slot 2 by its own margin, slot 4 by the
    previous slot's, which its call carries as ``SM_{k−1}``."""
    scans = []

    def scan(k, sm, sm_prev):
        scans.append((k, sm, sm_prev))
        return {2: (1, 0.5), 4: (2, 0.25)}[k]

    slots = LinearSlots(
        10,
        [0.0, 0.0, 0.0, 20.0, 0.0, 0.0],
        [-math.inf, -math.inf, 0.5, -math.inf, -math.inf, -math.inf],
        [-math.inf, -math.inf, -math.inf, -math.inf, 0.5, -math.inf],
        [110.0, 120.0, 130.0, 140.0, 150.0, 160.0],
        scan,
    )
    driver = FeedbackDriver(
        FeedbackController(SPEED_ONLY, alpha=0.1, beta=0.5), SlotConfig(10)
    )
    tally = [0, 0.0, 0.0, 0]
    margins: list[float] = []
    # TD stays at the margin, 0.3 ≤ 0.5, until slot 3's TD sum of 20
    # takes the mean to 0.8: each close from then on shrinks the margin
    # by β·α, the last one included.
    value = driver.close_slots(0.3, 100.0, tally, None, slots, margins)
    assert margins == [0.3, 0.3, 0.3, 0.3, 0.25, 0.2]
    assert value == 0.2 - 0.05
    assert scans == [(2, 0.3, 0.3), (4, 0.25, 0.3)]
    assert tally[:2] == [3, 0.75]
    # Each slot closes on the mistakes revealed up to its last arrival.
    trace = driver.trace
    assert [r.slot for r in trace] == [1, 2, 3, 4, 5, 6]
    assert [r.qos.mistakes for r in trace] == [0, 0, 1, 1, 3, 3]
    assert [r.qos.mistake_time for r in trace] == [0.0, 0.0, 0.5, 0.5, 0.75, 0.75]


# --------------------------------------------------------------------- #
# records are built when read
# --------------------------------------------------------------------- #


@pytest.fixture()
def built(monkeypatch):
    """Counts every TuningRecord and QoSReport constructed."""
    counts: Counter = Counter()
    for cls, name in ((TuningRecord, "records"), (QoSReport, "reports")):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_replay_builds_records_only_when_read(built, view_factory):
    view = view_factory("WAN-1", n=6000, seed=2012)
    spec = SFDSpec(requirements=LOOSE, sm1=0.05, window=100, slot=SlotConfig(25))
    result = replay(spec, view)
    # The one QoSReport is the replay's own accounting.
    assert built == {"reports": 1}
    tuning = result.tuning
    slots = len(tuning)
    assert slots > 100
    assert built == {"records": slots, "reports": 1 + slots}
    assert result.tuning is tuning
    assert built == {"records": slots, "reports": 1 + slots}


def test_streaming_builds_records_when_read_or_hooked(built, view_factory):
    view = view_factory("WAN-1", n=3000, seed=2012)
    fd = SFD(LOOSE, sm1=0.05, window_size=20, slot=SlotConfig(25))
    hooked = SFD(LOOSE, sm1=0.05, window_size=20, slot=SlotConfig(25))
    seen = []
    hooked.on_slot = seen.append
    for s, a, t in zip(view.seq.tolist(), view.arrivals.tolist(),
                       view.send_times.tolist()):
        fd.observe(s, a, t)
    assert built == {}
    for s, a, t in zip(view.seq.tolist(), view.arrivals.tolist(),
                       view.send_times.tolist()):
        hooked.observe(s, a, t)
    # The hook got each record as its slot closed, and the trace holds
    # those same objects.
    slots = len(seen)
    assert slots > 50
    assert built == {"records": slots, "reports": slots}
    assert all(a is b for a, b in zip(hooked.tuning_trace, seen))
    assert fd.tuning_trace == seen
    assert built == {"records": 2 * slots, "reports": 2 * slots}


# --------------------------------------------------------------------- #
# hygiene
# --------------------------------------------------------------------- #


def test_decision_table_exists_once_in_src():
    """Algorithm 1's table is spelled out once in the package: its GROW and
    SHRINK entries are named in one assignment, and nowhere else."""
    sites = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("GROW", "SHRINK")
                and isinstance(node.value, ast.Name)
                and node.value.id == "Satisfaction"
            ):
                sites.append((path.name, node.attr, node.lineno))
    assert sorted((name, attr) for name, attr, _ in sites) == [
        ("spec.py", "GROW"),
        ("spec.py", "SHRINK"),
    ], sites
    spec = ast.parse((Path(repro.__file__).parent / "qos" / "spec.py").read_text())
    table = next(
        node
        for node in spec.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "DECISIONS" for t in node.targets)
    )
    assert all(table.lineno <= line <= table.end_lineno for _, _, line in sites)
