"""Feedback controller, slot policy, and the shared driver."""

import math

import pytest

from repro.errors import ConfigurationError, InfeasibleQoSError
from repro.core.feedback import (
    FeedbackController,
    FeedbackDriver,
    InfeasiblePolicy,
    SlotConfig,
    TuningStatus,
)
from repro.qos.spec import QoSRequirements, Satisfaction

REQ = QoSRequirements(
    max_detection_time=1.0, max_mistake_rate=0.1, min_query_accuracy=0.99
)


class Decide:
    """One slot of Algorithm 1 at a time through the slot recurrence.

    Each call closes a 100 s slot whose own tallies measure the given QoS
    (a one-slot horizon, so earlier slots do not enter the window) and
    returns the margin delta the loop decided.
    """

    def __init__(self, controller: FeedbackController):
        self.driver = FeedbackDriver(controller, SlotConfig(10, horizon=1))
        self.tally = [0, 0.0, 0.0, 0]
        self.now = 0.0

    def __call__(self, td=0.5, mr=0.05, qap=0.999) -> float:
        self.now += 100.0
        m, mt, ts, tc = self.tally
        self.tally = [
            m + round(mr * 100.0), mt + (1.0 - qap) * 100.0, ts + td * 10, tc + 10
        ]
        return self.driver.close_slot(self.now, 1.0, 0.0, *self.tally) - 1.0


class TestFeedbackController:
    def test_step_magnitude_is_beta_alpha(self):
        c = FeedbackController(REQ, alpha=0.2, beta=0.5)
        assert c.step_magnitude == pytest.approx(0.1)

    def test_grow_on_inaccuracy(self):
        c = FeedbackController(REQ, alpha=0.2, beta=0.5)
        assert Decide(c)(mr=0.5) == pytest.approx(+0.1)
        assert c.status is TuningStatus.TUNING
        assert c.adjustments == 1

    def test_shrink_on_slow_detection(self):
        c = FeedbackController(REQ, alpha=0.2, beta=0.5)
        assert Decide(c)(td=2.0) == pytest.approx(-0.1)
        assert c.last_decision is Satisfaction.SHRINK

    def test_stable_holds(self):
        c = FeedbackController(REQ)
        assert Decide(c)() == 0.0
        assert c.status is TuningStatus.STABLE

    def test_infeasible_stop_freezes(self):
        c = FeedbackController(REQ, policy=InfeasiblePolicy.STOP)
        decide = Decide(c)
        assert decide(td=2.0, mr=0.5) == 0.0
        assert c.status is TuningStatus.INFEASIBLE
        # Frozen: even a satisfiable slot changes nothing afterwards.
        assert decide() == 0.0
        assert c.status is TuningStatus.INFEASIBLE

    def test_infeasible_raise(self):
        c = FeedbackController(REQ, policy=InfeasiblePolicy.RAISE)
        with pytest.raises(InfeasibleQoSError) as ei:
            Decide(c)(td=2.0, mr=0.5)
        assert ei.value.required is REQ

    def test_infeasible_hold_grows(self):
        c = FeedbackController(REQ, alpha=0.2, beta=0.5, policy=InfeasiblePolicy.HOLD)
        assert Decide(c)(td=2.0, mr=0.5) == pytest.approx(+0.1)
        assert c.status is TuningStatus.TUNING

    def test_parameter_domains(self):
        with pytest.raises(ConfigurationError):
            FeedbackController(REQ, alpha=0.0)
        with pytest.raises(ConfigurationError):
            FeedbackController(REQ, alpha=1.5)
        with pytest.raises(ConfigurationError):
            FeedbackController(REQ, beta=1.0)

    def test_reset(self):
        c = FeedbackController(REQ)
        Decide(c)(mr=0.5)
        c.reset()
        assert c.status is TuningStatus.WARMUP
        assert c.adjustments == 0


class TestSlotConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlotConfig(0)
        with pytest.raises(ConfigurationError):
            SlotConfig(10, horizon=0)
        with pytest.raises(ConfigurationError):
            SlotConfig(10, min_slots=0)

    def test_defaults(self):
        s = SlotConfig()
        assert s.heartbeats == 100
        assert s.horizon is None
        assert not s.reset_on_adjust
        assert s.min_slots == 1


def end_slot(d: FeedbackDriver, t_begin, now, mistakes, mistake_time, td_sum, td_count):
    """Close one slot on a margin of 1.0: ``(delta, the window's QoS)``,
    the QoS being ``None`` for a skipped slot."""
    before = len(d.trace)
    after = d.close_slot(now, 1.0, t_begin, mistakes, mistake_time, td_sum, td_count)
    return after - 1.0, d.trace[-1].qos if len(d.trace) > before else None


class TestFeedbackDriver:
    def mk(self, slot, alpha=0.2, beta=0.5, policy=InfeasiblePolicy.STOP):
        return FeedbackDriver(
            FeedbackController(REQ, alpha=alpha, beta=beta, policy=policy), slot
        )

    def test_cumulative_window_spans_from_begin(self):
        d = self.mk(SlotConfig(10))
        # 2 mistakes in [0, 10]: MR 0.2 > 0.1 -> grow.
        delta, snap = end_slot(d, 0.0, 10.0, 2, 0.5, 5.0, 10)
        assert delta == pytest.approx(+0.1)
        assert snap is not None and snap.accounted_time == pytest.approx(10.0)

    def test_horizon_diffs_against_old_checkpoint(self):
        d = self.mk(SlotConfig(10, horizon=1))
        end_slot(d, 0.0, 10.0, 5, 1.0, 5.0, 10)  # first slot, noisy
        # Second slot adds nothing new: windowed MR = 0 -> stable.
        delta, snap = end_slot(d, 0.0, 20.0, 5, 1.0, 10.0, 20)
        assert delta == 0.0
        assert snap is not None
        assert snap.mistakes == 0
        assert snap.accounted_time == pytest.approx(10.0)

    def test_min_slots_defers_judgement(self):
        d = self.mk(SlotConfig(10, min_slots=3))
        assert end_slot(d, 0.0, 10.0, 9, 1.0, 5.0, 10) == (0.0, None)
        assert end_slot(d, 0.0, 20.0, 9, 1.0, 10.0, 20) == (0.0, None)
        delta, snap = end_slot(d, 0.0, 30.0, 9, 1.0, 15.0, 30)
        assert snap is not None and delta != 0.0

    def test_reset_on_adjust_measures_current_setting(self):
        d = self.mk(SlotConfig(10, reset_on_adjust=True))
        delta, _ = end_slot(d, 0.0, 10.0, 5, 1.0, 5.0, 10)
        assert delta > 0  # grew
        # Next slot: cumulative tallies unchanged -> window since the
        # change has zero mistakes -> stable, not still growing.
        delta2, snap2 = end_slot(d, 0.0, 20.0, 5, 1.0, 10.0, 20)
        assert delta2 == 0.0
        assert snap2 is not None and snap2.mistakes == 0

    def test_degenerate_window_skipped(self):
        d = self.mk(SlotConfig(10))
        delta, snap = end_slot(d, 5.0, 5.0, 0, 0.0, 0.0, 0)
        assert (delta, snap) == (0.0, None)

    def test_status_passthrough_and_reset(self):
        d = self.mk(SlotConfig(10))
        end_slot(d, 0.0, 10.0, 5, 1.0, 5.0, 10)
        assert d.status is TuningStatus.TUNING
        d.reset()
        assert d.status is TuningStatus.WARMUP

    def test_nan_td_with_zero_samples(self):
        d = self.mk(SlotConfig(10))
        _, snap = end_slot(d, 0.0, 10.0, 0, 0.0, 0.0, 0)
        assert snap is not None
        assert math.isnan(snap.detection_time)
