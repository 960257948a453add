"""Streaming SFD: Eqs. 11-13, Algorithm 1, accrual output, self-accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.core import SFD, InfeasiblePolicy, SlotConfig, TuningStatus
from repro.core.tuning import SelfTuningMonitor
from repro.detectors import ChenFD
from repro.qos.spec import QoSRequirements, Satisfaction

from conftest import regular_view, stream_freshness

LOOSE = QoSRequirements(
    max_detection_time=5.0, max_mistake_rate=100.0, min_query_accuracy=0.0
)


def feed(fd, view):
    for s, a, st in zip(view.seq, view.arrivals, view.send_times):
        fd.observe(int(s), float(a), float(st))


def late_view(n=400, interval=0.1, delay=0.02, late_every=10, lateness=0.3):
    """Regular heartbeats where every ``late_every``-th is badly delayed."""
    send = interval * np.arange(n)
    d = np.full(n, delay)
    d[::late_every] += lateness
    arrivals = send + d
    order = np.argsort(arrivals, kind="stable")
    seq = np.arange(n, dtype=np.int64)[order]
    keep = seq >= np.maximum.accumulate(seq)
    from repro.traces.trace import MonitorView

    return MonitorView(
        seq=seq[keep], arrivals=arrivals[order][keep], send_times=send[seq[keep]]
    )


class TestConstruction:
    def test_sm1_defaults_to_alpha(self):
        fd = SFD(LOOSE, alpha=0.3, window_size=10)
        assert fd.sm1 == pytest.approx(0.3)

    def test_sm1_clamped_to_bounds(self):
        fd = SFD(LOOSE, sm1=5.0, window_size=10, sm_bounds=(0.0, 1.0))
        assert fd.safety_margin == 1.0

    def test_negative_sm1_rejected(self):
        with pytest.raises(ConfigurationError):
            SFD(LOOSE, sm1=-0.1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            SFD(LOOSE, sm_bounds=(2.0, 1.0))


class TestFreshnessEq11:
    def test_fp_is_ea_plus_sm(self):
        """Eq. 11: τ = EA + SM, with EA identical to Chen's estimator."""
        view = regular_view(n=40)
        sfd = SFD(LOOSE, sm1=0.2, window_size=10, slot=SlotConfig(10_000))
        chen = ChenFD(0.2, window_size=10)
        feed(sfd, view)
        feed(chen, view)
        # Slot never ends (huge slot) so SM stays at SM1 -> identical FPs.
        assert sfd.freshness_point() == pytest.approx(chen.freshness_point())

    def test_warmup_contract(self):
        sfd = SFD(LOOSE, window_size=10)
        assert sfd.status is TuningStatus.WARMUP
        with pytest.raises(NotWarmedUpError):
            sfd.freshness_point()
        with pytest.raises(NotWarmedUpError):
            sfd.qos_snapshot(1.0)


class TestSelfTuning:
    REQ = QoSRequirements(
        max_detection_time=2.0, max_mistake_rate=0.05, min_query_accuracy=0.9
    )

    def test_margin_grows_under_mistakes(self):
        """Section V-A2: small SM1 + high MR -> repeated GROW steps."""
        view = late_view(n=600, late_every=8, lateness=0.25)
        fd = SFD(
            self.REQ,
            sm1=0.001,
            alpha=0.1,
            beta=0.5,
            window_size=20,
            slot=SlotConfig(20),
        )
        feed(fd, view)
        assert fd.safety_margin > 0.1
        assert any(r.decision is Satisfaction.GROW for r in fd.tuning_trace)

    def test_margin_shrinks_when_too_slow(self):
        """Section V-B2: TD above requirement -> Sat = -beta reduces SM."""
        req = QoSRequirements(max_detection_time=0.3)
        view = regular_view(n=800)
        fd = SFD(
            req, sm1=1.0, alpha=0.2, beta=0.5, window_size=20, slot=SlotConfig(20)
        )
        feed(fd, view)
        assert fd.safety_margin < 1.0
        assert any(r.decision is Satisfaction.SHRINK for r in fd.tuning_trace)

    def test_stable_when_satisfied(self):
        view = regular_view(n=400)
        fd = SFD(
            QoSRequirements(max_detection_time=1.0, max_mistake_rate=1.0),
            sm1=0.1,
            window_size=20,
            slot=SlotConfig(20),
        )
        feed(fd, view)
        assert fd.status is TuningStatus.STABLE
        assert fd.safety_margin == pytest.approx(0.1)

    def test_infeasible_gives_response_and_stops(self):
        """Algorithm 1 line 14: detection too slow AND inaccurate."""
        req = QoSRequirements(max_detection_time=0.01, max_mistake_rate=1e-9)
        view = late_view(n=600, late_every=6, lateness=0.4)
        fd = SFD(
            req,
            sm1=0.5,
            window_size=20,
            slot=SlotConfig(20),
            policy=InfeasiblePolicy.STOP,
        )
        feed(fd, view)
        assert fd.status is TuningStatus.INFEASIBLE

    def test_sm_never_leaves_bounds(self):
        view = late_view(n=800, late_every=5, lateness=0.5)
        fd = SFD(
            self.REQ,
            sm1=0.05,
            alpha=1.0,
            beta=0.9,
            window_size=20,
            slot=SlotConfig(10),
            sm_bounds=(0.0, 0.2),
        )
        feed(fd, view)
        for r in fd.tuning_trace:
            assert 0.0 <= r.sm_after <= 0.2

    def test_trace_records_are_consistent(self):
        view = late_view(n=600)
        fd = SFD(self.REQ, sm1=0.01, window_size=20, slot=SlotConfig(20))
        feed(fd, view)
        assert fd.tuning_trace, "expected at least one evaluated slot"
        for r in fd.tuning_trace:
            step = abs(r.sm_after - r.sm_before)
            assert step == pytest.approx(0.0) or step == pytest.approx(
                0.05, abs=1e-12
            )  # beta * alpha = 0.5 * 0.1
        slots = [r.slot for r in fd.tuning_trace]
        assert slots == sorted(slots)


class TestAccrualOutput:
    def test_level_crosses_one_at_freshness_point(self):
        view = regular_view(n=40)
        fd = SFD(LOOSE, sm1=0.2, window_size=10, slot=SlotConfig(10_000))
        feed(fd, view)
        fp = fd.freshness_point()
        assert fd.suspicion(fp - 1e-6) < 1.0
        assert fd.suspicion(fp + 1e-6) > 1.0
        assert not fd.suspects(fp - 1e-6)
        assert fd.suspects(fp + 1e-6)

    def test_level_grows_linearly_in_margins(self):
        view = regular_view(n=40)
        fd = SFD(LOOSE, sm1=0.2, window_size=10, slot=SlotConfig(10_000))
        feed(fd, view)
        fp = fd.freshness_point()
        assert fd.suspicion(fp + 0.2) == pytest.approx(2.0, rel=1e-6)

    def test_level_zero_before_expected_arrival(self):
        view = regular_view(n=40)
        fd = SFD(LOOSE, sm1=0.2, window_size=10, slot=SlotConfig(10_000))
        feed(fd, view)
        assert fd.suspicion(view.arrivals[-1]) == 0.0

    def test_level_uses_the_margin_of_its_freshness_point(self):
        """A slot close moves SM after the freshness point is fixed; the
        level must still reach 1.0 exactly at that point, so it is
        normalized by the margin the point was computed with."""
        view = late_view(n=600, late_every=8, lateness=0.25)
        fd = SFD(TestSelfTuning.REQ, sm1=0.001, window_size=20, slot=SlotConfig(20))
        rows = zip(view.seq, view.arrivals, view.send_times)
        for s, a, st in rows:
            slots = len(fd.tuning_trace)
            fd.observe(int(s), float(a), float(st))
            if len(fd.tuning_trace) > slots:
                rec = fd.tuning_trace[-1]
                if rec.sm_after != rec.sm_before:
                    break
        else:
            pytest.fail("the margin never moved")
        assert fd.safety_margin == rec.sm_after
        assert fd.suspicion_eta(1.0) == fd.freshness_point()
        s, a, st = next(rows)
        fd.observe(int(s), float(a), float(st))
        assert fd.suspicion_eta(1.0) == fd.freshness_point()


class TestQoSSnapshot:
    def test_snapshot_counts_mistakes(self):
        view = late_view(n=300, late_every=10, lateness=0.5)
        fd = SFD(LOOSE, sm1=0.01, window_size=20, slot=SlotConfig(10_000))
        feed(fd, view)
        snap = fd.qos_snapshot(float(view.arrivals[-1]))
        assert snap.mistakes > 0
        assert 0.0 <= snap.query_accuracy <= 1.0

    def test_reset_clears_everything(self):
        view = late_view(n=300)
        fd = SFD(LOOSE, sm1=0.3, window_size=20, slot=SlotConfig(20))
        feed(fd, view)
        fd.reset()
        assert not fd.ready
        assert fd.safety_margin == fd.sm1
        assert fd.tuning_trace == []
        assert fd.status is TuningStatus.WARMUP


class TestGeneralMethodEquivalence:
    """SFD == the general self-tuning method applied to Chen FD."""

    def test_selftuned_chen_matches_sfd(self, view_factory):
        # Bit for bit, not approx: both hosts account through the shared
        # rule and close their slots in the shared FeedbackDriver, on the
        # same floats in the same order.
        req = QoSRequirements(
            max_detection_time=0.5, max_mistake_rate=0.2, min_query_accuracy=0.99
        )
        view = view_factory("WAN-1", n=6000, seed=2012)
        last = float(view.arrivals[-1])
        for slot in (
            SlotConfig(25),
            SlotConfig(40, horizon=3),
            SlotConfig(30, reset_on_adjust=True, min_slots=2),
        ):
            sfd = SFD(req, sm1=0.02, alpha=0.1, beta=0.5, window_size=50, slot=slot)
            mon = SelfTuningMonitor(
                ChenFD(0.02, window_size=50),
                "alpha",
                req,
                alpha=0.1,
                beta=0.5,
                slot=slot,
            )
            fps_sfd = stream_freshness(sfd, view)
            fps_mon = stream_freshness(mon, view)
            assert np.array_equal(fps_sfd, fps_mon, equal_nan=True), slot
            assert sfd.tuning_trace, slot
            assert mon.tuning_trace == sfd.tuning_trace, slot
            assert mon.qos_snapshot(last) == sfd.qos_snapshot(last), slot
            assert mon.knob_value == sfd.safety_margin, slot

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigurationError):
            SelfTuningMonitor(ChenFD(0.1, window_size=10), "nope", LOOSE)

    def test_knob_clamped(self):
        mon = SelfTuningMonitor(
            ChenFD(5.0, window_size=10),
            "alpha",
            QoSRequirements(max_detection_time=0.01),
            alpha=1.0,
            beta=0.9,
            slot=SlotConfig(5),
            knob_bounds=(0.2, 1.0),
        )
        # The initial knob is clamped at construction, like SFD's SM1.
        assert mon.knob_value == 1.0
        feed(mon, regular_view(n=200))
        assert mon.knob_value == 0.2
        mon.reset()
        assert not mon.ready and mon.tuning_trace == []
        assert mon.knob_value == 1.0


class TestRuntimeRetargeting:
    """Fig. 4's requirement input can change while the detector runs."""

    def test_relaxing_contract_lifts_infeasible_stop(self):
        impossible = QoSRequirements(
            max_detection_time=0.01, max_mistake_rate=1e-9
        )
        view = late_view(n=900, late_every=6, lateness=0.4)
        fd = SFD(
            impossible,
            sm1=0.5,
            alpha=0.2,
            beta=0.5,
            window_size=20,
            slot=SlotConfig(20),
        )
        half = len(view) // 2
        for s, a, st in zip(view.seq[:half], view.arrivals[:half], view.send_times[:half]):
            fd.observe(int(s), float(a), float(st))
        assert fd.status is TuningStatus.INFEASIBLE
        relaxed = QoSRequirements(
            max_detection_time=5.0, max_mistake_rate=10.0, min_query_accuracy=0.5
        )
        fd.update_requirements(relaxed)
        for s, a, st in zip(view.seq[half:], view.arrivals[half:], view.send_times[half:]):
            fd.observe(int(s), float(a), float(st))
        assert fd.status is TuningStatus.STABLE
        assert fd.requirements is relaxed

    def test_tightening_contract_forces_retuning(self):
        view = regular_view(n=1200)
        fd = SFD(
            QoSRequirements(max_detection_time=2.0),
            sm1=1.0,
            alpha=0.2,
            beta=0.5,
            window_size=20,
            slot=SlotConfig(20, reset_on_adjust=True, min_slots=2),
        )
        half = 600
        for s, a, st in zip(view.seq[:half], view.arrivals[:half], view.send_times[:half]):
            fd.observe(int(s), float(a), float(st))
        sm_before = fd.safety_margin
        # Tighten TD to below the current operating point.
        fd.update_requirements(QoSRequirements(max_detection_time=0.4))
        for s, a, st in zip(view.seq[half:], view.arrivals[half:], view.send_times[half:]):
            fd.observe(int(s), float(a), float(st))
        assert fd.safety_margin < sm_before  # margin shrank to meet it

    def test_monitor_passthrough(self):
        mon = SelfTuningMonitor(
            ChenFD(0.1, window_size=10), "alpha", LOOSE
        )
        new = QoSRequirements(max_detection_time=0.3)
        mon.update_requirements(new)
        assert mon.requirements is new
