"""Extension features: trace CSV interop, link outages, offline planner."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.detectors import ChenFD
from repro.net import ConstantDelay
from repro.qos.planner import (
    feasible_points,
    plan_chen_alpha,
    plan_from_curve,
)
from repro.qos.area import QoSCurve
from repro.qos.spec import QoSReport, QoSRequirements
from repro.sim import CrashPlan, HeartbeatSender, MonitorProcess, SimLink, Simulator
from repro.traces import HeartbeatTrace, synthesize, WAN_1


class TestTraceCSV:
    def trace(self):
        return HeartbeatTrace(
            send_times=np.array([0.0, 1.0, 2.0, 3.0]),
            delays=np.array([0.25, np.nan, 0.125, 0.5]),
            name="csv",
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        t = self.trace()
        t.to_csv(path)
        back = HeartbeatTrace.from_csv(path, name="csv")
        np.testing.assert_array_equal(back.send_times, t.send_times)
        np.testing.assert_array_equal(back.delivered_mask, t.delivered_mask)
        np.testing.assert_allclose(
            back.delays[back.delivered_mask], t.delays[t.delivered_mask]
        )

    def test_roundtrip_preserves_monitor_view(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = synthesize(WAN_1, n=2000, seed=1)
        trace.to_csv(path)
        back = HeartbeatTrace.from_csv(path)
        v1, v2 = trace.monitor_view(), back.monitor_view()
        np.testing.assert_array_equal(v1.seq, v2.seq)
        np.testing.assert_allclose(v1.arrivals, v2.arrivals, rtol=0, atol=0)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope,nope\n")
        with pytest.raises(TraceFormatError):
            HeartbeatTrace.from_csv(path)

    def test_rejects_sequence_gap(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("seq,send_time,arrival_time\n0,0.0,0.1\n2,2.0,2.1\n")
        with pytest.raises(TraceFormatError):
            HeartbeatTrace.from_csv(path)

    def test_rejects_malformed_fields(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("seq,send_time,arrival_time\n0,zero,0.1\n")
        with pytest.raises(TraceFormatError):
            HeartbeatTrace.from_csv(path)


class TestLinkOutage:
    def test_messages_in_window_are_lost(self):
        sim = Simulator()
        got = []
        link = SimLink(sim, ConstantDelay(0.01), deliver=got.append)
        link.outage(1.0, 2.0)
        for t in (0.5, 1.5, 2.5, 3.5):
            sim.schedule_at(t, lambda t=t: link.send(t))
        sim.run()
        assert got == [0.5, 3.5]
        assert link.lost == 2

    def test_outage_validation(self):
        sim = Simulator()
        link = SimLink(sim, ConstantDelay(0.01))
        with pytest.raises(ConfigurationError):
            link.outage(1.0, 0.0)

    def test_detector_rides_out_partition(self):
        """During a partition the monitor wrongly suspects; after healing
        it trusts again — one long mistake, not a permanent one."""
        sim = Simulator()
        rng = np.random.default_rng(0)
        mon = MonitorProcess(sim, ChenFD(0.05, window_size=30))
        link = SimLink(
            sim, ConstantDelay(0.02), rng=rng, deliver=mon.deliver
        )
        link.outage(20.0, 5.0)
        HeartbeatSender(sim, link, interval=0.1, crash=CrashPlan.never(), rng=rng)
        sim.run(until=22.0)
        assert mon.suspects_now()  # mid-partition: looks crashed
        sim.run(until=40.0)
        assert not mon.suspects_now()  # healed: trusted again
        rep = mon.finish()
        assert rep.qos.mistakes >= 1
        assert rep.qos.mistake_time == pytest.approx(5.0, abs=0.5)


class TestPlanner:
    def curve(self, pts):
        c = QoSCurve("chen")
        for param, td, mr, qap in pts:
            c.add(
                param,
                QoSReport(
                    detection_time=td, mistake_rate=mr, query_accuracy=qap
                ),
            )
        return c

    REQ = QoSRequirements(
        max_detection_time=1.0, max_mistake_rate=0.1, min_query_accuracy=0.99
    )

    def test_picks_fastest_feasible(self):
        c = self.curve(
            [
                (0.01, 0.2, 5.0, 0.9),  # too inaccurate
                (0.1, 0.4, 0.05, 0.995),  # feasible
                (0.5, 0.8, 0.01, 0.999),  # feasible but slower
                (2.0, 3.0, 0.0, 1.0),  # too slow
            ]
        )
        plan = plan_from_curve(c, self.REQ)
        assert plan.satisfiable
        assert plan.parameter == 0.1
        assert len(plan.feasible) == 2

    def test_unsatisfiable(self):
        c = self.curve([(0.01, 0.2, 5.0, 0.9), (2.0, 3.0, 0.0, 1.0)])
        plan = plan_from_curve(c, self.REQ)
        assert not plan.satisfiable
        with pytest.raises(ConfigurationError):
            _ = plan.parameter

    def test_feasible_points_filter(self):
        c = self.curve([(0.1, 0.4, 0.05, 0.995)])
        assert len(feasible_points(c, self.REQ)) == 1
        strict = QoSRequirements(max_detection_time=0.1)
        assert feasible_points(c, strict) == ()

    def test_plan_chen_alpha_end_to_end(self):
        view = synthesize(WAN_1, n=20_000, seed=9).monitor_view()
        req = QoSRequirements(
            max_detection_time=0.9,
            max_mistake_rate=0.35,
            min_query_accuracy=0.97,
        )
        plan = plan_chen_alpha(view, req, window=500)
        assert plan.satisfiable
        # The chosen point's measured QoS indeed satisfies the contract.
        assert req.satisfied_by(plan.point.qos)
        # And it is the fastest feasible one.
        assert plan.point.detection_time == min(
            p.detection_time for p in plan.feasible
        )

    def test_plan_chen_alpha_infeasible_contract(self):
        view = synthesize(WAN_1, n=20_000, seed=9).monitor_view()
        impossible = QoSRequirements(
            max_detection_time=0.01, max_mistake_rate=1e-9
        )
        plan = plan_chen_alpha(view, impossible, window=500)
        assert not plan.satisfiable

    def test_plan_chen_alpha_is_exact_replay(self):
        from repro.replay import ChenSpec, replay

        view = synthesize(WAN_1, n=20_000, seed=9).monitor_view()
        req = QoSRequirements(max_detection_time=0.9)
        grid = [0.0, 0.003, 0.02, 0.1, 0.5, 1.5, 1e6]
        plan = plan_chen_alpha(view, req, alphas=grid, window=300)
        assert [p.parameter for p in plan.swept.points] == grid
        for p in plan.swept.points:
            assert p.qos == replay(ChenSpec(alpha=p.parameter, window=300), view).qos
        huge = plan.swept.points[-1].qos
        assert huge.mistakes == 0
        assert huge.query_accuracy == 1.0

    def test_unreplayable_point_raises_job_failed(self):
        from repro.exp import JobFailedError

        view = synthesize(WAN_1, n=2_000, seed=9).monitor_view()
        req = QoSRequirements(max_detection_time=0.9)
        with pytest.raises(JobFailedError, match="alpha must be >= 0"):
            plan_chen_alpha(view, req, alphas=[0.1, -1.0], window=300)
        with pytest.raises(JobFailedError, match="need more than 5000"):
            plan_chen_alpha(view, req, window=5000)

    def test_plan_detector_picks_the_curve_planners_point(self):
        from repro.analysis import sweep_curve
        from repro.qos import plan_detector

        view = synthesize(WAN_1, n=5_000, seed=9).monitor_view()
        grid = (0.01, 0.05, 0.1, 0.2, 0.4, 0.8)
        req = QoSRequirements(
            max_detection_time=0.9,
            max_mistake_rate=0.35,
            min_query_accuracy=0.97,
        )
        plan = plan_detector("chen", view, req, grid=grid, window=300)
        ref = plan_from_curve(sweep_curve("chen", view, grid, window=300), req)
        assert plan.satisfiable
        assert plan.point == ref.point
        assert plan.feasible == ref.feasible
        impossible = QoSRequirements(
            max_detection_time=0.01, max_mistake_rate=1e-9
        )
        plan = plan_detector("chen", view, impossible, grid=grid, window=300)
        assert plan.satisfiable is False
