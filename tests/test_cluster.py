"""Cluster layer: membership table, quorum group, PlanetLab-style scan."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.core import SelfTuningMonitor, SlotConfig
from repro.cluster import (
    ClusterScan,
    MembershipTable,
    MonitorGroup,
    NodeSpec,
    NodeStatus,
)
from repro.detectors import ChenFD, FixedTimeoutFD, PhiFD
from repro.detectors.base import FailureDetector
from repro.qos.spec import QoSRequirements


def fixed_factory(timeout=0.5):
    return lambda nid: FixedTimeoutFD(timeout)


def feed_regular(table, node, n=10, interval=0.1, start=0.0):
    for i in range(n):
        table.heartbeat(node, i, start + interval * i)
    return start + interval * (n - 1)


class TestMembershipTable:
    def test_auto_register(self):
        t = MembershipTable(fixed_factory())
        t.heartbeat("a", 0, 0.0)
        assert "a" in t and len(t) == 1

    def test_explicit_register_required(self):
        t = MembershipTable(fixed_factory(), auto_register=False)
        with pytest.raises(ConfigurationError):
            t.heartbeat("ghost", 0, 0.0)

    def test_register_idempotent(self):
        t = MembershipTable(fixed_factory())
        a = t.register("a")
        assert t.register("a") is a

    def test_stale_sequence_dropped(self):
        t = MembershipTable(fixed_factory())
        t.heartbeat("a", 5, 0.0)
        st = t.heartbeat("a", 3, 0.1)
        assert st.stale_dropped == 1
        assert st.heartbeats == 1

    def test_statuses_with_binary_detector(self):
        t = MembershipTable(fixed_factory(0.5))
        last = feed_regular(t, "a")
        assert t.node("a").status(last + 0.1) is NodeStatus.ACTIVE
        assert t.node("a").status(last + 1.0) is NodeStatus.SUSPECT

    def test_statuses_with_accrual_detector(self):
        t = MembershipTable(lambda nid: PhiFD(4.0, window_size=5))
        last = feed_regular(t, "a", n=12)
        assert t.node("a").status(last + 0.01) is NodeStatus.ACTIVE
        assert t.node("a").status(last + 100.0) is NodeStatus.DEAD

    def test_unknown_before_warmup(self):
        t = MembershipTable(lambda nid: PhiFD(4.0, window_size=50))
        t.heartbeat("a", 0, 0.0)
        assert t.node("a").status(1.0) is NodeStatus.UNKNOWN

    def test_summary_and_select(self):
        t = MembershipTable(fixed_factory(0.5))
        feed_regular(t, "up", n=10, start=0.0)
        feed_regular(t, "down", n=5, start=0.0)  # stops early -> suspect
        now = 1.0
        summary = t.summary(now)
        assert summary[NodeStatus.ACTIVE] == 1
        assert summary[NodeStatus.SUSPECT] == 1
        assert t.select(now, NodeStatus.ACTIVE) == ["up"]

    def test_remove(self):
        t = MembershipTable(fixed_factory())
        t.heartbeat("a", 0, 0.0)
        t.remove("a")
        assert "a" not in t
        with pytest.raises(ConfigurationError):
            t.node("a")


class TestMonitorGroup:
    def build_group(self, opinions):
        """opinions: list of 'up'/'down' — one monitor each for node 'n'."""
        g = MonitorGroup()
        for i, op in enumerate(opinions):
            t = MembershipTable(fixed_factory(0.5))
            feed_regular(t, "n", n=10)
            if op == "down":
                pass  # no further heartbeats: suspect at query time
            else:
                t.heartbeat("n", 100, 2.0)  # fresh heartbeat near query
            g.add_monitor(f"m{i}", t)
        return g

    def test_majority_declares_crash(self):
        g = self.build_group(["down", "down", "up"])
        v = g.verdict("n", now=2.2)
        assert v.suspecting == 2 and v.observing == 3
        assert v.crashed

    def test_minority_does_not(self):
        g = self.build_group(["down", "up", "up"])
        assert not g.verdict("n", now=2.2).crashed

    def test_explicit_quorum(self):
        g = MonitorGroup(quorum=1)
        t = MembershipTable(fixed_factory(0.5))
        feed_regular(t, "n", n=10)
        g.add_monitor("m", t)
        assert g.verdict("n", now=5.0).crashed

    def test_duplicate_monitor_rejected(self):
        g = MonitorGroup()
        t = MembershipTable(fixed_factory())
        g.add_monitor("m", t)
        with pytest.raises(ConfigurationError):
            g.add_monitor("m", t)

    def test_unknown_node_has_no_observers(self):
        g = MonitorGroup()
        g.add_monitor("m", MembershipTable(fixed_factory()))
        v = g.verdict("ghost", now=1.0)
        assert v.observing == 0 and not v.crashed

    def test_crashed_nodes_listing(self):
        g = self.build_group(["down", "down"])
        assert g.crashed_nodes(now=2.2) == ["n"]

    def test_quorum_validation(self):
        with pytest.raises(ConfigurationError):
            MonitorGroup(quorum=0)


class TestClusterScan:
    def specs(self, n=12):
        return [
            NodeSpec(
                f"node-{i:02d}",
                crash_time=(15.0 if i % 4 == 0 else math.inf),
                loss_rate=0.01 if i % 3 == 0 else 0.0,
            )
            for i in range(n)
        ]

    def test_scan_classifies_against_ground_truth(self):
        scan = ClusterScan(
            self.specs(), lambda nid: PhiFD(3.0, window_size=50), seed=1
        )
        rep = scan.run(horizon=45.0)
        assert rep.truth_crashed == {f"node-{i:02d}" for i in (0, 4, 8)}
        assert rep.missed == set()
        assert rep.accuracy >= 0.9

    def test_counts_sum_to_cluster_size(self):
        scan = ClusterScan(
            self.specs(), lambda nid: PhiFD(3.0, window_size=50), seed=2
        )
        rep = scan.run(horizon=30.0)
        assert sum(rep.counts().values()) == 12

    def test_deterministic_given_seed(self):
        mk = lambda: ClusterScan(  # noqa: E731
            self.specs(), lambda nid: PhiFD(3.0, window_size=50), seed=3
        )
        assert mk().run(40.0).statuses == mk().run(40.0).statuses

    def test_duplicate_ids_rejected(self):
        specs = [NodeSpec("same"), NodeSpec("same")]
        with pytest.raises(ConfigurationError):
            ClusterScan(specs, lambda nid: FixedTimeoutFD(0.5))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterScan([], lambda nid: FixedTimeoutFD(0.5))

    def test_horizon_validation(self):
        scan = ClusterScan([NodeSpec("a")], lambda nid: FixedTimeoutFD(0.5))
        with pytest.raises(ConfigurationError):
            scan.run(horizon=0.0)


class TestLiveQoSAccounting:
    def test_qos_counts_mistakes_and_td(self):
        from repro.errors import NotWarmedUpError

        t = MembershipTable(fixed_factory(0.5), account_qos=True)
        # 10 regular beats, then a 2-second stall, then 3 more.
        times = [0.1 * i for i in range(10)]
        times += [times[-1] + 2.0 + 0.1 * i for i in range(3)]
        for i, at in enumerate(times):
            t.heartbeat("a", i, at)
        state = t.node("a")
        qos = state.qos(times[-1])
        assert qos.mistakes == 1
        # Suspicion ran from last_regular + 0.5 to the late arrival.
        assert qos.mistake_time == pytest.approx(1.5, abs=1e-9)
        # TD proxy: FP - arrival = fixed timeout.
        assert qos.detection_time == pytest.approx(0.5)

    def test_disabled_by_default(self):
        t = MembershipTable(fixed_factory(0.5))
        feed_regular(t, "a")
        from repro.errors import NotWarmedUpError

        with pytest.raises(NotWarmedUpError):
            t.node("a").qos(10.0)

    def test_not_before_warmup(self):
        from repro.errors import NotWarmedUpError

        t = MembershipTable(
            lambda nid: PhiFD(3.0, window_size=50), account_qos=True
        )
        t.heartbeat("a", 0, 0.0)
        with pytest.raises(NotWarmedUpError):
            t.node("a").qos(1.0)

    def test_clean_feed_has_no_mistakes(self):
        t = MembershipTable(fixed_factory(0.5), account_qos=True)
        last = feed_regular(t, "a", n=30)
        qos = t.node("a").qos(last)
        assert qos.mistakes == 0
        assert qos.query_accuracy == 1.0

    def test_infinite_freshness_point_classifies_and_reports_infinite_td(self):
        # phi past its float64 inversion cutoff: FP = inf, which replay
        # reports as TD = inf, MR = 0, QAP = 1.  The live table must do the
        # same and still classify the node.
        t = MembershipTable("phi:threshold=18,window=10", account_qos=True)
        times = [0.1 * i + 0.01 * (i % 3) for i in range(40)]
        for i, at in enumerate(times):
            t.heartbeat("a", i, at, at - 0.02)
        assert t.node("a").detector.freshness_point() == math.inf
        assert t.status_of("a", times[-1]) is NodeStatus.ACTIVE
        qos = t.node("a").qos(times[-1])
        assert qos.detection_time == math.inf
        assert qos.mistakes == 0
        assert qos.query_accuracy == 1.0

    def test_detector_without_freshness_point_rejected(self):
        class TimeoutStub(FailureDetector):
            """Binary 0.5 s timeout with no freshness_point()."""

            last = -math.inf

            def observe(self, seq, arrival, send_time=None):
                self.last = arrival

            @property
            def ready(self):
                return self.last > -math.inf

            def suspicion(self, now):
                return math.inf if now - self.last > 0.5 else 0.0

        # Without freshness points there is nothing to account against:
        # no silent perfect report, a refusal naming the class.
        t = MembershipTable(lambda nid: TimeoutStub(), account_qos=True)
        with pytest.raises(ConfigurationError, match="TimeoutStub"):
            t.heartbeat("a", 0, 0.0)
        with pytest.raises(ConfigurationError, match="TimeoutStub"):
            t.register("b")
        assert len(t) == 0
        plain = MembershipTable(lambda nid: TimeoutStub())
        plain.heartbeat("a", 0, 0.0)
        assert plain.status_of("a", 1.0) is NodeStatus.SUSPECT


class TestSelfTunedHosting:
    """The general self-tuning method goes wherever a detector goes."""

    def test_table_accounts_like_the_monitor_and_restart_restores_knob(self):
        req = QoSRequirements(
            max_detection_time=1.0, max_mistake_rate=0.01, min_query_accuracy=0.99
        )
        t = MembershipTable(
            lambda nid: SelfTuningMonitor(
                ChenFD(0.02, window_size=5), "alpha", req, slot=SlotConfig(10)
            ),
            account_qos=True,
        )
        # Every 7th heartbeat is 0.3 s late: mistakes grow the margin.
        times = [0.1 * i + (0.3 if i % 7 == 0 else 0.0) for i in range(200)]
        for i, at in enumerate(times):
            t.heartbeat("a", i, at, at - 0.01)
        state = t.node("a")
        mon = state.detector
        assert mon.tuning_trace and mon.knob_value > 0.02
        assert state.qos(times[-1]) == mon.qos_snapshot(times[-1])
        assert t.status_of("a", times[-1]) is NodeStatus.ACTIVE
        t.heartbeat("a", 0, 100.0)  # restart: the sequence went far back
        assert t.node("a").detector is mon
        assert not mon.ready and mon.tuning_trace == []
        assert mon.knob_value == 0.02 == mon.detector.alpha


class TestExpiry:
    def test_expires_silent_nodes(self):
        t = MembershipTable(fixed_factory(0.5))
        feed_regular(t, "old", n=5, start=0.0)     # last beat 0.4
        feed_regular(t, "fresh", n=5, start=50.0)  # last beat 50.4
        evicted = t.expire(now=51.0, silent_for=10.0)
        assert evicted == ["old"]
        assert "old" not in t and "fresh" in t

    def test_never_heartbeat_nodes_kept(self):
        t = MembershipTable(fixed_factory())
        t.register("pending")
        assert t.expire(now=1e9, silent_for=1.0) == []
        assert "pending" in t

    def test_validation(self):
        t = MembershipTable(fixed_factory())
        with pytest.raises(ConfigurationError):
            t.expire(now=1.0, silent_for=0.0)


class TestRestartDetection:
    def test_small_regression_is_stale(self):
        t = MembershipTable(fixed_factory())
        feed_regular(t, "a", n=20)
        st = t.heartbeat("a", 15, 2.0)  # within the default reorder window
        assert st.stale_dropped == 1
        assert st.restarts == 0

    def test_large_regression_is_restart(self):
        t = MembershipTable(fixed_factory(0.5))
        feed_regular(t, "a", n=20)  # last_seq = 19
        st = t.heartbeat("a", 0, 5.0)  # way beyond any reordering
        assert st.restarts == 1
        assert st.stale_dropped == 0
        assert st.last_seq == 0  # the restart heartbeat was consumed
        assert st.heartbeats == 21

    def test_restart_resets_detector_window(self):
        t = MembershipTable(lambda nid: PhiFD(4.0, window_size=5))
        feed_regular(t, "a", n=12, interval=0.1)
        assert t.node("a").detector.ready
        t.heartbeat("a", 0, 60.0)
        # A fresh incarnation re-enters warm-up: the 60 s crash gap must
        # not pollute the inter-arrival window.
        assert not t.node("a").detector.ready
        for i in range(1, 12):
            t.heartbeat("a", i, 60.0 + 0.1 * i)
        st = t.node("a")
        assert st.detector.ready
        assert st.status(61.2) is NodeStatus.ACTIVE

    def test_restarted_node_keeps_same_detector_instance(self):
        # AccrualService bindings hold the detector object; reset() must
        # happen in place for them to follow the new incarnation.
        t = MembershipTable(lambda nid: PhiFD(4.0, window_size=5))
        feed_regular(t, "a", n=12)
        det = t.node("a").detector
        t.heartbeat("a", 0, 60.0)
        assert t.node("a").detector is det

    def test_table_restart_total(self):
        t = MembershipTable(fixed_factory())
        feed_regular(t, "a", n=20)
        feed_regular(t, "b", n=20)
        t.heartbeat("a", 0, 5.0)
        t.heartbeat("b", 1, 5.0)
        t.heartbeat("a", 1, 99.0)
        # "a" hit seq 1 after its restart consumed seq 0 — no new restart.
        assert t.restarts == 2

    def test_reorder_window_zero_treats_any_regression_as_restart(self):
        t = MembershipTable(fixed_factory(), reorder_window=0)
        feed_regular(t, "a", n=5)
        st = t.heartbeat("a", 3, 1.0)
        assert st.restarts == 1

    def test_duplicate_seq_is_stale_not_restart(self):
        t = MembershipTable(fixed_factory())
        feed_regular(t, "a", n=5)
        st = t.heartbeat("a", 4, 1.0)
        assert st.stale_dropped == 1 and st.restarts == 0

    def test_reorder_window_validation(self):
        with pytest.raises(ConfigurationError):
            MembershipTable(fixed_factory(), reorder_window=-1)

    def test_qos_accounting_restarts_with_node(self):
        t = MembershipTable(fixed_factory(0.5), account_qos=True)
        feed_regular(t, "a", n=30)
        t.heartbeat("a", 0, 100.0)
        for i in range(1, 30):
            t.heartbeat("a", i, 100.0 + 0.1 * i)
        qos = t.node("a").qos(103.0)
        # Accounting restarted cleanly with the new incarnation: the 97 s
        # crash gap is not billed as one gigantic mistake.
        assert qos.mistakes == 0
