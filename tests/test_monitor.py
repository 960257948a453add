"""Direct unit coverage for :mod:`repro.runtime.monitor`.

The UDP integration path is exercised in test_runtime/test_obs; here the
monitor's own logic is driven directly: heartbeat→table wiring, the
monotonic-clock discipline (sender wall stamps must never reach detector
math), and the status/summary/qos query surface.
"""

import asyncio

import pytest

from repro.cluster.membership import NodeStatus
from repro.detectors import PhiFD
from repro.errors import NotWarmedUpError, UnknownNodeError
from repro.obs import Instruments
from repro.qos.spec import QoSReport
from repro.runtime import LiveMonitor


@pytest.fixture()
def run():
    def _run(coro):
        return asyncio.run(coro)

    return _run


class FakeClock:
    """Settable monotonic clock for deterministic status queries."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


def make_monitor(clock, **kw) -> LiveMonitor:
    return LiveMonitor(
        lambda nid: PhiFD(2.0, window_size=8), clock=clock, **kw
    )


def feed(monitor: LiveMonitor, node: str, n: int, *, interval: float = 1.0,
         start: float = 0.0, wall_offset: float = 1.7e9) -> float:
    """Deliver ``n`` heartbeats as the listener would: monotonic arrival
    stamps, wall-clock send stamps (deliberately incomparable)."""
    arrival = start
    for i in range(n):
        arrival = start + i * interval
        monitor._on_batch([(node, i, arrival, wall_offset + i * interval)])
    return arrival


class TestWiring:
    def test_heartbeats_reach_the_table(self):
        clock = FakeClock()
        monitor = make_monitor(clock)
        feed(monitor, "a", 5)
        assert monitor.received == 5
        state = monitor.table.node("a")
        assert state.heartbeats == 5
        assert state.last_seq == 4
        assert state.last_arrival == 4.0

    def test_wall_stamps_never_reach_detector_math(self):
        """Arrivals are monotonic, send stamps are wall-clock epoch values;
        if the monitor leaked the stamp into the detector, the estimated
        inter-arrival would be ~1.7e9 s, not the true 1 s cadence."""
        clock = FakeClock()
        monitor = make_monitor(clock)
        feed(monitor, "a", 10, interval=1.0)
        mu, sigma = monitor.table.node("a").detector.interarrival_stats()
        assert mu == pytest.approx(1.0)
        assert sigma < 1.0

    def test_instrumented_monitor_counts_heartbeats(self):
        ins = Instruments()
        monitor = make_monitor(FakeClock(), instruments=ins)
        feed(monitor, "a", 3)
        snap = ins.registry.snapshot(run_collectors=False)
        assert snap.get("repro_heartbeats_received_total", "a") == 3.0
        # inter-arrival histogram saw the gaps (n-1 of them)
        assert snap.get("repro_heartbeat_interarrival_seconds", "a").count == 2


class TestQueries:
    def test_status_follows_the_query_clock(self):
        clock = FakeClock()
        monitor = make_monitor(clock)
        last = feed(monitor, "a", 10, interval=1.0)

        clock.now = last + 0.1  # on schedule
        assert monitor.status("a") is NodeStatus.ACTIVE
        assert monitor.statuses() == {"a": NodeStatus.ACTIVE}

        clock.now = last + 500.0  # long silence
        assert monitor.status("a") in (NodeStatus.SUSPECT, NodeStatus.DEAD)

    def test_summary_counts_by_status(self):
        clock = FakeClock()
        monitor = make_monitor(clock)
        last = feed(monitor, "a", 10)
        feed(monitor, "b", 2)  # still warming up
        clock.now = last + 0.1
        summary = monitor.summary()
        assert summary[NodeStatus.ACTIVE] == 1
        assert summary[NodeStatus.UNKNOWN] == 1
        assert sum(summary.values()) == 2

    def test_unknown_node_contract(self):
        """status() answers UNKNOWN for ids never seen; qos() raises
        UnknownNodeError (also catchable as LookupError) — there is no
        meaningful QoS report to fabricate."""
        monitor = make_monitor(FakeClock())
        assert monitor.status("ghost") is NodeStatus.UNKNOWN
        with pytest.raises(UnknownNodeError) as exc:
            monitor.qos("ghost")
        assert exc.value.node_id == "ghost"
        with pytest.raises(LookupError):
            monitor.qos("ghost")

    def test_qos_disabled_vs_enabled(self):
        clock = FakeClock()
        plain = make_monitor(clock)
        feed(plain, "a", 10)
        with pytest.raises(NotWarmedUpError):
            plain.qos("a")  # known node, accounting off

        accounted = make_monitor(clock, account_qos=True)
        last = feed(accounted, "a", 20)
        clock.now = last + 0.5
        report = accounted.qos("a")
        assert isinstance(report, QoSReport)
        assert report.samples > 0


class TestLifecycle:
    def test_start_stop_and_address(self, run):
        async def main():
            monitor = make_monitor(FakeClock())
            await monitor.start()
            host, port = monitor.address
            await monitor.stop()
            return host, port

        host, port = run(main())
        assert host == "127.0.0.1"
        assert port > 0
