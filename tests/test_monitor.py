"""Direct unit coverage for :mod:`repro.runtime.monitor`.

The UDP integration path is exercised in test_runtime/test_obs; here the
monitor's own logic is driven directly: heartbeat→table wiring, the
monotonic-clock discipline (sender wall stamps must never reach detector
math), and the status/summary/qos query surface.
"""

import asyncio
from collections import deque

import pytest

from repro.cluster.membership import NodeStatus
from repro.detectors import PhiFD
from repro.errors import NotWarmedUpError, UnknownNodeError
from repro.obs import Instruments
from repro.qos.spec import QoSReport
from repro.runtime import LiveMonitor
from repro.runtime.udp import pack_heartbeat


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


class FakeSocket:
    """Non-blocking socket stand-in for one drain: its datagrams, then
    ``BlockingIOError``, as ``recvfrom`` on an emptied socket raises."""

    def __init__(self, datagrams):
        self._queue = deque(datagrams)

    def recvfrom(self, _size):
        if not self._queue:
            raise BlockingIOError
        return self._queue.popleft(), ("127.0.0.1", 0)


class TestRaisingDetector:
    """One node's detector raising mid-drain must not cost the other nodes
    of that drain their heartbeats, nor leave the raising node's table
    entry behind what its detector consumed."""

    #: Node ``a`` arrives 0.5 s late on odd sequences; under these targets
    #: its feedback loop gives up (``policy=raise``) at the slot close of
    #: its seq-4 heartbeat, after the detector consumed it.
    SPEC = "sfd:window=2,slot=2,td=0.0001,mr=0.0,qap=1.0,policy=raise"

    def test_rest_of_drain_is_applied_and_error_counted_once(self):
        drains = [
            [("a", k, k + (0.5 if k % 2 else 0.0)), ("b", k, k + 0.001),
             ("c", k, k + 0.002)]
            for k in range(5)
        ]
        # Then a UDP duplicate of a's seq 4, drained with b's next beat.
        drains.append([("a", 4, 4.6), ("b", 5, 5.001)])
        stamps = iter([at for drain in drains for _, _, at in drain])
        monitor = LiveMonitor(
            self.SPEC, clock=lambda: next(stamps), account_qos=True
        )
        listener = monitor._listener
        errors = []
        for drain in drains:
            listener._sock = FakeSocket(
                pack_heartbeat(node, seq, 0.0) for node, seq, _ in drain
            )
            listener._drain()
            errors.append(listener.callback_errors)
        listener._sock = None

        assert errors == [0, 0, 0, 0, 1, 1]
        assert monitor.received == 17
        for node, last_seq in (("a", 4), ("b", 5), ("c", 4)):
            state = monitor.table.node(node)
            assert state.last_seq == last_seq, node
            assert state.heartbeats == state.detector.observed == last_seq + 1
        a = monitor.table.node("a")
        assert a.stale_dropped == 1
        # The raising heartbeat was booked in full: the table's QoS
        # accounting still equals the detector's own.
        assert a.qos(5.0) == a.detector.qos_snapshot(5.0)


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
