"""Live asyncio/UDP runtime: codec, endpoints, monitor, service."""

import asyncio
import time

import pytest

from repro.errors import ConfigurationError
from repro.core.accrual import ActionBinding
from repro.cluster.membership import NodeStatus
from repro.detectors import PhiFD
from repro.runtime import (
    HEARTBEAT_SIZE,
    FailureDetectionService,
    LiveMonitor,
    UDPHeartbeatListener,
    UDPHeartbeatSender,
    pack_heartbeat,
    unpack_heartbeat,
)


class TestCodec:
    def test_roundtrip(self):
        data = pack_heartbeat("node-a", 42, 123.456)
        assert len(data) == HEARTBEAT_SIZE
        assert unpack_heartbeat(data) == ("node-a", 42, 123.456)

    def test_max_length_id(self):
        nid = "x" * 16
        assert unpack_heartbeat(pack_heartbeat(nid, 0, 0.0))[0] == nid

    def test_id_validation(self):
        with pytest.raises(ConfigurationError):
            pack_heartbeat("", 0, 0.0)
        with pytest.raises(ConfigurationError):
            pack_heartbeat("x" * 17, 0, 0.0)

    def test_seq_validation(self):
        with pytest.raises(ConfigurationError):
            pack_heartbeat("a", -1, 0.0)

    def test_unpack_rejects_wrong_size(self):
        with pytest.raises(ConfigurationError):
            unpack_heartbeat(b"short")


@pytest.fixture()
def run():
    """Run a coroutine to completion on a fresh event loop."""

    def _run(coro):
        return asyncio.run(coro)

    return _run


class TestEndpoints:
    def test_sender_to_listener(self, run):
        async def main():
            got = []
            listener = UDPHeartbeatListener(
                lambda batch: got.extend((nid, seq) for nid, seq, _, _ in batch)
            )
            await listener.start()
            sender = UDPHeartbeatSender("peer", listener.address, interval=0.01)
            await sender.start()
            await asyncio.sleep(0.15)
            await sender.stop()
            await listener.stop()
            return got, sender.sent

        got, sent = run(main())
        assert sent >= 5
        assert len(got) >= 5
        assert all(nid == "peer" for nid, _ in got)
        seqs = [s for _, s in got]
        assert seqs == sorted(seqs)

    def test_listener_rejects_malformed(self, run):
        async def main():
            listener = UDPHeartbeatListener(lambda batch: None)
            await listener.start()
            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=listener.address
            )
            transport.sendto(b"garbage")
            await asyncio.sleep(0.05)
            malformed = listener.malformed
            transport.close()
            await listener.stop()
            return malformed

        assert run(main()) == 1

    def test_listener_address_requires_start(self):
        listener = UDPHeartbeatListener(lambda batch: None)
        with pytest.raises(ConfigurationError):
            _ = listener.address

    def test_sender_interval_validation(self):
        with pytest.raises(ConfigurationError):
            UDPHeartbeatSender("a", ("127.0.0.1", 1), interval=0.0)


class TestLiveMonitor:
    def test_statuses_through_lifecycle(self, run):
        async def main():
            monitor = LiveMonitor(lambda nid: PhiFD(2.0, window_size=16))
            await monitor.start()
            sender = UDPHeartbeatSender("n1", monitor.address, interval=0.01)
            await sender.start()
            await asyncio.sleep(0.4)
            alive = monitor.status("n1")
            await sender.stop()  # crash-stop
            await asyncio.sleep(0.4)
            dead = monitor.status("n1")
            summary = monitor.summary()
            await monitor.stop()
            return alive, dead, summary, monitor.received

        alive, dead, summary, received = run(main())
        assert alive is NodeStatus.ACTIVE
        assert dead in (NodeStatus.SUSPECT, NodeStatus.DEAD)
        assert received >= 16
        assert sum(summary.values()) == 1

    def test_unknown_peer_status(self):
        monitor = LiveMonitor(lambda nid: PhiFD(2.0, window_size=16))
        assert monitor.status("ghost") is NodeStatus.UNKNOWN


class TestService:
    def test_bindings_and_status(self, run):
        async def main():
            events = []
            async with FailureDetectionService(
                lambda nid: PhiFD(2.0, window_size=16), poll_interval=0.02
            ) as svc:
                svc.bind(
                    "n1",
                    ActionBinding(
                        "pager",
                        threshold=4.0,
                        on_suspect=lambda n, lvl: events.append(n),
                    ),
                )
                sender = UDPHeartbeatSender("n1", svc.address, interval=0.01)
                await sender.start()
                await asyncio.sleep(0.4)
                status_alive = svc.peer_status("n1")
                await sender.stop()
                await asyncio.sleep(0.5)
                status_dead = svc.peer_status("n1")
                peers = svc.peers()
            return events, status_alive, status_dead, peers

        events, alive, dead, peers = run(main())
        assert alive.status is NodeStatus.ACTIVE
        assert alive.heartbeats >= 16
        assert dead.suspicion > alive.suspicion
        assert "pager" in events  # callback fired on the crash
        assert peers == ["n1"]

    def test_unknown_peer_rejected(self, run):
        async def main():
            async with FailureDetectionService(
                lambda nid: PhiFD(2.0, window_size=8)
            ) as svc:
                with pytest.raises(ConfigurationError):
                    svc.peer_status("ghost")

        run(main())

    def test_poll_interval_validation(self):
        with pytest.raises(ConfigurationError):
            FailureDetectionService(
                lambda nid: PhiFD(2.0, window_size=8), poll_interval=0.0
            )


class TestLiveQoS:
    def test_monitor_reports_measured_qos(self, run):
        async def main():
            monitor = LiveMonitor(
                lambda nid: PhiFD(2.0, window_size=16), account_qos=True
            )
            await monitor.start()
            sender = UDPHeartbeatSender("n1", monitor.address, interval=0.01)
            await sender.start()
            await asyncio.sleep(0.5)
            qos = monitor.qos("n1")
            await sender.stop()
            await monitor.stop()
            return qos

        qos = run(main())
        assert qos.samples > 10
        assert 0.0 <= qos.query_accuracy <= 1.0
        # TD proxy on a calm localhost link ~ one inter-arrival + margin.
        assert 0.0 < qos.detection_time < 1.0


class TestSFDOverUDP:
    def test_sfd_runs_live(self, run):
        """SFD deployed unmodified in the real UDP runtime: warms up,
        self-accounts, exposes its tuned margin."""
        from repro.core import SFD, SlotConfig
        from repro.qos.spec import QoSRequirements

        req = QoSRequirements(
            max_detection_time=0.5,
            max_mistake_rate=5.0,
            min_query_accuracy=0.5,
        )

        async def main():
            monitor = LiveMonitor(
                lambda nid: SFD(
                    req,
                    sm1=0.05,
                    window_size=24,
                    slot=SlotConfig(12, reset_on_adjust=True, min_slots=2),
                )
            )
            await monitor.start()
            sender = UDPHeartbeatSender("svc", monitor.address, interval=0.01)
            await sender.start()
            await asyncio.sleep(0.8)
            st = monitor.status("svc")
            fd = monitor.table.node("svc").detector
            margin = fd.safety_margin
            trace_len = len(fd.tuning_trace)
            await sender.stop()
            await monitor.stop()
            return st, margin, trace_len

        status, margin, trace_len = run(main())
        assert status is NodeStatus.ACTIVE
        assert margin >= 0.0
        assert trace_len >= 1  # the feedback loop actually ran live


class TestSenderHardening:
    def test_absolute_deadline_pacing(self, run):
        """Emitted count tracks elapsed/interval: sleeping a fixed interval
        *after* each send would lose one period's worth of overhead drift."""

        async def main():
            listener = UDPHeartbeatListener(lambda batch: None)
            await listener.start()
            sender = UDPHeartbeatSender("p", listener.address, interval=0.02)
            await sender.start()
            await asyncio.sleep(0.5)
            await sender.stop()
            await listener.stop()
            return sender.sent

        sent = run(main())
        assert 20 <= sent <= 28  # ideal 25-26; pure drift would trail off

    def test_sender_survives_transport_closed_underneath(self, run):
        async def main():
            got = []
            listener = UDPHeartbeatListener(
                lambda batch: got.extend(seq for _, seq, _, _ in batch)
            )
            await listener.start()
            sender = UDPHeartbeatSender("p", listener.address, interval=0.02)
            await sender.start()
            await asyncio.sleep(0.1)
            # Yank the socket out from under the running sender.
            sender._protocol.transport.close()
            await asyncio.sleep(0.3)
            await sender.stop()
            await listener.stop()
            return got, sender.reopens, sender.send_errors

        got, reopens, send_errors = run(main())
        assert reopens >= 1
        assert send_errors >= 1
        assert len(got) >= 8  # heartbeats kept flowing after the reopen

    def test_reopen_backoff_validation(self):
        with pytest.raises(ConfigurationError):
            UDPHeartbeatSender("a", ("127.0.0.1", 1), reopen_backoff_max=0.0)


class TestListenerHardening:
    def test_malformed_flood_rate_limited(self, run):
        async def main():
            got = []
            listener = UDPHeartbeatListener(
                lambda batch: got.extend(seq for _, seq, _, _ in batch),
                malformed_limit=50,
            )
            await listener.start()
            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=listener.address
            )
            for burst in range(4):
                for _ in range(30):
                    transport.sendto(b"garbage")
                await asyncio.sleep(0.02)  # yield so the kernel buffer drains
            transport.sendto(pack_heartbeat("ok", 7, 1.0))
            await asyncio.sleep(0.2)
            transport.close()
            out = (got, listener.malformed, listener.malformed_suppressed)
            await listener.stop()
            return out

        got, malformed, suppressed = run(main())
        assert got == [7]  # valid traffic survives the flood
        assert malformed == 50  # individually accounted up to the cap
        assert suppressed == 70  # the tail is only bulk-counted

    def test_consumer_exception_does_not_kill_listener(self, run):
        async def main():
            got = []

            def consumer(batch):
                if any(seq == 0 for _, seq, _, _ in batch):
                    raise RuntimeError("faulty consumer")
                got.extend(seq for _, seq, _, _ in batch)

            listener = UDPHeartbeatListener(consumer)
            await listener.start()
            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=listener.address
            )
            transport.sendto(pack_heartbeat("p", 0, 0.0))
            await asyncio.sleep(0.05)  # separate drains: the raise loses one
            transport.sendto(pack_heartbeat("p", 1, 0.0))
            await asyncio.sleep(0.1)
            transport.close()
            out = (got, listener.callback_errors)
            await listener.stop()
            return out

        got, errors = run(main())
        assert got == [1]
        assert errors == 1

    def test_malformed_limit_validation(self):
        with pytest.raises(ConfigurationError):
            UDPHeartbeatListener(lambda batch: None, malformed_limit=0)


class TestServiceHardening:
    def test_faulty_binding_does_not_kill_poller(self, run):
        async def main():
            fired = []

            def bad_callback(name, level):
                raise RuntimeError("user bug")

            async with FailureDetectionService(
                lambda nid: PhiFD(2.0, window_size=16), poll_interval=0.02
            ) as svc:
                svc.bind("n1", ActionBinding("bad", 0.5, on_suspect=bad_callback))
                svc.bind(
                    "n2",
                    ActionBinding(
                        "good", 0.5, on_suspect=lambda n, lvl: fired.append(n)
                    ),
                )
                s1 = UDPHeartbeatSender("n1", svc.address, interval=0.01)
                s2 = UDPHeartbeatSender("n2", svc.address, interval=0.01)
                await s1.start()
                await s2.start()
                await asyncio.sleep(0.4)
                await s1.stop()  # n1's binding will throw when it suspects
                await s2.stop()
                await asyncio.sleep(0.5)
                errors = svc.binding_errors
                last = svc.last_binding_error
                poller_alive = not svc._poller.done()
            return fired, errors, last, poller_alive

        fired, errors, last, poller_alive = run(main())
        assert errors >= 1
        assert last[0] == "n1" and "user bug" in last[1]
        assert poller_alive  # the poll loop survived the faulty callback
        assert "good" in fired  # and other bindings kept being served

    def test_restart_surfaces_in_peer_status(self, run):
        # The verdict is read at the second incarnation's last arrival,
        # through the service's clock: read at whatever instant the event
        # loop reaches the query, φ on a loaded host can pass SLOW's bound.
        frozen: list[float] = []

        def clock() -> float:
            return frozen[0] if frozen else time.monotonic()

        async def main():
            async with FailureDetectionService(
                lambda nid: PhiFD(2.0, window_size=8),
                poll_interval=0.02,
                clock=clock,
            ) as svc:
                s1 = UDPHeartbeatSender("n1", svc.address, interval=0.01)
                await s1.start()
                await asyncio.sleep(0.3)
                await s1.stop()
                s2 = UDPHeartbeatSender("n1", svc.address, interval=0.01)
                await s2.start()  # fresh incarnation: sequence resets to 0
                await asyncio.sleep(0.3)
                state = svc.monitor.table.node("n1")
                give_up = time.monotonic() + 10.0
                while not (state.restarts and state.detector.ready):
                    assert time.monotonic() < give_up, "no second incarnation"
                    await asyncio.sleep(0.01)
                frozen.append(state.detector.last_arrival)
                status = svc.peer_status("n1")
                frozen.clear()
                await s2.stop()
            return status

        status = run(main())
        assert status.restarts == 1
        assert status.status is NodeStatus.ACTIVE
