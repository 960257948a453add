"""Live monitor: a membership table fed by the UDP listener.

Binds the transport layer (:mod:`repro.runtime.udp`) to the cluster layer
(:mod:`repro.cluster.membership`): each incoming datagram becomes a
``heartbeat()`` on the table, and status queries read the per-node
detectors at the local clock.  Thread-model: everything runs on the
asyncio event loop; no locking needed.

With ``instruments`` set, every layer reports into the observability
spine: the listener counts datagrams/malformed floods, each accepted
heartbeat increments per-node counters and inter-arrival histograms (and
optionally a full lifecycle trace event), the table surfaces status
transitions/restarts/stale drops, self-tuning detectors export their
SM(k) trajectory, and a scrape-time collector refreshes per-node gauges.
The same observer stream feeds the QoS audit plane
(:mod:`repro.obs.audit`): measured TD/MR/QAP per node, graded live
against each detector's requirements (``repro_slo_*``, ``repro audit``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.detectors.base import FailureDetector
from repro.cluster.membership import MembershipTable, NodeStatus
from repro.qos.spec import QoSReport
from repro.runtime.udp import UDPHeartbeatListener

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instruments import Instruments

__all__ = ["LiveMonitor"]


class LiveMonitor:
    """UDP-fed one-monitors-multiple failure detection monitor.

    Parameters
    ----------
    detector_factory:
        Per-node detector builder (``factory(node_id) -> FailureDetector``),
        or a registry spec string such as ``"phi:threshold=4.0,window=10"``
        (see :mod:`repro.detectors.registry`).
    bind:
        Local UDP address; port 0 picks a free port.
    clock:
        Arrival clock shared with status queries (monotonic by default).
    instruments:
        Optional :class:`repro.obs.Instruments` bundle; when given, the
        listener, table, and detectors all report into it and its
        registry gains a scrape-time collector over this monitor.

    Usage::

        monitor = LiveMonitor(lambda nid: PhiFD(3.0, window_size=100))
        await monitor.start()
        print(monitor.address)      # where senders should aim
        ...
        print(monitor.statuses())
        await monitor.stop()
    """

    def __init__(
        self,
        detector_factory: Callable[[str], FailureDetector] | str,
        *,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        clock: Callable[[], float] = time.monotonic,
        account_qos: bool = False,
        instruments: "Instruments | None" = None,
    ):
        self.clock = clock
        self.instruments = instruments
        if not callable(detector_factory):
            # Registry spec string / spec object -> per-node factory.
            from repro.detectors import registry

            detector_factory = registry.as_factory(detector_factory)
        if instruments is not None:
            detector_factory = instruments.wrap_detector_factory(detector_factory)
        self.table = MembershipTable(
            detector_factory,
            auto_register=True,
            account_qos=account_qos,
            on_transition=instruments.on_transition if instruments else None,
            on_restart=instruments.on_restart if instruments else None,
            on_stale=instruments.on_stale if instruments else None,
            on_advance=instruments.on_membership_advance if instruments else None,
        )
        self._listener = UDPHeartbeatListener(
            on_batch=self._on_batch, bind=bind, clock=clock,
            instruments=instruments,
        )
        self.received = 0
        if instruments is not None:
            instruments.bind_monitor(self)

    def _on_batch(self, batch: list[tuple[str, int, float, float]]) -> None:
        """One listener drain: feed the table heartbeat by heartbeat so
        per-node instrumentation keeps its per-heartbeat resolution.

        A heartbeat whose detector raises does not cost the other nodes
        theirs: the rest of the drain is applied and counted, and the
        first error is re-raised after the loop, so the listener reports
        it once per drain (:attr:`UDPHeartbeatListener.callback_errors`).
        """
        heartbeat = self.table.heartbeat
        instruments = self.instruments
        error: Exception | None = None
        for node_id, seq, arrival, send_time in batch:
            # The sender's wall stamp is NOT comparable to our monotonic
            # clock; detectors receive only the local arrival (Section
            # II-B: no synchronized clocks).
            try:
                state = heartbeat(node_id, seq, arrival, send_time=None)
            except Exception as exc:
                if error is None:
                    error = exc
                continue
            if instruments is not None:
                instruments.record_heartbeat(
                    node_id, seq, send_time, arrival, detector=state.detector
                )
        self.received += len(batch)
        if error is not None:
            raise error

    async def start(self) -> None:
        await self._listener.start()

    async def stop(self) -> None:
        await self._listener.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.address

    def status(self, node_id: str) -> NodeStatus:
        """Current status of one node (``UNKNOWN`` for ids never seen)."""
        return self.table.status_of(node_id, self.clock())

    def statuses(self) -> dict[str, NodeStatus]:
        """Snapshot of every known node."""
        return self.table.statuses(self.clock())

    def summary(self) -> dict[NodeStatus, int]:
        return self.table.summary(self.clock())

    def qos(self, node_id: str) -> QoSReport:
        """Measured live QoS of one node (requires ``account_qos=True``).

        Raises :class:`repro.errors.UnknownNodeError` for ids never seen —
        unlike :meth:`status`, there is no meaningful "unknown" QoS report
        to return, so the mismatch must surface to the caller.
        """
        return self.table.node(node_id).qos(self.clock())
