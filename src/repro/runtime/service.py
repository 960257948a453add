"""Failure detection service facade (Section II-B: "every process has
access to a failure detection service").

:class:`FailureDetectionService` is the deployable front door: it owns a
:class:`~repro.runtime.monitor.LiveMonitor`, lets applications register
accrual threshold bindings per peer (Section IV-C1's interpretation
layer), and periodically polls bindings so edge callbacks fire without the
application having to schedule anything.  It is an async context manager::

    async with FailureDetectionService(lambda nid: PhiFD(2.0, window_size=64)) as svc:
        svc.bind("node-a", ActionBinding("pager", threshold=4.0, on_suspect=page))
        ...
        print(svc.peer_status("node-a"))
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, UnknownNodeError
from repro.detectors.base import FailureDetector
from repro.core.accrual import AccrualService, ActionBinding
from repro.cluster.membership import NodeStatus
from repro.runtime.monitor import LiveMonitor

__all__ = ["PeerStatus", "FailureDetectionService"]


@dataclass(frozen=True, slots=True)
class PeerStatus:
    """Point-in-time view of one monitored peer."""

    node_id: str
    status: NodeStatus
    suspicion: float
    heartbeats: int
    last_arrival: float
    restarts: int = 0


class FailureDetectionService:
    """UDP failure-detection service with accrual interpretation.

    Parameters
    ----------
    detector_factory:
        Per-peer detector builder, or a registry spec string such as
        ``"sfd:td=0.9,mr=0.35,qap=0.99"`` (the owned
        :class:`LiveMonitor` resolves it via
        :mod:`repro.detectors.registry`).
    bind:
        UDP bind address (port 0 = ephemeral).
    poll_interval:
        Period of the binding-callback poll loop, seconds.
    clock:
        Shared local clock.
    instruments:
        Optional :class:`repro.obs.Instruments` bundle, forwarded to the
        owned :class:`LiveMonitor`.
    """

    def __init__(
        self,
        detector_factory: Callable[[str], FailureDetector] | str,
        *,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        poll_interval: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        instruments=None,
    ):
        if poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be > 0, got {poll_interval!r}"
            )
        self.monitor = LiveMonitor(
            detector_factory, bind=bind, clock=clock, instruments=instruments
        )
        self.poll_interval = float(poll_interval)
        self.clock = clock
        self.binding_errors = 0
        self.last_binding_error: tuple[str, str] | None = None
        self._accruals: dict[str, AccrualService] = {}
        self._poller: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------ #

    async def start(self) -> None:
        await self.monitor.start()
        self._poller = asyncio.create_task(self._poll_loop(), name="fd-service-poll")

    async def stop(self) -> None:
        if self._poller is not None:
            self._poller.cancel()
            try:
                await self._poller
            except asyncio.CancelledError:
                pass
            self._poller = None
        await self.monitor.stop()

    async def __aenter__(self) -> "FailureDetectionService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """Where senders should aim their heartbeats."""
        return self.monitor.address

    # -- interpretation layer ------------------------------------------- #

    def bind(self, node_id: str, binding: ActionBinding) -> None:
        """Attach an application threshold/callback to one peer."""
        svc = self._accruals.get(node_id)
        if svc is None:
            state = self.monitor.table.register(node_id)
            svc = AccrualService(state.detector)
            self._accruals[node_id] = svc
        svc.bind(binding)

    async def _poll_loop(self) -> None:
        while True:
            now = self.clock()
            for node_id, svc in list(self._accruals.items()):
                if not svc.detector.ready:
                    continue
                try:
                    svc.poll(now)
                except Exception as exc:
                    # One faulty application callback must not kill the
                    # poller for every other binding on every other peer.
                    self.binding_errors += 1
                    self.last_binding_error = (
                        node_id,
                        f"{type(exc).__name__}: {exc}",
                    )
            await asyncio.sleep(self.poll_interval)

    # -- queries ---------------------------------------------------------#

    def peer_status(self, node_id: str) -> PeerStatus:
        """Full live view of one peer.

        Raises :class:`repro.errors.UnknownNodeError` for ids never seen.
        """
        if node_id not in self.monitor.table:
            raise UnknownNodeError(node_id)
        state = self.monitor.table.node(node_id)
        now = self.clock()
        level = state.detector.suspicion(now) if state.detector.ready else 0.0
        return PeerStatus(
            node_id=node_id,
            # Through the table, not state.status(): the classification
            # choke point keeps the table's snapshot/epoch consistent and
            # surfaces the transition edge to observers.
            status=self.monitor.table.status_of(node_id, now),
            suspicion=level,
            heartbeats=state.heartbeats,
            last_arrival=state.last_arrival,
            restarts=state.restarts,
        )

    def peers(self) -> list[str]:
        return [st.node_id for st in self.monitor.table.nodes()]

    def summary(self) -> dict[NodeStatus, int]:
        return self.monitor.summary()
