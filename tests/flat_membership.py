"""The flat membership table: parity oracle for :class:`MembershipTable`.

Every query re-classifies every node with :meth:`NodeState.status` — no
deadline wheel, no maintained snapshot, no expiry heap — so its answers
are the classification ladder applied by brute force.  The production
table must reproduce them verdict for verdict (``tests/test_sharded.py``).
Heartbeat admission, restart adoption and QoS accounting are written out
independently of the production table, so a shared bug cannot hide.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigurationError
from repro.detectors.base import FailureDetector
from repro.cluster.membership import NodeState, NodeStatus
from repro.qos.metrics import MistakeAccumulator

__all__ = ["FlatMembershipTable"]


class FlatMembershipTable:
    """O(nodes)-per-query, auto-registering membership table with the
    production table's query API."""

    def __init__(
        self,
        detector_factory: Callable[[str], FailureDetector],
        *,
        account_qos: bool = False,
        reorder_window: int = 8,
        on_transition: Callable[[str, NodeStatus, NodeStatus, float], None]
        | None = None,
    ):
        self._factory = detector_factory
        self._account = account_qos
        self._reorder_window = int(reorder_window)
        self._on_transition = on_transition
        self._nodes: dict[str, NodeState] = {}

    def heartbeat(
        self, node_id: str, seq: int, arrival: float, send_time: float | None = None
    ) -> NodeState:
        state = self._nodes.get(node_id)
        if state is None:
            state = NodeState(node_id=node_id, detector=self._factory(node_id))
            self._nodes[node_id] = state
        if seq <= state.last_seq:
            if state.last_seq - seq <= self._reorder_window:
                state.stale_dropped += 1
                return state
            self._mark_restarted(state)
        det = state.detector
        was_ready = det.ready
        if self._account and was_ready and state.accounting is not None:
            start = max(det.freshness_point(), state.last_arrival)
            if arrival > start:
                state.accounting.add_mistake(start, arrival)
        det.observe(seq, arrival, send_time)
        state.last_seq = seq
        state.last_arrival = arrival
        state.heartbeats += 1
        if self._account and det.ready:
            if not was_ready:
                state.accounting = MistakeAccumulator(t_begin=arrival)
            origin = send_time if send_time is not None else arrival
            state.accounting.add_detection_sample(det.freshness_point() - origin)
        self._classify(state, arrival)
        return state

    def heartbeat_batch(
        self, batch: list[tuple[str, int, float, float | None]]
    ) -> int:
        accepted = 0
        for node_id, seq, arrival, send_time in batch:
            before = self._nodes.get(node_id)
            count = before.heartbeats if before is not None else 0
            if self.heartbeat(node_id, seq, arrival, send_time).heartbeats != count:
                accepted += 1
        return accepted

    def _mark_restarted(self, state: NodeState) -> None:
        state.restarts += 1
        try:
            state.detector.reset()
        except NotImplementedError:
            state.detector = self._factory(state.node_id)
        state.last_seq = -1
        state.last_arrival = math.nan
        state.accounting = None

    @property
    def restarts(self) -> int:
        return sum(st.restarts for st in self._nodes.values())

    def nodes(self) -> tuple[NodeState, ...]:
        return tuple(self._nodes.values())

    def _classify(self, state: NodeState, now: float) -> NodeStatus:
        status = state.status(now)
        if status is not state.last_status:
            if self._on_transition is not None:
                self._on_transition(state.node_id, state.last_status, status, now)
            state.last_status = status
        return status

    def status_of(self, node_id: str, now: float) -> NodeStatus:
        state = self._nodes.get(node_id)
        if state is None:
            return NodeStatus.UNKNOWN
        return self._classify(state, now)

    def statuses(self, now: float) -> dict[str, NodeStatus]:
        return {nid: self._classify(st, now) for nid, st in self._nodes.items()}

    def summary(self, now: float) -> dict[NodeStatus, int]:
        out = {status: 0 for status in NodeStatus}
        for st in self._nodes.values():
            out[self._classify(st, now)] += 1
        return out

    def select(self, now: float, status: NodeStatus) -> list[str]:
        return [
            nid for nid, st in self._nodes.items()
            if self._classify(st, now) is status
        ]

    def expire(self, now: float, *, silent_for: float) -> list[str]:
        if silent_for <= 0:
            raise ConfigurationError(f"silent_for must be > 0, got {silent_for!r}")
        stale = sorted(
            nid
            for nid, st in self._nodes.items()
            if st.heartbeats > 0 and now - st.last_arrival > silent_for
        )
        for nid in stale:
            del self._nodes[nid]
        return stale
