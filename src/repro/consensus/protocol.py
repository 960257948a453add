"""Rotating-coordinator consensus driven by a failure detector.

The protocol is Chandra & Toueg's ◊S consensus (PODC'91/JACM'96) in its
standard simplified form, adapted to lossy channels via retransmission:

Round ``r`` has coordinator ``c = r mod n``.

1. *Estimate.* Every process sends ``ESTIMATE(r, est, ts)`` to ``c``
   (retransmitted each tick while in round ``r``).
2. *Propose.* When ``c`` holds estimates from a majority for round ``r``,
   it picks the estimate with the highest timestamp and broadcasts
   ``PROPOSE(r, v)`` (retransmitted while it lacks an ack majority).
3. *Ack / suspect.* A process in round ``r`` that receives the proposal
   adopts it (``est = v, ts = r``) and acks.  If instead its **failure
   detector** suspects the coordinator, it advances to round ``r+1`` —
   this is the only place the FD is consulted, exactly as in ◊S.
4. *Decide.* On a majority of acks, ``c`` broadcasts ``DECIDE(v)``;
   the first ``DECIDE`` a process receives is relayed to everyone
   (reliable broadcast under crash of the relayer) and decides it.

Safety (validity + agreement) comes from the majority-locking argument of
CT96 and holds for *any* detector output; the failure detector only
affects liveness, which is what lets every detector in this library slot
in unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.errors import ConfigurationError
from repro.detectors.base import FailureDetector
from repro.cluster.membership import MembershipTable, NodeStatus
from repro.sim.crash import CrashPlan
from repro.sim.engine import Simulator

__all__ = ["MessageKind", "ConsensusMessage", "Ballot", "ConsensusProcess"]


class MessageKind(enum.Enum):
    HEARTBEAT = "heartbeat"
    ESTIMATE = "estimate"
    PROPOSE = "propose"
    ACK = "ack"
    DECIDE = "decide"


@dataclass(frozen=True, slots=True)
class ConsensusMessage:
    """One protocol message (also carries the heartbeat traffic)."""

    kind: MessageKind
    sender: int
    round: int = -1
    value: Any = None
    ts: int = -1  # estimate timestamp (round of last adoption)
    seq: int = -1  # heartbeat sequence
    send_time: float = 0.0


@dataclass
class Ballot:
    """Coordinator-side state for one round."""

    estimates: dict[int, tuple[Any, int]] = field(default_factory=dict)
    proposal: Any = None
    acks: set[int] = field(default_factory=set)
    decided_sent: bool = False


class ConsensusProcess:
    """One consensus participant (and potential coordinator).

    Parameters
    ----------
    sim:
        Hosting simulator.
    pid, n:
        This process's id in ``0..n-1`` and the group size.
    initial_value:
        The value this process proposes (validity: any decision is some
        process's initial value).
    send:
        Transport callback ``send(dest_pid, message)`` — the cluster wires
        it to the unreliable links.
    detector_factory:
        Builds the per-peer failure detector, ``factory(peer_pid)``.
    crash:
        Ground-truth crash plan; a crashed process ignores everything.
    heartbeat_interval, retry_interval:
        Cadence of heartbeats and of protocol retransmissions.
    startup_timeout:
        A failure detector cannot suspect a peer it has never heard enough
        from (its window never fills).  If the current coordinator's
        detector is still warming up this long after the round began, the
        coordinator is presumed dead and the round advances — the standard
        bootstrap guard every FD-based protocol deploys alongside the
        detector proper.
    """

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        n: int,
        initial_value: Hashable,
        send: Callable[[int, ConsensusMessage], None],
        detector_factory: Callable[[int], FailureDetector],
        *,
        crash: CrashPlan | None = None,
        heartbeat_interval: float = 0.05,
        retry_interval: float = 0.2,
        startup_timeout: float = 2.0,
        start: float = 0.0,
    ):
        if n < 2:
            raise ConfigurationError("consensus needs at least 2 processes")
        if not (0 <= pid < n):
            raise ConfigurationError(f"pid {pid} out of range for n={n}")
        if heartbeat_interval <= 0 or retry_interval <= 0:
            raise ConfigurationError("intervals must be positive")
        self.sim = sim
        self.pid = pid
        self.n = n
        self.send = send
        self.crash = crash if crash is not None else CrashPlan.never()
        self.heartbeat_interval = heartbeat_interval
        self.retry_interval = retry_interval
        self.startup_timeout = startup_timeout
        #: When the protocol proper begins (heartbeats flow from t=0, so a
        #: long-lived detection service can already be warm when consensus
        #: is invoked — the deployment the paper's Section II-B describes).
        self.start = max(float(start), 0.0)
        self._round_started = self.start
        # CT state.
        self.estimate: Any = initial_value
        self.ts = 0
        self.round = 0
        self.decided: Any = None
        self.decided_at: float | None = None
        self.rounds_started = 1
        # Coordinator state per round.
        self._ballots: dict[int, Ballot] = {}
        # Per-peer failure detectors, hosted in a membership table so
        # coordinator consultation reads a maintained status snapshot
        # (reorder/restart handling comes with it for free).  Peers are
        # keyed by their stringified pid.
        self.membership = MembershipTable(
            lambda peer_id: detector_factory(int(peer_id)),
            auto_register=False,
        )
        for p in range(n):
            if p != pid:
                self.membership.register(str(p))
        self._hb_seq = 0
        sim.schedule(0.0, self._heartbeat_tick)
        sim.schedule_at(self.start, self._protocol_tick)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        return self.crash.alive_at(self.sim.now)

    @property
    def detectors(self) -> dict[int, FailureDetector]:
        """Per-peer detector instances (compatibility view over the
        membership table)."""
        return {
            int(state.node_id): state.detector
            for state in self.membership.nodes()
        }

    def coordinator(self, rnd: int) -> int:
        return rnd % self.n

    def _majority(self) -> int:
        return self.n // 2 + 1

    def _broadcast(self, msg: ConsensusMessage) -> None:
        for p in range(self.n):
            if p != self.pid:
                self.send(p, msg)
        # Local delivery is immediate and loss-free (a process can always
        # talk to itself).
        self.deliver(msg)

    def _ballot(self, rnd: int) -> Ballot:
        b = self._ballots.get(rnd)
        if b is None:
            b = Ballot()
            self._ballots[rnd] = b
        return b

    # ------------------------------------------------------------------ #
    # periodic activity
    # ------------------------------------------------------------------ #

    def _heartbeat_tick(self) -> None:
        if not self.alive:
            return  # crash-stop: silence forever
        msg = ConsensusMessage(
            kind=MessageKind.HEARTBEAT,
            sender=self.pid,
            seq=self._hb_seq,
            send_time=self.sim.now,
        )
        self._hb_seq += 1
        for p in range(self.n):
            if p != self.pid:
                self.send(p, msg)
        self.sim.schedule(self.heartbeat_interval, self._heartbeat_tick)

    def _protocol_tick(self) -> None:
        if not self.alive:
            return
        now = self.sim.now
        if self.decided is not None:
            # Keep relaying the decision (reliable broadcast completion).
            self._broadcast(
                ConsensusMessage(
                    kind=MessageKind.DECIDE, sender=self.pid, value=self.decided
                )
            )
        else:
            coord = self.coordinator(self.round)
            # FD consultation (the only one): abandon a suspected
            # coordinator.  SUSPECT/DEAD on the table's classification
            # ladder is exactly ``fd.ready and fd.suspects(now)`` (level
            # above the binary threshold), so the snapshot consultation
            # matches the raw-detector one verdict for verdict.
            if coord != self.pid:
                status = self.membership.status_of(str(coord), now)
                suspected = status in (NodeStatus.SUSPECT, NodeStatus.DEAD)
                never_heard = (
                    status is NodeStatus.UNKNOWN
                    and now - self._round_started > self.startup_timeout
                )
                if suspected or never_heard:
                    self._advance_round()
                    coord = self.coordinator(self.round)
            # Retransmit this round's estimate toward the coordinator.
            est = ConsensusMessage(
                kind=MessageKind.ESTIMATE,
                sender=self.pid,
                round=self.round,
                value=self.estimate,
                ts=self.ts,
            )
            if coord == self.pid:
                self.deliver(est)
            else:
                self.send(coord, est)
            # A coordinator with a live proposal keeps pushing it.
            b = self._ballots.get(self.round)
            if (
                b is not None
                and b.proposal is not None
                and self.coordinator(self.round) == self.pid
            ):
                self._broadcast(
                    ConsensusMessage(
                        kind=MessageKind.PROPOSE,
                        sender=self.pid,
                        round=self.round,
                        value=b.proposal,
                    )
                )
        self.sim.schedule(self.retry_interval, self._protocol_tick)

    def _advance_round(self) -> None:
        self.round += 1
        self.rounds_started += 1
        self._round_started = self.sim.now

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #

    def deliver(self, msg: ConsensusMessage) -> None:
        """Transport delivery callback (also used for self-delivery)."""
        if not self.alive:
            return
        if msg.kind is MessageKind.HEARTBEAT:
            peer = str(msg.sender)
            if peer in self.membership:
                # The table resolves transport reordering (stale drop
                # within the reorder window, restart adoption beyond it)
                # before the detector sees the sequence.
                self.membership.heartbeat(
                    peer, msg.seq, self.sim.now, msg.send_time
                )
            return
        if msg.kind is MessageKind.DECIDE:
            if self.decided is None:
                self.decided = msg.value
                self.decided_at = self.sim.now
                self._broadcast(
                    ConsensusMessage(
                        kind=MessageKind.DECIDE, sender=self.pid, value=msg.value
                    )
                )
            return
        if self.decided is not None:
            return
        if msg.kind is MessageKind.ESTIMATE:
            self._on_estimate(msg)
        elif msg.kind is MessageKind.PROPOSE:
            self._on_propose(msg)
        elif msg.kind is MessageKind.ACK:
            self._on_ack(msg)

    def _on_estimate(self, msg: ConsensusMessage) -> None:
        if self.coordinator(msg.round) != self.pid:
            return
        b = self._ballot(msg.round)
        b.estimates[msg.sender] = (msg.value, msg.ts)
        if b.proposal is None and len(b.estimates) >= self._majority():
            # Lock the highest-timestamp estimate (CT safety core).
            b.proposal = max(
                b.estimates.values(), key=lambda vt: vt[1]
            )[0]
            self._broadcast(
                ConsensusMessage(
                    kind=MessageKind.PROPOSE,
                    sender=self.pid,
                    round=msg.round,
                    value=b.proposal,
                )
            )

    def _on_propose(self, msg: ConsensusMessage) -> None:
        if msg.round < self.round:
            return  # stale round
        if msg.round > self.round:
            # We lagged; jump to the proposal's round.
            self.round = msg.round
            self._round_started = self.sim.now
        self.estimate = msg.value
        self.ts = msg.round
        ack = ConsensusMessage(
            kind=MessageKind.ACK, sender=self.pid, round=msg.round
        )
        if msg.sender == self.pid:
            self.deliver(ack)
        else:
            self.send(msg.sender, ack)

    def _on_ack(self, msg: ConsensusMessage) -> None:
        if self.coordinator(msg.round) != self.pid:
            return
        b = self._ballot(msg.round)
        b.acks.add(msg.sender)
        if (
            b.proposal is not None
            and not b.decided_sent
            and len(b.acks) >= self._majority()
        ):
            b.decided_sent = True
            self._broadcast(
                ConsensusMessage(
                    kind=MessageKind.DECIDE, sender=self.pid, value=b.proposal
                )
            )
