"""Simulated processes: heartbeat senders and detector-hosting monitors.

Together these realize Fig. 2 end to end: process ``p`` periodically sends
heartbeats (until it possibly crashes), the channel delays or loses them,
and process ``q`` feeds arrivals to its failure detector, recording wrong
suspicions against ground truth and — after a real crash — the actual
detection time, which replay can only approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.detectors.base import FailureDetector
from repro.net.drift import ClockModel, PerfectClock
from repro.qos.metrics import MistakeAccumulator, account_arrival
from repro.qos.spec import QoSReport
from repro.sim.crash import CrashPlan
from repro.sim.engine import Simulator
from repro.sim.network import SimLink

__all__ = ["Heartbeat", "HeartbeatSender", "MonitorProcess", "MonitorReport"]


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Wire payload of one heartbeat message."""

    seq: int
    send_time: float  # sender-clock timestamp carried in the message


class HeartbeatSender:
    """Process ``p``: sends heartbeat ``seq`` every ``interval`` seconds.

    Parameters
    ----------
    sim, link:
        Hosting simulator and outgoing channel.
    interval:
        Target sending period ``Δt``.
    jitter_std:
        OS-scheduling jitter of the sending period (gamma-distributed
        periods, like the synthetic traces); 0 means exact periods.
    crash:
        Ground-truth crash plan; sending stops at the crash instant.
    clock:
        The sender's local clock (timestamps carried in heartbeats).
    """

    def __init__(
        self,
        sim: Simulator,
        link: SimLink,
        *,
        interval: float,
        jitter_std: float = 0.0,
        crash: CrashPlan | None = None,
        clock: ClockModel | None = None,
        rng: np.random.Generator | None = None,
        start: float = 0.0,
    ):
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        if jitter_std < 0:
            raise ConfigurationError(f"jitter_std must be >= 0, got {jitter_std!r}")
        self.sim = sim
        self.link = link
        self.interval = float(interval)
        self.jitter_std = float(jitter_std)
        self.crash = crash if crash is not None else CrashPlan.never()
        self.clock = clock if clock is not None else PerfectClock()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.next_seq = 0
        sim.schedule_at(max(start, 0.0), self._tick)

    def _period(self) -> float:
        if self.jitter_std == 0.0:
            return self.interval
        m, s = self.interval, self.jitter_std
        shape = (m / s) ** 2
        return max(float(self.rng.gamma(shape, s * s / m)), 1e-6)

    def _tick(self) -> None:
        now = self.sim.now
        if not self.crash.alive_at(now):
            return  # crashed: no further sends, no reschedule (crash-stop)
        self.link.send(
            Heartbeat(seq=self.next_seq, send_time=float(self.clock.read(now)))
        )
        self.next_seq += 1
        self.sim.schedule(self._period(), self._tick)


@dataclass
class MonitorReport:
    """Outcome of one monitored run, against ground truth.

    Attributes
    ----------
    qos:
        Wrong-suspicion QoS over the monitored (pre-crash) period.
    detection_time:
        Crash → permanent-suspicion latency (NaN when no crash occurred or
        the run ended before detection).
    transitions:
        ``(time, suspecting)`` monitor output edges, for timelines.
    heartbeats:
        Number of heartbeats the detector consumed.
    stale_dropped:
        Reordered deliveries discarded (sequence already surpassed).
    """

    qos: QoSReport
    detection_time: float
    transitions: list[tuple[float, bool]] = field(default_factory=list)
    heartbeats: int = 0
    stale_dropped: int = 0


class MonitorProcess:
    """Process ``q``: hosts a failure detector over one incoming link.

    The monitor is event-driven — no polling: each arrival is checked
    against the freshness point that guarded it (late arrival ⇒ one wrong
    suspicion episode), and at :meth:`finish` the final freshness point
    yields the permanent-suspicion time for crashed senders.

    Wire the link with ``SimLink(..., deliver=monitor.deliver)``.
    """

    def __init__(
        self,
        sim: Simulator,
        detector: FailureDetector,
        *,
        clock: ClockModel | None = None,
        ground_truth: CrashPlan | None = None,
    ):
        self.sim = sim
        self.detector = detector
        self.clock = clock if clock is not None else PerfectClock()
        self.ground_truth = ground_truth if ground_truth is not None else CrashPlan.never()
        self._acc: MistakeAccumulator | None = None
        self._last_seq = -1
        self._heartbeats = 0
        self._stale = 0
        self._transitions: list[tuple[float, bool]] = []

    def deliver(self, hb: Heartbeat) -> None:
        """Receive one heartbeat (the link's delivery callback)."""
        now = float(self.clock.read(self.sim.now))
        if hb.seq <= self._last_seq:
            self._stale += 1
            return
        self.detector.observe(hb.seq, now, hb.send_time)
        self._last_seq = hb.seq
        self._heartbeats += 1
        if not self.detector.ready:
            return
        acc = self._acc
        if acc is not None and now > acc.suspect_from:
            # The output suspected until this arrival: the timeline edges
            # of the wrong suspicion the rule below accounts.  Wrong, since
            # a crashed sender sends no further heartbeats: every episode
            # observed here is pre-crash.
            self._transitions += ((acc.suspect_from, True), (now, False))
        # Every shipped detector exposes a freshness point; accrual ones
        # via their equivalent timeout.
        fp = self.detector.freshness_point()  # type: ignore[attr-defined]
        self._acc = account_arrival(acc, now, fp, hb.send_time)

    def suspects_now(self) -> bool:
        """Live query of the detector's binary output."""
        if not self.detector.ready:
            return False
        return self.detector.suspects(float(self.clock.read(self.sim.now)))

    def finish(self) -> MonitorReport:
        """Close accounting at the current simulated time."""
        now = float(self.clock.read(self.sim.now))
        detection = math.nan
        if self.ground_truth.crashes and self._acc is not None:
            suspect_start = self._acc.suspect_from
            if suspect_start <= now:
                detection = suspect_start - self.ground_truth.crash_time
                self._transitions.append((suspect_start, True))
        if self._acc is None:
            qos = QoSReport(
                detection_time=math.nan,
                mistake_rate=0.0,
                query_accuracy=1.0,
            )
        else:
            # Account wrong suspicions only up to the crash (after it, the
            # suspicion is correct).
            end = min(now, self.ground_truth.crash_time)
            qos = self._acc.snapshot(max(end, self._acc.t_begin + 1e-12))
        return MonitorReport(
            qos=qos,
            detection_time=detection,
            transitions=self._transitions,
            heartbeats=self._heartbeats,
            stale_dropped=self._stale,
        )
