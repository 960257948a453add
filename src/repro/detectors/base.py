"""Common interface of all streaming failure detectors.

The paper's system model (Section II-B, Fig. 2) has a monitored process
``p`` sending heartbeats over an unreliable channel to a monitor ``q``;
the detector at ``q`` consumes heartbeat *arrivals* and exposes, at any
instant, either a binary trust/suspect output (Chen, Bertier) or a
continuous suspicion level (accrual detectors: φ, SFD).  This module fixes
that contract so monitors, the DES, the asyncio runtime, and the replay
cross-checks can host any detector interchangeably.
"""

from __future__ import annotations

import abc
import math

from repro.errors import ConfigurationError, NotWarmedUpError

__all__ = ["FailureDetector", "TimeoutFailureDetector"]


class FailureDetector(abc.ABC):
    """Abstract streaming failure detector (monitor-side, per peer).

    Life cycle: the host calls :meth:`observe` for every received heartbeat
    (in sequence order; transport reordering is resolved by the host) and
    may query :meth:`suspects` / :meth:`suspicion` at arbitrary times.
    Queries before :attr:`ready` raise
    :class:`~repro.errors.NotWarmedUpError` — the paper only trusts a
    detector once its sampling window has filled (Section V).
    """

    #: Human-readable detector family name (used in reports and figures).
    name: str = "abstract"

    @abc.abstractmethod
    def observe(self, seq: int, arrival: float, send_time: float | None = None) -> None:
        """Feed one received heartbeat.

        Parameters
        ----------
        seq:
            Heartbeat sequence number assigned by the sender (gaps reveal
            losses).
        arrival:
            Receive timestamp on the monitor's clock, seconds.
        send_time:
            Optional sender timestamp carried in the heartbeat; detectors
            must not rely on it for their decision (clocks are not
            synchronized) but may log it for statistics, as the paper does.

        Invalid input raises before the heartbeat is consumed.  The one
        error raised *after* it is consumed is a self-tuning detector's
        :class:`~repro.errors.InfeasibleQoSError` from a slot close under
        ``InfeasiblePolicy.RAISE``; hosts book the heartbeat, then let the
        error surface.
        """

    @property
    @abc.abstractmethod
    def ready(self) -> bool:
        """True once the detector has warmed up and can answer queries."""

    @abc.abstractmethod
    def suspicion(self, now: float) -> float:
        """Continuous suspicion level at time ``now`` (detector scale).

        For accrual detectors this is the published scale (φ for the φ FD,
        the margin-normalized level for SFD).  For binary timeout detectors
        it is the indicator ``0.0`` (trust) / ``inf`` (suspect), so that
        ``suspicion(now) > threshold`` is meaningful for every detector.
        """

    def suspects(self, now: float) -> bool:
        """Binary interpretation of the output at time ``now``."""
        return self.suspicion(now) > self.binary_threshold()

    def binary_threshold(self) -> float:
        """Suspicion level above which the binary output is "suspect".

        Timeout detectors use 0 (any positive suspicion means the freshness
        point has passed); accrual detectors override with their configured
        threshold.
        """
        return 0.0

    def suspicion_eta(self, level: float) -> float:
        """Absolute time at which :meth:`suspicion` first reaches ``level``.

        The inverse of the suspicion curve for the *current* detector state
        (no heartbeat between now and the returned instant).  Hosts that
        maintain status snapshots incrementally (the membership table's
        deadline wheel) use this to schedule the next re-check instead
        of polling every node on every query; they re-evaluate
        :meth:`suspicion` exactly at the returned time, so the answer is a
        scheduling hint, not a verdict — but it must never be *later* than
        the true crossing, or a scheduled host would miss a transition.

        Returns ``math.inf`` when the level is unreachable without further
        heartbeats, and ``-math.inf`` when the crossing time cannot be
        computed for this detector (the conservative answer: re-check on
        every query).  The base implementation knows nothing about the
        suspicion curve and returns ``-math.inf``.
        """
        return -math.inf

    def reset(self) -> None:
        """Forget all history (re-enter warm-up).  Optional override."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset()")


class TimeoutFailureDetector(FailureDetector):
    """Base for freshness-point (timeout) detectors.

    Subclasses implement :meth:`_next_freshness` from their estimator state;
    this base handles sequence bookkeeping, warm-up, and the standard
    binary/accrual outputs.  The *suspicion level* of a timeout detector is
    ``max(0, now − FP)`` — the time by which the heartbeat is overdue —
    which is 0 exactly while the detector trusts.
    """

    #: When not ``None``, a contract for batch ingest fast paths: this
    #: detector's :meth:`_ingest` is a no-op and its freshness point is
    #: always ``arrival + freshness_offset``, so a warmed-up observe can
    #: be fused into plain arithmetic.  Estimator-driven subclasses leave
    #: it ``None``; constant-interval ones set it per instance.
    freshness_offset: float | None = None

    def __init__(self, warmup: int):
        if warmup < 2:
            raise ConfigurationError(f"warmup must be >= 2 heartbeats, got {warmup!r}")
        self._warmup = int(warmup)
        self._observed = 0
        self._freshness = math.nan
        self._last_arrival = math.nan

    @property
    def warmup(self) -> int:
        """Heartbeats required before the detector answers queries."""
        return self._warmup

    @property
    def observed(self) -> int:
        """Heartbeats consumed so far."""
        return self._observed

    @property
    def ready(self) -> bool:
        return self._observed >= self._warmup

    @property
    def last_arrival(self) -> float:
        if self._observed == 0:
            raise NotWarmedUpError("no heartbeat observed yet")
        return self._last_arrival

    def observe(self, seq: int, arrival: float, send_time: float | None = None) -> None:
        self._ingest(seq, float(arrival), send_time)
        self._observed += 1
        self._last_arrival = float(arrival)
        if self.ready:
            self._freshness = self._next_freshness()

    @abc.abstractmethod
    def _ingest(self, seq: int, arrival: float, send_time: float | None) -> None:
        """Update estimator state with one heartbeat."""

    @abc.abstractmethod
    def _next_freshness(self) -> float:
        """Absolute freshness point guarding the *next* heartbeat."""

    def freshness_point(self) -> float:
        """Current freshness point ``τ`` (absolute time, seconds)."""
        if not self.ready:
            raise NotWarmedUpError(
                f"{self.name}: queried after {self._observed} heartbeats, "
                f"needs {self._warmup}"
            )
        return self._freshness

    def timeout(self) -> float:
        """Relative timeout: freshness point minus last arrival."""
        return self.freshness_point() - self.last_arrival

    def suspicion(self, now: float) -> float:
        return max(0.0, float(now) - self.freshness_point())

    def suspicion_eta(self, level: float) -> float:
        """Overdue-seconds suspicion grows linearly from the freshness
        point, so the crossing time is exact arithmetic."""
        if level < 0:
            raise ConfigurationError(f"level must be >= 0, got {level!r}")
        return self.freshness_point() + level
