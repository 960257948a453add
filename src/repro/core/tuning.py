"""The *general* self-tuning method applied to any timeout detector.

Section IV-A is explicit that the feedback scheme is not SFD-specific:
"This method is general, and can be applied to the other adaptive
timeout-based FD schemes."  :class:`SelfTuningMonitor` realizes that claim:
it hosts any :class:`~repro.detectors.base.TimeoutFailureDetector` whose
conservativeness is controlled by one scalar attribute (Chen's ``alpha``,
φ's ``threshold``, the fixed detector's ``fixed_timeout`` …), performs the
same streaming QoS self-accounting as SFD, and nudges the knob once per
time slot through the shared :class:`~repro.core.feedback.FeedbackController`.

The knob must be *monotone*: increasing it must make the detector more
conservative (larger TD, fewer mistakes).  Every detector in this library
satisfies that for the attributes named above.

Wrapping :class:`~repro.detectors.chen.ChenFD` on ``alpha`` reproduces SFD
exactly (SFD *is* self-tuned Chen with an accrual face): both account
through :func:`repro.qos.metrics.account_arrival` and close their slots in
the shared :class:`~repro.core.feedback.FeedbackDriver`, and the test suite
asserts the freshness points, tuning traces and measured QoS are
bit-identical.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.base import TimeoutFailureDetector
from repro.core.feedback import (
    FeedbackController,
    FeedbackDriver,
    InfeasiblePolicy,
    SlotConfig,
    TuningRecord,
    TuningStatus,
)
from repro.qos.metrics import MistakeAccumulator, account_arrival
from repro.qos.spec import QoSReport, QoSRequirements

__all__ = ["SelfTuningMonitor"]


class SelfTuningMonitor:
    """Wrap a timeout detector with the paper's general feedback loop.

    Parameters
    ----------
    detector:
        Any streaming timeout detector.  The monitor owns the feeding of
        heartbeats: call :meth:`observe` on the monitor, not the detector.
    knob:
        Name of the scalar attribute to tune (must increase
        conservativeness monotonically).
    requirements:
        Target QoS bounds.
    alpha, beta, policy:
        Feedback parameters, as in :class:`~repro.core.sfd.SFD`.
    slot:
        Adjustment cadence.
    knob_bounds:
        Clamp for the tuned attribute (default ``[0, inf)``).
    """

    def __init__(
        self,
        detector: TimeoutFailureDetector,
        knob: str,
        requirements: QoSRequirements,
        *,
        alpha: float = 0.1,
        beta: float = 0.5,
        slot: SlotConfig | None = None,
        policy: InfeasiblePolicy = InfeasiblePolicy.STOP,
        knob_bounds: tuple[float, float] = (0.0, math.inf),
    ):
        if not hasattr(detector, knob):
            raise ConfigurationError(
                f"{type(detector).__name__} has no attribute {knob!r} to tune"
            )
        self.detector = detector
        self.requirements = requirements
        self.slot = slot if slot is not None else SlotConfig()
        self._knob = knob
        self._driver = FeedbackDriver(
            FeedbackController(requirements, alpha=alpha, beta=beta, policy=policy),
            self.slot,
            knob_bounds,
        )
        self._acc: MistakeAccumulator | None = None

    def observe(self, seq: int, arrival: float, send_time: float | None = None) -> None:
        """Feed one heartbeat; account QoS; adjust the knob at slot ends."""
        arrival = float(arrival)
        det = self.detector
        det.observe(seq, arrival, send_time)
        if not det.ready:
            return
        self._acc = acc = account_arrival(
            self._acc,
            arrival,
            det.freshness_point(),
            arrival if send_time is None else send_time,
        )
        before = self.knob_value
        after = self._driver.heartbeat(arrival, before, acc)
        if after != before:
            setattr(det, self._knob, after)

    # Pass-through queries -------------------------------------------- #

    @property
    def ready(self) -> bool:
        return self.detector.ready

    def suspects(self, now: float) -> bool:
        return self.detector.suspects(now)

    def suspicion(self, now: float) -> float:
        return self.detector.suspicion(now)

    def freshness_point(self) -> float:
        return self.detector.freshness_point()

    @property
    def knob_value(self) -> float:
        """Current value of the tuned attribute."""
        return float(getattr(self.detector, self._knob))

    def update_requirements(self, requirements: QoSRequirements) -> None:
        """Re-target the feedback loop at a new QoS contract at runtime."""
        self.requirements = requirements
        self._driver.controller.update_requirements(requirements)

    @property
    def status(self) -> TuningStatus:
        if not self.detector.ready:
            return TuningStatus.WARMUP
        return self._driver.status

    @property
    def tuning_trace(self) -> list[TuningRecord]:
        return self._driver.trace

    def qos_snapshot(self, now: float) -> QoSReport:
        if self._acc is None:
            raise NotWarmedUpError("monitor has no accounting before warm-up ends")
        return self._acc.snapshot(float(now))
