"""The *general* self-tuning method applied to any timeout detector.

Section IV-A is explicit that the feedback scheme is not SFD-specific:
"This method is general, and can be applied to the other adaptive
timeout-based FD schemes."  :class:`SelfTuningMonitor` realizes that claim:
it hosts any :class:`~repro.detectors.base.TimeoutFailureDetector` whose
conservativeness is controlled by one scalar attribute (Chen's ``alpha``,
φ's ``threshold``, the fixed detector's ``fixed_timeout`` …) and is itself
a :class:`~repro.detectors.base.FailureDetector`, so it goes wherever a
detector goes: a :class:`~repro.cluster.membership.MembershipTable`, a
:class:`~repro.runtime.monitor.LiveMonitor`, the DES
:class:`~repro.sim.process.MonitorProcess`.

It is the one streaming host of the feedback loop.  Every received
heartbeat is accounted by the rule all streaming hosts share
(:func:`repro.qos.metrics.account_arrival`): a late arrival is one
wrong-suspicion episode, and every freshness point contributes a
detection-time sample ``FP − σ`` (the sender timestamp when the heartbeat
carries one, else the conservative proxy ``FP − A``).  Once per *time
slot* (a fixed number of accounted heartbeats; "in a specific time slot,
we adjust the parameters of SFD only one time", Section IV-A) the
:class:`~repro.core.feedback.FeedbackDriver` closes the slot and the
controller's signed step moves the knob.

The knob must be *monotone*: increasing it must make the detector more
conservative (larger TD, fewer mistakes).  Every detector in this library
satisfies that for the attributes named above.

:class:`~repro.core.sfd.SFD` *is* this monitor over
:class:`~repro.detectors.chen.ChenFD` on ``alpha``, plus its accrual face.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.base import FailureDetector, TimeoutFailureDetector
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


class SelfTuningMonitor(FailureDetector):
    """Wrap a timeout detector with the paper's general feedback loop.

    Parameters
    ----------
    detector:
        Any streaming timeout detector.  The monitor owns the feeding of
        heartbeats: call :meth:`observe` on the monitor, not the detector.
    knob:
        Name of the scalar attribute to tune (must increase
        conservativeness monotonically).  Its initial value is clamped
        into ``knob_bounds``, and :meth:`reset` restores that value.
    requirements:
        Target QoS bounds.
    alpha, beta, policy:
        Feedback parameters, as in :class:`~repro.core.sfd.SFD`.
    slot:
        Adjustment cadence.
    knob_bounds:
        Clamp for the tuned attribute (default ``[0, inf)``).  Both bounds
        are assigned to the detector once at construction, so a bound its
        knob rejects (φ's threshold and the fixed timeout must be > 0)
        fails here rather than at the slot that reaches it.
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
        initial = float(getattr(detector, knob))
        # The knob can reach either bound, so both must lie in the
        # detector's domain; its own setter is the judge.
        for bound in self._driver.bounds:
            try:
                setattr(detector, knob, bound)
            except ConfigurationError as exc:
                setattr(detector, knob, initial)
                raise ConfigurationError(
                    f"knob_bounds {knob_bounds!r} leave the domain of "
                    f"{type(detector).__name__}.{knob}: {exc}"
                ) from exc
        self._initial = self._driver.clamp(initial)
        setattr(detector, knob, self._initial)
        #: The knob value the current freshness point was computed with: a
        #: slot close moves the knob only for the freshness points after it.
        self._knob_at_fp = self._initial
        self._acc: MistakeAccumulator | None = None

    @property
    def on_slot(self) -> Callable[[TuningRecord], None] | None:
        """Optional observer of every :class:`TuningRecord` (see
        :attr:`FeedbackDriver.on_slot`)."""
        return self._driver.on_slot

    @on_slot.setter
    def on_slot(self, hook: Callable[[TuningRecord], None] | None) -> None:
        self._driver.on_slot = hook

    def observe(self, seq: int, arrival: float, send_time: float | None = None) -> None:
        """Feed one heartbeat; account QoS; adjust the knob at slot ends."""
        arrival = float(arrival)
        det = self.detector
        det.observe(seq, arrival, send_time)
        if not det.ready:
            return
        # ``_freshness`` is what ``freshness_point()`` returns once ready.
        self._acc = acc = account_arrival(
            self._acc,
            arrival,
            det._freshness,
            arrival if send_time is None else send_time,
        )
        self._knob_at_fp = before = getattr(det, self._knob)
        after = self._driver.heartbeat(arrival, before, acc)
        if after != before:
            setattr(det, self._knob, after)

    def reset(self) -> None:
        """Forget all history and restore the initial knob (the ``on_slot``
        hook stays attached)."""
        self.detector.reset()
        self._driver.reset()
        self._acc = None
        setattr(self.detector, self._knob, self._initial)
        self._knob_at_fp = self._initial

    @property
    def ready(self) -> bool:
        """True from the detector's warm-up heartbeat on, which is where
        accounting starts (read without a call into the detector, since
        hosts ask on every heartbeat)."""
        return self._acc is not None

    # Pass-through queries -------------------------------------------- #

    @property
    def observed(self) -> int:
        """Heartbeats the detector consumed so far."""
        return self.detector.observed

    def suspicion(self, now: float) -> float:
        return self.detector.suspicion(now)

    def binary_threshold(self) -> float:
        return self.detector.binary_threshold()

    def suspicion_eta(self, level: float) -> float:
        return self.detector.suspicion_eta(level)

    def freshness_point(self) -> float:
        return self.detector.freshness_point()

    @property
    def knob_value(self) -> float:
        """Current value of the tuned attribute."""
        return float(getattr(self.detector, self._knob))

    def update_requirements(self, requirements: QoSRequirements) -> None:
        """Re-target the feedback loop at a new QoS contract at runtime.

        Tuning resumes from the current knob (no warm-up, no reset); an
        INFEASIBLE stop is lifted, since the new contract may be
        satisfiable.
        """
        self.requirements = requirements
        self._driver.controller.update_requirements(requirements)

    @property
    def status(self) -> TuningStatus:
        """Feedback life-cycle state (warm-up / tuning / stable / infeasible)."""
        if not self.ready:
            return TuningStatus.WARMUP
        return self._driver.status

    @property
    def tuning_trace(self) -> list[TuningRecord]:
        """Per-slot feedback decisions, built into records when read
        (copy-free, the same list every read; treat as read-only)."""
        return self._driver.trace

    def qos_snapshot(self, now: float) -> QoSReport:
        """Cumulative measured output QoS at ``now`` (post warm-up)."""
        if self._acc is None:
            raise NotWarmedUpError("monitor has no accounting before warm-up ends")
        return self._acc.snapshot(float(now))
