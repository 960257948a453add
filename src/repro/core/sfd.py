"""SFD — the Self-tuning Failure Detector (Sections IV-B and IV-C).

SFD combines Chen's arrival-time estimator with a *feedback-driven* safety
margin (Eqs. 11-13)::

    τ(k+1)  = EA(k+1) + SM(k+1)                              (Eq. 11)
    SM(k+1) = SM(k) + Sat_k{QoS, Q̄oS}·α                      (Eq. 12)
    Sat_k   ∈ {+β, 0, −β}  per Algorithm 1                    (Eq. 13)

and exposes an *accrual* output (a continuous suspicion level rather than
a binary trust/suspect), placing it in the class ◊P_ac, which suffices to
solve consensus (Section IV-B).

Streaming self-accounting
-------------------------
Unlike Chen/Bertier/φ, SFD must *measure its own output QoS* to drive the
feedback, with the rule every streaming host shares
(:func:`repro.qos.metrics.account_arrival`): each received heartbeat is
checked against the previous freshness point, a late arrival is one
wrong-suspicion episode, and every computed freshness point contributes a
detection-time sample ``FP − σ`` (using the sender timestamp when the
heartbeat carries one, as logged traces do, else the conservative proxy
``FP − A`` which omits the unknown one-way delay).  Once per *time slot* (a
fixed number of received heartbeats; "in a specific time slot, we adjust
the parameters of SFD only one time", Section IV-A) the
:class:`~repro.core.feedback.FeedbackDriver` closes the slot: the
cumulative QoS snapshot feeds the controller, whose signed step updates
``SM``.

Loss handling: the sequence-aware window estimator already absorbs gaps
(a burst of ``g`` losses contributes ``g+1`` sequence steps to the
windowed ``Δt``), which is the arrival-time-domain equivalent of the
paper's time-series gap fill (see
:class:`repro.detectors.estimation.GapFiller` for the literal delay-series
form used by the φ window).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.base import TimeoutFailureDetector
from repro.detectors.estimation import ChenEstimator
from repro.detectors.window import HeartbeatWindow
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

__all__ = ["SFD", "SlotConfig", "TuningRecord"]

#: Numerical floor for the accrual normalization when SM tunes to ~0.
_SM_EPS = 1e-9


class SFD(TimeoutFailureDetector):
    """The paper's Self-tuning Failure Detector.

    Parameters
    ----------
    requirements:
        Target QoS ``(T̄D, M̄R, Q̄AP)`` the margin is tuned toward.
    sm1:
        Initial safety margin ``SM₁`` in seconds.  Defaults to ``alpha``,
        matching the experiments ("here we set SM₁ = α", Section V).
    alpha:
        Step scale ``α ∈ (0, 1]`` of Eq. (12).
    beta:
        Adjustment rate ``β ∈ (0, 1)`` of Eq. (13).  ``α`` and ``β`` "only
        impact the rate of self-tuning adjustability" (Section V).
    window_size:
        Sliding heartbeat window ``WS`` (paper default 1000; Section V-C
        notes SFD performs well with much smaller windows).
    nominal_interval:
        Fixed sending interval ``Δ`` if known, else windowed estimate.
    slot:
        Time-slot policy (see :class:`SlotConfig`).
    policy:
        Reaction to infeasible requirements (paper default: stop + respond).
    sm_bounds:
        Inclusive clamp ``(min, max)`` for the tuned margin; the lower
        bound defaults to 0 (a negative margin is meaningless).
    """

    name = "sfd"

    def __init__(
        self,
        requirements: QoSRequirements,
        *,
        sm1: float | None = None,
        alpha: float = 0.1,
        beta: float = 0.5,
        window_size: int = 1000,
        nominal_interval: float | None = None,
        slot: SlotConfig | None = None,
        policy: InfeasiblePolicy = InfeasiblePolicy.STOP,
        sm_bounds: tuple[float, float] = (0.0, math.inf),
    ):
        super().__init__(warmup=max(2, window_size))
        if sm1 is None:
            sm1 = alpha
        if sm1 < 0:
            raise ConfigurationError(f"SM1 must be >= 0, got {sm1!r}")
        if not (0.0 <= sm_bounds[0]):
            raise ConfigurationError(f"invalid sm_bounds {sm_bounds!r}")
        self.requirements = requirements
        self.slot = slot if slot is not None else SlotConfig()
        self._driver = FeedbackDriver(
            FeedbackController(requirements, alpha=alpha, beta=beta, policy=policy),
            self.slot,
            sm_bounds,
        )
        self._sm = self._driver.clamp(float(sm1))
        self.sm1 = self._sm
        self._window = HeartbeatWindow(window_size)
        self._estimator = ChenEstimator(self._window, nominal_interval)
        self._acc: MistakeAccumulator | None = None
        self._ea = math.nan
        self._sm_at_fp = self._sm

    @property
    def on_slot(self) -> Callable[[TuningRecord], None] | None:
        """Optional observer of every :class:`TuningRecord` (see
        :attr:`FeedbackDriver.on_slot`)."""
        return self._driver.on_slot

    @on_slot.setter
    def on_slot(self, hook: Callable[[TuningRecord], None] | None) -> None:
        self._driver.on_slot = hook

    # ------------------------------------------------------------------ #
    # observation & self-accounting
    # ------------------------------------------------------------------ #

    def observe(self, seq: int, arrival: float, send_time: float | None = None) -> None:
        arrival = float(arrival)
        super().observe(seq, arrival, send_time)
        if not self.ready:
            return
        self._acc = acc = account_arrival(
            self._acc,
            arrival,
            self._freshness,
            arrival if send_time is None else send_time,
        )
        self._sm = self._driver.heartbeat(arrival, self._sm, acc)

    def _ingest(self, seq: int, arrival: float, send_time: float | None) -> None:
        self._window.push(seq, arrival)

    def _next_freshness(self) -> float:
        self._ea = self._estimator.expected_arrival()
        self._sm_at_fp = self._sm
        return self._ea + self._sm

    # ------------------------------------------------------------------ #
    # accrual output (Section IV-C1)
    # ------------------------------------------------------------------ #

    def suspicion(self, now: float) -> float:
        """Margin-normalized accrual level.

        0 while the heartbeat is not yet due, crossing 1.0 exactly at the
        freshness point, and growing linearly in units of the current
        safety margin afterwards — a continuous scale applications map to
        staged reactions (Section IV-C1), analogous to φ but in margin
        units.
        """
        if not self.ready:
            raise NotWarmedUpError("SFD still warming up")
        overdue = float(now) - self._ea
        return max(0.0, overdue / max(self._sm_at_fp, _SM_EPS))

    def binary_threshold(self) -> float:
        return 1.0

    def suspicion_eta(self, level: float) -> float:
        """Margin units grow linearly past EA: the crossing is exact."""
        if not self.ready:
            raise NotWarmedUpError("SFD still warming up")
        return self._ea + float(level) * max(self._sm_at_fp, _SM_EPS)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def safety_margin(self) -> float:
        """Current tuned margin ``SM`` (seconds)."""
        return self._sm

    def update_requirements(self, requirements: QoSRequirements) -> None:
        """Re-target the feedback loop at a new QoS contract at runtime.

        Tuning resumes from the current margin (no warm-up, no reset);
        an INFEASIBLE stop is lifted, since the new contract may be
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
    def window_size(self) -> int:
        return self._window.capacity

    @property
    def tuning_trace(self) -> list[TuningRecord]:
        """Per-slot feedback decisions (copy-free; treat as read-only)."""
        return self._driver.trace

    def qos_snapshot(self, now: float) -> QoSReport:
        """Cumulative measured output QoS at ``now`` (post warm-up)."""
        if self._acc is None:
            raise NotWarmedUpError("SFD has no accounting before warm-up ends")
        return self._acc.snapshot(float(now))

    def reset(self) -> None:
        self._window.clear()
        self._observed = 0
        self._sm = self.sm1
        self._driver.reset()
        self._acc = None
        self._ea = math.nan
        self._sm_at_fp = self._sm
