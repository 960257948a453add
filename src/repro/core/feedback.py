"""The self-tuning feedback controller (Section IV-A, Fig. 4, Algorithm 1).

The controller closes the loop of Fig. 4: the user's QoS requirement
``(T̄D, M̄R, Q̄AP)`` enters once; each *time slot* the measured cumulative
output QoS comes back, is classified (:func:`repro.qos.spec.classify`),
and the controller emits a signed safety-margin step ``Sat_k·α`` with
``Sat_k ∈ {+β, 0, −β}`` (Eqs. 12-13).  "In a specific time slot, we adjust
the parameters of SFD only one time" — the controller is invoked exactly
once per slot by its host.

When the requirement is infeasible (detection already too slow *and*
accuracy violated — Algorithm 1's "others" branch) the controller "gives a
response".  The paper stops the detector; real deployments usually prefer
to keep the best-effort margin, so the reaction is configurable via
:class:`InfeasiblePolicy`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError, InfeasibleQoSError
from repro.qos.metrics import MistakeAccumulator
from repro.qos.spec import QoSReport, QoSRequirements, Satisfaction, classify

__all__ = [
    "InfeasiblePolicy",
    "TuningStatus",
    "FeedbackController",
    "SlotConfig",
    "TuningRecord",
    "FeedbackDriver",
]


class InfeasiblePolicy(enum.Enum):
    """Reaction to Algorithm 1's "give a response" branch."""

    #: Paper behaviour: report and stop adjusting (detector keeps running
    #: with its current margin; :attr:`FeedbackController.status` turns
    #: :attr:`TuningStatus.INFEASIBLE` so the host can surface the response).
    STOP = "stop"
    #: Raise :class:`~repro.errors.InfeasibleQoSError` immediately.
    RAISE = "raise"
    #: Keep tuning: treat the conflict as accuracy-first (grow the margin),
    #: revisiting feasibility next slot.  Useful when bursts make the
    #: cumulative QoS transiently violate both bounds.
    HOLD = "hold"


class TuningStatus(enum.Enum):
    """Controller life-cycle state."""

    WARMUP = "warmup"
    TUNING = "tuning"
    STABLE = "stable"
    INFEASIBLE = "infeasible"


@dataclass
class FeedbackController:
    """Emit per-slot safety-margin steps from measured-vs-required QoS.

    Parameters
    ----------
    requirements:
        The user's ``(T̄D, M̄R, Q̄AP)`` bounds.
    alpha:
        Step scale ``α ∈ (0, 1]`` — "the same as the constant safety margin
        in Chen-FD" (Eq. 12); in seconds here, like Chen's margin.
    beta:
        Adjustment rate ``β ∈ (0, 1)``, "for the adjusting rate, and it
        could be dynamically chosen by users" (Eq. 13).
    policy:
        Reaction to infeasible requirements (default: the paper's STOP).

    Notes
    -----
    The per-slot step is ``Sat_k·α`` with ``Sat_k ∈ {+β, 0, −β}``, i.e.
    ``±β·α`` seconds.  The controller is direction-aware but magnitude-blind
    by design — the paper's scheme converges by repeated constant steps
    ("usually we have to repeatedly adjust the parameters of SFD in
    multiple time slots"), not by proportional control.
    """

    requirements: QoSRequirements
    alpha: float = 0.1
    beta: float = 0.5
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP
    status: TuningStatus = field(default=TuningStatus.WARMUP, init=False)
    adjustments: int = field(default=0, init=False)
    last_decision: Satisfaction | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not (0.0 < self.beta < 1.0):
            raise ConfigurationError(f"beta must lie in (0, 1), got {self.beta!r}")

    @property
    def step_magnitude(self) -> float:
        """``β·α``: the absolute margin change applied per adjusting slot."""
        return self.beta * self.alpha

    def decide(self, measured: QoSReport) -> float:
        """One slot of Algorithm 1's Steps 1-3.

        Parameters
        ----------
        measured:
            Cumulative output QoS (Section IV-A: based on *all* former
            time periods).

        Returns
        -------
        float
            Signed margin delta in seconds (``+β·α``, ``0``, or ``−β·α``).

        Raises
        ------
        InfeasibleQoSError
            If the requirement is infeasible and ``policy`` is ``RAISE``.
        """
        if self.status is TuningStatus.INFEASIBLE:
            return 0.0  # stopped: the response was already given
        decision = classify(measured, self.requirements)
        self.last_decision = decision
        if decision is Satisfaction.INFEASIBLE:
            if self.policy is InfeasiblePolicy.RAISE:
                self.status = TuningStatus.INFEASIBLE
                raise InfeasibleQoSError(
                    "this SFD can not satisfy the QoS for the application",
                    measured=measured,
                    required=self.requirements,
                )
            if self.policy is InfeasiblePolicy.STOP:
                self.status = TuningStatus.INFEASIBLE
                return 0.0
            # HOLD: accuracy-first fallback — behave like GROW this slot.
            self.status = TuningStatus.TUNING
            self.adjustments += 1
            return self.step_magnitude
        if decision is Satisfaction.STABLE:
            self.status = TuningStatus.STABLE
            return 0.0
        self.status = TuningStatus.TUNING
        self.adjustments += 1
        return decision.sign * self.step_magnitude

    def update_requirements(self, requirements: QoSRequirements) -> None:
        """Swap in a new target QoS at runtime (Fig. 4's input can change).

        The controller resumes tuning toward the new bounds from the
        current margin — including leaving the INFEASIBLE terminal state,
        since a relaxed contract may well be satisfiable ("if there is a
        certain range for this SFD", Section IV-A).
        """
        self.requirements = requirements
        if self.status is not TuningStatus.WARMUP:
            self.status = TuningStatus.TUNING
        self.last_decision = None

    def reset(self) -> None:
        """Return to the warm-up state (e.g. after a network regime change)."""
        self.status = TuningStatus.WARMUP
        self.adjustments = 0
        self.last_decision = None


@dataclass(frozen=True, slots=True)
class SlotConfig:
    """Time-slot policy: adjust the margin once every ``heartbeats``.

    The paper leaves the slot length open; 100 received heartbeats per slot
    (default) reacts within ~10 s at the experiments' 100 ms heartbeat
    period while keeping per-slot QoS snapshots statistically meaningful.

    Three knobs select what "the output QoS" means for the feedback:

    * ``horizon=None`` — cumulative since warm-up, the paper's literal
      reading ("the output QoS of SFD is based on all the former time
      periods").  On week-long traces the start-up transient washes out;
      on short traces it dominates and the controller chases stale
      history.
    * ``horizon=k`` — the trailing ``k`` slots (the paper itself adjusts
      "to match *recent* network conditions", Section I).
    * ``reset_on_adjust=True`` — measure from the last margin *change*,
      i.e. evaluate the QoS the **current** parameter value delivers.
      This is the control-theoretically sound variant: trailing windows
      ratchet the margin upward (any burst triggers GROW; the STABLE
      branch never shrinks back — Algorithm 1 line 12 is ``Sat = 0``),
      while evaluate-current-setting converges and stays.

    ``min_slots`` defers judgement until that many slots of evidence have
    accumulated since the last change — a one-slot window after a change
    turns a single unlucky mistake into a rate far above any sane bound.
    """

    heartbeats: int = 100
    horizon: int | None = None
    reset_on_adjust: bool = False
    min_slots: int = 1

    def __post_init__(self) -> None:
        if self.heartbeats < 1:
            raise ConfigurationError(
                f"slot must span >= 1 heartbeat, got {self.heartbeats!r}"
            )
        if self.horizon is not None and self.horizon < 1:
            raise ConfigurationError(
                f"horizon must be >= 1 slot or None, got {self.horizon!r}"
            )
        if self.min_slots < 1:
            raise ConfigurationError(
                f"min_slots must be >= 1, got {self.min_slots!r}"
            )


@dataclass(frozen=True, slots=True)
class TuningRecord:
    """One feedback decision, for convergence traces (§V bench).

    ``status`` is the controller's life-cycle state *after* the decision,
    so traces (and the audit plane) can distinguish a held margin from a
    terminal infeasibility verdict — Algorithm 1's "give a response"
    branch is observable, not silent.
    """

    slot: int
    time: float
    sm_before: float
    sm_after: float
    decision: Satisfaction
    qos: QoSReport
    status: TuningStatus = TuningStatus.TUNING


#: Cumulative-tally checkpoint: (time, mistakes, mistake_time, td_sum,
#: td_count).  The driver diffs two checkpoints to get a window's QoS.
Checkpoint = tuple[float, int, float, float, int]


class FeedbackDriver:
    """Slot bookkeeping shared by the streaming self-tuning monitor (SFD
    included) and the vectorized replay.

    The host owns its measured QoS (a
    :class:`~repro.qos.metrics.MistakeAccumulator` fed by
    :func:`~repro.qos.metrics.account_arrival`, or the replay's bulk
    tallies) and the tuned value (the monitor's knob, SFD's margin); this
    class closes every slot: it counts accounted heartbeats to the slot
    boundary, picks the evaluation window (cumulative / trailing horizon /
    since-last-change per :class:`SlotConfig`), waits for enough evidence
    (``min_slots``), asks the :class:`FeedbackController` for the step,
    clamps the new value into ``bounds``, and appends the
    :class:`TuningRecord` to :attr:`trace` and hands it to :attr:`on_slot`.
    Closing every slot in one place is what makes the two SFD
    implementations identical.
    """

    def __init__(
        self,
        controller: FeedbackController,
        slot: SlotConfig,
        bounds: tuple[float, float] = (0.0, math.inf),
    ):
        lo, hi = bounds
        if not (lo <= hi):
            raise ConfigurationError(f"invalid bounds {bounds!r}")
        self.controller = controller
        self.slot = slot
        self.bounds = (float(lo), float(hi))
        #: Per-slot feedback decisions, one per non-skipped slot.
        self.trace: list[TuningRecord] = []
        #: Optional observer called with each appended :class:`TuningRecord`
        #: — the hook the observability layer uses to export SM(k)
        #: trajectories and Sat_k decisions without coupling the core to
        #: any metrics machinery.
        self.on_slot: Callable[[TuningRecord], None] | None = None
        self._in_slot = 0
        self._slot_index = 0
        self._checkpoints: list[Checkpoint] = []
        self._change_base: Checkpoint | None = None
        self._since_change = 0

    def clamp(self, value: float) -> float:
        """``value`` clamped into :attr:`bounds`."""
        lo, hi = self.bounds
        return min(max(value, lo), hi)

    def heartbeat(self, now: float, value: float, acc: MistakeAccumulator) -> float:
        """Count one accounted heartbeat; the slot's last one closes it.

        Returns the tuned value for what follows: ``value`` itself
        mid-slot, the clamped adjusted value after a slot close.
        """
        self._in_slot += 1
        if self._in_slot < self.slot.heartbeats:
            return value
        self._in_slot = 0
        return self.close_slot(
            now,
            value,
            acc.t_begin,
            acc.mistakes,
            acc.mistake_time,
            acc.td_sum,
            acc.td_count,
        )

    def close_slot(
        self,
        now: float,
        value: float,
        t_begin: float,
        mistakes: int,
        mistake_time: float,
        td_sum: float,
        td_count: int,
    ) -> float:
        """Close one slot on the cumulative tallies since ``t_begin``.

        Returns the new tuned value.  A skipped slot (see :meth:`end_slot`)
        still advances the slot index but leaves ``value`` and the trace
        alone.
        """
        delta, snapshot = self.end_slot(
            t_begin, now, mistakes, mistake_time, td_sum, td_count
        )
        self._slot_index += 1
        if snapshot is None:
            return value
        after = self.clamp(value + delta)
        record = TuningRecord(
            slot=self._slot_index,
            time=now,
            sm_before=value,
            sm_after=after,
            decision=self.controller.last_decision or Satisfaction.STABLE,
            qos=snapshot,
            status=self.controller.status,
        )
        self.trace.append(record)
        if self.on_slot is not None:
            self.on_slot(record)
        return after

    @staticmethod
    def _diff(base: Checkpoint, cur: Checkpoint) -> QoSReport | None:
        t0, m0, mt0, ts0, tc0 = base
        now, mistakes, mistake_time, td_sum, td_count = cur
        total = now - t0
        if total <= 0:
            return None
        mt = min(max(mistake_time - mt0, 0.0), total)
        tc = td_count - tc0
        td = (td_sum - ts0) / tc if tc else float("nan")
        return QoSReport(
            detection_time=td,
            mistake_rate=(mistakes - m0) / total,
            query_accuracy=1.0 - mt / total,
            mistakes=mistakes - m0,
            mistake_time=mt,
            accounted_time=total,
            samples=tc,
        )

    def end_slot(
        self,
        t_begin: float,
        now: float,
        mistakes: int,
        mistake_time: float,
        td_sum: float,
        td_count: int,
    ) -> tuple[float, QoSReport | None]:
        """Process one slot boundary.

        Parameters are the *cumulative* tallies since accounting began at
        ``t_begin``.  Returns ``(margin_delta, evaluated_snapshot)``;
        the snapshot is ``None`` when the slot was skipped (insufficient
        evidence or degenerate window), in which case the delta is 0.
        """
        cur: Checkpoint = (now, mistakes, mistake_time, td_sum, td_count)
        base: Checkpoint = (t_begin, 0, 0.0, 0.0, 0)
        k = self.slot.horizon
        if k is not None and len(self._checkpoints) >= k:
            base = self._checkpoints[-k]
        if (
            self.slot.reset_on_adjust
            and self._change_base is not None
            and self._change_base[0] > base[0]
        ):
            base = self._change_base
        self._checkpoints.append(cur)
        keep = max(self.slot.horizon or 1, 1)
        if len(self._checkpoints) > keep + 1:
            del self._checkpoints[: -(keep + 1)]
        self._since_change += 1
        if self._since_change < self.slot.min_slots:
            return 0.0, None
        snapshot = self._diff(base, cur)
        if snapshot is None:
            return 0.0, None
        delta = self.controller.decide(snapshot)
        if delta != 0.0:
            self._change_base = cur
            self._since_change = 0
        return delta, snapshot

    @property
    def status(self) -> TuningStatus:
        return self.controller.status

    def reset(self) -> None:
        """Forget every slot (the ``on_slot`` hook stays attached)."""
        self.controller.reset()
        self.trace.clear()
        self._in_slot = 0
        self._slot_index = 0
        self._checkpoints.clear()
        self._change_base = None
        self._since_change = 0
