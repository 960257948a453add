"""The self-tuning feedback controller (Section IV-A, Fig. 4, Algorithm 1).

The feedback loop of Fig. 4: the user's QoS requirement ``(T̄D, M̄R,
Q̄AP)`` enters once; each *time slot* the measured cumulative output QoS
comes back, is classified by Algorithm 1's table
(:data:`repro.qos.spec.DECISIONS`), and the loop takes a signed
safety-margin step ``Sat_k·α`` with ``Sat_k ∈ {+β, 0, −β}`` (Eqs. 12-13).
"In a specific time slot, we adjust the parameters of SFD only one time" —
:meth:`FeedbackDriver.close_slots` closes each slot exactly once, for the
streaming hosts and the replay alike.

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
from typing import Callable, MutableSequence

from repro.errors import ConfigurationError, InfeasibleQoSError
from repro.qos.metrics import MistakeAccumulator
from repro.qos.spec import DECISIONS, QoSReport, QoSRequirements, Satisfaction

__all__ = [
    "InfeasiblePolicy",
    "TuningStatus",
    "FeedbackController",
    "SlotConfig",
    "TuningRecord",
    "LinearSlots",
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
    """Algorithm 1's parameters and the loop's life-cycle state.

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

    The decision itself is taken by the slot recurrence
    (:meth:`FeedbackDriver.close_slots`), which reads these parameters and
    keeps :attr:`status`, :attr:`adjustments` and :attr:`last_decision`
    current.
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
#: td_count).  The recurrence diffs two checkpoints to get a window's QoS.
Checkpoint = tuple[float, int, float, float, int]


def _record(row: tuple) -> TuningRecord:
    """The :class:`TuningRecord` of one closed slot's row (see
    :meth:`FeedbackDriver.close_slots` for the field order)."""
    return TuningRecord(
        row[0], row[1], row[2], row[3], row[4], QoSReport(*row[6:]), row[5]
    )


@dataclass(frozen=True, eq=False)
class LinearSlots:
    """Consecutive slots whose tallies the slot recurrence computes itself.

    SFD's replay knows, before any margin is chosen, everything a slot
    adds to the measured tallies except what the margin contributes.
    Slot ``k`` adds ``td[k] + SM·heartbeats`` to the detection-time sum
    and ``heartbeats`` samples.  It holds no late heartbeat when its own
    margin ``SM`` is at least ``late[k]`` (its body's guards) and the
    previous slot's margin is at least ``first[k]`` (its first heartbeat
    is guarded by the previous slot's last freshness point).  Otherwise
    ``scan(k, SM_k, SM_{k−1})`` returns the count and summed lateness of
    the slot's late reveals under those two margins.  ``ends[k]`` is the
    arrival that closes slot ``k``.
    """

    heartbeats: int
    td: list[float]
    late: list[float]
    first: list[float]
    ends: list[float]
    scan: Callable[[int, float, float], tuple[int, float]]


class FeedbackDriver:
    """The slot recurrence shared by the streaming self-tuning monitor (SFD
    included) and the vectorized replay.

    The host owns its measured QoS (a
    :class:`~repro.qos.metrics.MistakeAccumulator` fed by
    :func:`~repro.qos.metrics.account_arrival`, or the replay's bulk
    tallies) and the tuned value (the monitor's knob, SFD's margin); this
    class closes every slot in one loop, :meth:`close_slots`: it picks
    the evaluation window (cumulative / trailing horizon / since-last-change
    per :class:`SlotConfig`), waits for enough evidence (``min_slots``),
    takes the window's QoS, decides per Algorithm 1 and the controller's
    policy, steps and clamps the value into ``bounds``, and records the
    slot in :attr:`trace` and hands it to :attr:`on_slot`.  Streaming
    hosts call it once per slot; the replay calls it once over all of its
    slots.  Closing every slot in one loop is what makes the two SFD
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
        #: Optional observer called with each new :class:`TuningRecord`
        #: — the hook the observability layer uses to export SM(k)
        #: trajectories and Sat_k decisions without coupling the core to
        #: any metrics machinery.
        self.on_slot: Callable[[TuningRecord], None] | None = None
        self._in_slot = 0
        self._slot_index = 0
        #: The last ``horizon`` slot ends (kept only under a horizon).
        self._checkpoints: list[Checkpoint] = []
        self._change_base: Checkpoint | None = None
        self._since_change = 0
        #: Closed slots not built into records yet, as flat rows.
        self._rows: list[tuple] = []
        self._records: list[TuningRecord] = []

    @property
    def trace(self) -> list[TuningRecord]:
        """Per-slot feedback decisions, one per evaluated slot.

        Closed slots are kept as flat rows and built into records when
        the trace is read; every read returns the same list, extended by
        the slots closed since the last one.
        """
        rows = self._rows
        if rows:
            self._records.extend(map(_record, rows))
            rows.clear()
        return self._records

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

        Returns the new tuned value.  A skipped slot (too little evidence
        or a degenerate window) still advances the slot index but leaves
        ``value`` and the trace alone.
        """
        tally = [mistakes, mistake_time, td_sum, td_count]
        return self.close_slots(value, t_begin, tally, now)

    def close_slots(
        self,
        value: float,
        t_begin: float,
        tally: list,
        now: float | None = None,
        slots: LinearSlots | None = None,
        margins: MutableSequence[float] | None = None,
    ) -> float:
        """The slot recurrence: close slots in order, state in locals.

        ``tally`` is ``[mistakes, mistake_time, td_sum, td_count]``,
        cumulative since accounting began at ``t_begin``; it is updated in
        place.  With ``now``, the slot that ends at ``now`` is closed
        first, on ``tally`` as given: that is a streaming host's call.
        With ``slots``, the recurrence then tallies and closes slot ``k =
        len(margins)`` and every slot after it itself, appending each
        slot's value to ``margins``.  A slot whose bounds its margins do
        not clear may hold a late heartbeat: the recurrence calls
        ``slots.scan(k, SM_k, SM_{k−1})`` with the value it holds and the
        previous one, adds the returned count to the mistakes and the
        lateness to the mistake time, and closes the slot in the same
        pass.  Returns the value after the last slot closed.

        A slot close diffs the cumulative tallies against the base of the
        evaluation window, classifies the window's QoS with Algorithm 1's
        table (:data:`repro.qos.spec.DECISIONS`), applies the controller's
        policy, steps and clamps the value, and keeps the slot as a row
        ``(slot, time, sm_before, sm_after, decision, status, TD, MR, QAP,
        mistakes, mistake_time, accounted_time, samples)`` that
        :attr:`trace` builds into a :class:`TuningRecord` when read.
        :attr:`on_slot` gets the records of the slots this call closed.
        """
        ctl = self.controller
        req = ctl.requirements
        td_max = req.max_detection_time
        mr_max = req.max_mistake_rate
        qap_min = req.min_query_accuracy
        step = ctl.step_magnitude
        policy = ctl.policy
        status = ctl.status
        adjustments = ctl.adjustments
        decision = ctl.last_decision
        slow, fast = DECISIONS
        hold = InfeasiblePolicy.HOLD
        stable = Satisfaction.STABLE
        infeasible = Satisfaction.INFEASIBLE
        tuning = TuningStatus.TUNING
        settled = TuningStatus.STABLE
        stopped = TuningStatus.INFEASIBLE
        lo, hi = self.bounds
        horizon = self.slot.horizon
        reset_on_adjust = self.slot.reset_on_adjust
        min_slots = self.slot.min_slots
        checkpoints = self._checkpoints
        change_base = self._change_base
        since = self._since_change
        index = self._slot_index
        keep = self._rows.append
        closed = 0
        origin: Checkpoint = (t_begin, 0, 0.0, 0.0, 0)
        mistakes, mistake_time, td_sum, td_count = tally
        if slots is None:
            k = stop = 0
        else:
            h = slots.heartbeats
            td, late, first, ends = slots.td, slots.late, slots.first, slots.ends
            scan = slots.scan
            k, stop = len(margins), len(ends)
            put = margins.append
        try:
            while True:
                prev = value
                if now is not None:
                    base = origin
                    if horizon is not None:
                        if len(checkpoints) == horizon:
                            base = checkpoints.pop(0)
                        checkpoints.append(
                            (now, mistakes, mistake_time, td_sum, td_count)
                        )
                    if (
                        reset_on_adjust
                        and change_base is not None
                        and change_base[0] > base[0]
                    ):
                        base = change_base
                    since += 1
                    t0, m0, mt0, ts0, tc0 = base
                    total = now - t0
                    if since < min_slots or total <= 0:
                        index += 1  # skipped: no record, value unchanged
                    else:
                        # The window's QoS, clamping the mistake time.
                        mt = mistake_time - mt0
                        mt = 0.0 if 0.0 > mt else mt
                        mt = total if total < mt else mt
                        tc = td_count - tc0
                        td_mean = (td_sum - ts0) / tc if tc else math.nan
                        m = mistakes - m0
                        mr = m / total
                        qap = 1.0 - mt / total
                        if mr < 0.0 or not (0.0 <= qap <= 1.0 + 1e-12):
                            # Out of QoSReport's domain: let it raise.
                            QoSReport(td_mean, mr, qap, m, mt, total, tc)
                        if status is stopped:
                            delta = 0.0  # stopped: the response was given
                        else:
                            # QoSRequirements.detection_ok, then accuracy_ok.
                            row = fast if td_mean <= td_max else slow
                            decision = (
                                row[1] if mr <= mr_max and qap >= qap_min else row[0]
                            )
                            if decision is stable:
                                status = settled
                                delta = 0.0
                            elif decision is not infeasible:
                                status = tuning
                                adjustments += 1
                                delta = decision.value * step
                            elif policy is hold:
                                # Accuracy first: grow, as GROW would.
                                status = tuning
                                adjustments += 1
                                delta = step
                            else:
                                status = stopped
                                delta = 0.0
                                if policy is InfeasiblePolicy.RAISE:
                                    raise InfeasibleQoSError(
                                        "this SFD can not satisfy the QoS "
                                        "for the application",
                                        measured=QoSReport(
                                            td_mean, mr, qap, m, mt, total, tc
                                        ),
                                        required=req,
                                    )
                        if delta != 0.0:
                            change_base = (
                                now, mistakes, mistake_time, td_sum, td_count
                            )
                            since = 0
                        index += 1
                        after = value + delta
                        after = lo if lo > after else after
                        after = hi if hi < after else after
                        keep(
                            (
                                index,
                                now,
                                value,
                                after,
                                stable if decision is None else decision,
                                status,
                                td_mean,
                                mr,
                                qap,
                                m,
                                mt,
                                total,
                                tc,
                            )
                        )
                        closed += 1
                        value = after
                if k == stop:
                    break
                # Slot k: tally what the margin adds, and the late reveals
                # of a slot whose bounds its margins do not clear; the next
                # pass closes it.
                put(value)
                td_sum += td[k] + value * h
                td_count += h
                now = ends[k]
                if not (value >= late[k] and prev >= first[k]):
                    count, lateness = scan(k, value, prev)
                    mistakes += count
                    mistake_time += lateness
                k += 1
        finally:
            ctl.status = status
            ctl.adjustments = adjustments
            ctl.last_decision = decision
            self._change_base = change_base
            self._since_change = since
            self._slot_index = index
            tally[:] = (mistakes, mistake_time, td_sum, td_count)
            hook = self.on_slot
            if closed and hook is not None:
                records = self.trace
                for record in records[len(records) - closed :]:
                    hook(record)
        return value

    @property
    def status(self) -> TuningStatus:
        return self.controller.status

    def reset(self) -> None:
        """Forget every slot (the ``on_slot`` hook stays attached)."""
        self.controller.reset()
        self._rows.clear()
        self._records.clear()
        self._in_slot = 0
        self._slot_index = 0
        self._checkpoints.clear()
        self._change_base = None
        self._since_change = 0
