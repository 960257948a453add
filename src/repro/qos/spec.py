"""QoS tuples, requirements, and the feedback classification of Algorithm 1.

The paper defines (Eq. 1) the QoS of a failure detection module as the
tuple ``QoS = (TD, MR, QAP)`` and drives its self-tuning loop by comparing
a *measured* tuple against a *required* one (Figs. 4-5).  This module
provides both halves plus :func:`classify`, the decision table that maps
the comparison onto the saturation action ``Sat_k ∈ {+β, 0, −β}`` /
"infeasible" used by Eq. (12-13) and Algorithm 1.

Sign convention
---------------
The paper's Algorithm 1 listing is internally inconsistent with its own
narrative (see DESIGN.md §1).  We implement the physically consistent
table: a *larger* safety margin yields larger ``TD``, smaller ``MR`` and
larger ``QAP`` (stated below Eq. 13), therefore

* detection too slow, accuracy fine  → shrink the margin (``Sat = −β``),
* detection fast enough, accuracy violated → grow the margin (``Sat = +β``),
* everything met → hold (``Sat = 0``),
* detection too slow *and* accuracy violated → no margin can fix both →
  :class:`~repro.qos.spec.Satisfaction.INFEASIBLE` ("give a response").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["QoSReport", "QoSRequirements", "Satisfaction", "classify"]


@dataclass(frozen=True, slots=True)
class QoSReport:
    """Measured QoS of one detector run (Eq. 1 plus Fig. 3 auxiliaries).

    Attributes
    ----------
    detection_time:
        Mean detection time ``TD`` in seconds: how long a crash would go
        unnoticed, averaged over the crash-right-after-send worst cases
        (DESIGN.md §5).
    mistake_rate:
        ``MR``, wrong suspicions per second of accounted (monitored) time.
    query_accuracy:
        ``QAP ∈ [0, 1]``: probability that a query at a uniformly random
        accounted instant sees the correct "trust" output.
    mistakes:
        Number of wrong-suspicion episodes (``TM`` count numerator).
    mistake_time:
        Total time spent wrongly suspecting, seconds.
    accounted_time:
        Length of the evaluation period (post-warm-up), seconds.
    samples:
        Number of heartbeats that contributed detection-time samples.
    """

    detection_time: float
    mistake_rate: float
    query_accuracy: float
    mistakes: int = 0
    mistake_time: float = 0.0
    accounted_time: float = 0.0
    samples: int = 0

    def __reduce__(self):
        # Explicit so reports pickle on every supported Python (frozen
        # slotted dataclasses only gained default pickling support in
        # 3.11); process-pool workers return reports across the process
        # boundary.
        return (
            QoSReport,
            (
                self.detection_time,
                self.mistake_rate,
                self.query_accuracy,
                self.mistakes,
                self.mistake_time,
                self.accounted_time,
                self.samples,
            ),
        )

    def __post_init__(self) -> None:
        if not (0.0 <= self.query_accuracy <= 1.0 + 1e-12):
            raise ConfigurationError(
                f"query_accuracy must lie in [0, 1], got {self.query_accuracy!r}"
            )
        if self.mistake_rate < 0.0:
            raise ConfigurationError(
                f"mistake_rate must be >= 0, got {self.mistake_rate!r}"
            )

    @property
    def mistake_duration(self) -> float:
        """Average ``T_M``: seconds per wrong suspicion (NaN if none)."""
        if self.mistakes == 0:
            return math.nan
        return self.mistake_time / self.mistakes

    @property
    def mistake_recurrence(self) -> float:
        """Average ``T_MR``: seconds between consecutive wrong suspicions."""
        if self.mistakes == 0:
            return math.inf
        return self.accounted_time / self.mistakes

    def as_tuple(self) -> tuple[float, float, float]:
        """The paper's Eq. (1) tuple ``(TD, MR, QAP)``."""
        return (self.detection_time, self.mistake_rate, self.query_accuracy)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QoS(TD={self.detection_time:.4f}s, MR={self.mistake_rate:.6g}/s, "
            f"QAP={self.query_accuracy * 100:.4f}%)"
        )


@dataclass(frozen=True, slots=True)
class QoSRequirements:
    """User-required QoS bounds ``(T̄D, M̄R, Q̄AP)`` (Fig. 5).

    A measured QoS *satisfies* the requirement when its detection time and
    mistake rate are **at most** the bounds and its query accuracy is **at
    least** the bound.  ``inf`` / ``0`` defaults make individual bounds
    optional.

    Attributes
    ----------
    max_detection_time:
        Upper bound on ``TD`` in seconds (``T̄D``).
    max_mistake_rate:
        Upper bound on ``MR`` in 1/s (``M̄R``).
    min_query_accuracy:
        Lower bound on ``QAP`` in ``[0, 1]`` (``Q̄AP``).
    """

    max_detection_time: float = math.inf
    max_mistake_rate: float = math.inf
    min_query_accuracy: float = 0.0

    def __reduce__(self):
        # Same frozen+slots pickling workaround as QoSReport.
        return (
            QoSRequirements,
            (
                self.max_detection_time,
                self.max_mistake_rate,
                self.min_query_accuracy,
            ),
        )

    def __post_init__(self) -> None:
        if self.max_detection_time <= 0.0:
            raise ConfigurationError(
                f"max_detection_time must be > 0, got {self.max_detection_time!r}"
            )
        if self.max_mistake_rate < 0.0:
            raise ConfigurationError(
                f"max_mistake_rate must be >= 0, got {self.max_mistake_rate!r}"
            )
        if not (0.0 <= self.min_query_accuracy <= 1.0):
            raise ConfigurationError(
                f"min_query_accuracy must lie in [0, 1], got {self.min_query_accuracy!r}"
            )

    def detection_ok(self, qos: QoSReport) -> bool:
        """True when the speed half of the requirement is met."""
        return qos.detection_time <= self.max_detection_time

    def accuracy_ok(self, qos: QoSReport) -> bool:
        """True when both accuracy bounds are met."""
        return (
            qos.mistake_rate <= self.max_mistake_rate
            and qos.query_accuracy >= self.min_query_accuracy
        )

    def satisfied_by(self, qos: QoSReport) -> bool:
        """True when the full tuple is within bounds."""
        return self.detection_ok(qos) and self.accuracy_ok(qos)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QoSReq(TD<={self.max_detection_time:g}s, "
            f"MR<={self.max_mistake_rate:g}/s, "
            f"QAP>={self.min_query_accuracy * 100:g}%)"
        )


class Satisfaction(enum.Enum):
    """Outcome of comparing measured QoS against a requirement.

    The enum value is the sign applied to the adjustment step ``β`` in
    Eq. (12): ``SM(k+1) = SM(k) + sign·β·α``.
    """

    #: All three bounds met — hold the current margin (``Sat = 0``).
    STABLE = 0
    #: Detection fast enough but too many mistakes — grow the margin.
    GROW = +1
    #: Accurate enough but detection too slow — shrink the margin.
    SHRINK = -1
    #: Too slow *and* too inaccurate — no margin satisfies the user.
    INFEASIBLE = None

    @property
    def sign(self) -> int:
        """Adjustment sign; raises for :attr:`INFEASIBLE`."""
        if self is Satisfaction.INFEASIBLE:
            raise ValueError("INFEASIBLE outcome has no adjustment sign")
        return int(self.value)


#: Algorithm 1's decision table, ``DECISIONS[detection_ok][accuracy_ok]``.
#: It is written here once: :func:`classify` and the feedback loop's slot
#: recurrence (:meth:`repro.core.feedback.FeedbackDriver.close_slots`) both
#: index it.
DECISIONS = (
    # Detection too slow: no margin fixes inaccuracy too; else shrink.
    (Satisfaction.INFEASIBLE, Satisfaction.SHRINK),
    # Detection fast enough: grow on inaccuracy; else hold.
    (Satisfaction.GROW, Satisfaction.STABLE),
)


def classify(measured: QoSReport, required: QoSRequirements) -> Satisfaction:
    """Algorithm 1's Step 2: map (measured, required) to a feedback action.

    Parameters
    ----------
    measured:
        The cumulative output QoS observed so far ("the output QoS of SFD
        is based on all the former time periods", Section IV-A).
    required:
        The user's ``(T̄D, M̄R, Q̄AP)``.

    Returns
    -------
    Satisfaction
        The saturation decision whose :attr:`~Satisfaction.sign` feeds
        Eq. (12); :attr:`Satisfaction.INFEASIBLE` corresponds to the
        "give a response" branch.
    """
    speed_ok = bool(required.detection_ok(measured))
    return DECISIONS[speed_ok][bool(required.accuracy_ok(measured))]
