"""The paper's contribution: SFD and the general self-tuning method.

* :mod:`repro.core.feedback` — the feedback controller of Section IV-A
  (Fig. 4): compare measured QoS against the user requirement, emit the
  saturation action ``Sat_k ∈ {+β, 0, −β}`` or the infeasibility response.
* :mod:`repro.core.tuning` — the *general* method applied to any timeout
  detector with a scalar knob ("this method is general, and can be applied
  to the other adaptive timeout-based FD schemes", Section IV-A): the one
  streaming feedback loop, itself a failure detector.
* :mod:`repro.core.sfd` — the concrete Self-tuning Failure Detector of
  Section IV-B/C: that loop over Chen FD's safety margin (Eqs. 11-13 and
  Algorithm 1), with accrual output.
* :mod:`repro.core.accrual` — multi-application threshold service on top
  of any accrual detector (Section IV-C1's Monitoring / Interpretation /
  Action split).
"""

from repro.core.feedback import FeedbackController, InfeasiblePolicy, TuningStatus
from repro.core.sfd import SFD, SlotConfig, TuningRecord
from repro.core.tuning import SelfTuningMonitor
from repro.core.accrual import AccrualService, ActionBinding, SuspicionLevel

__all__ = [
    "FeedbackController",
    "InfeasiblePolicy",
    "TuningStatus",
    "SFD",
    "SlotConfig",
    "TuningRecord",
    "SelfTuningMonitor",
    "AccrualService",
    "ActionBinding",
    "SuspicionLevel",
]
