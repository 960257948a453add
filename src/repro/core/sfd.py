"""SFD — the Self-tuning Failure Detector (Sections IV-B and IV-C).

SFD combines Chen's arrival-time estimator with a *feedback-driven* safety
margin (Eqs. 11-13)::

    τ(k+1)  = EA(k+1) + SM(k+1)                              (Eq. 11)
    SM(k+1) = SM(k) + Sat_k{QoS, Q̄oS}·α                      (Eq. 12)
    Sat_k   ∈ {+β, 0, −β}  per Algorithm 1                    (Eq. 13)

and exposes an *accrual* output (a continuous suspicion level rather than
a binary trust/suspect), placing it in the class ◊P_ac, which suffices to
solve consensus (Section IV-B).

That is the general method of Section IV-A applied to Chen FD: Eq. 11 is
Chen's Eq. 3 with ``α`` renamed ``SM``, and Eqs. 12-13 tune it.  So
:class:`SFD` is a :class:`~repro.core.tuning.SelfTuningMonitor` over
:class:`~repro.detectors.chen.ChenFD` tuning ``alpha``; the monitor does
the streaming self-accounting and closes every slot, and this class adds
only its constructor and the margin-normalized accrual face.

Loss handling: the sequence-aware window estimator already absorbs gaps
(a burst of ``g`` losses contributes ``g+1`` sequence steps to the
windowed ``Δt``), which is the arrival-time-domain equivalent of the
paper's time-series gap fill (see
:class:`repro.detectors.estimation.GapFiller` for the literal delay-series
form used by the φ window).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.chen import ChenFD
from repro.core.feedback import InfeasiblePolicy, SlotConfig, TuningRecord
from repro.core.tuning import SelfTuningMonitor
from repro.qos.spec import QoSRequirements

__all__ = ["SFD", "SlotConfig", "TuningRecord"]

#: Numerical floor for the accrual normalization when SM tunes to ~0.
_SM_EPS = 1e-9


class SFD(SelfTuningMonitor):
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
    detector: ChenFD

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
        if sm1 is None:
            sm1 = alpha
        if not (sm1 >= 0):
            raise ConfigurationError(f"SM1 must be >= 0, got {sm1!r}")
        if not (0.0 <= sm_bounds[0]):
            raise ConfigurationError(f"invalid sm_bounds {sm_bounds!r}")
        super().__init__(
            ChenFD(sm1, window_size=window_size, nominal_interval=nominal_interval),
            "alpha",
            requirements,
            alpha=alpha,
            beta=beta,
            slot=slot,
            policy=policy,
            knob_bounds=sm_bounds,
        )

    # ------------------------------------------------------------------ #
    # accrual output (Section IV-C1)
    # ------------------------------------------------------------------ #

    def suspicion(self, now: float) -> float:
        """Margin-normalized accrual level.

        0 while the heartbeat is not yet due, crossing 1.0 exactly at the
        freshness point, and growing linearly in units of the safety
        margin that point was computed with afterwards — a continuous
        scale applications map to staged reactions (Section IV-C1),
        analogous to φ but in margin units.
        """
        if not self.ready:
            raise NotWarmedUpError("SFD still warming up")
        overdue = float(now) - self.detector.ea
        return max(0.0, overdue / max(self._knob_at_fp, _SM_EPS))

    def binary_threshold(self) -> float:
        return 1.0

    def suspicion_eta(self, level: float) -> float:
        """Margin units grow linearly past EA: the crossing is exact."""
        if not self.ready:
            raise NotWarmedUpError("SFD still warming up")
        return self.detector.ea + float(level) * max(self._knob_at_fp, _SM_EPS)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def safety_margin(self) -> float:
        """Current tuned margin ``SM`` (seconds)."""
        return self.detector.alpha

    @property
    def sm1(self) -> float:
        """Initial margin ``SM₁`` after the clamp (what :meth:`reset`
        restores)."""
        return self._initial

    @property
    def window_size(self) -> int:
        return self.detector.window_size
