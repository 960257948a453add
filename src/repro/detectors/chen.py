"""Chen FD — constant-safety-margin estimation detector (Eqs. 2-3).

Chen, Toueg & Aguilera ("On the quality of service of failure detectors",
IEEE ToC 2002) predict the next heartbeat's theoretical arrival time from
the sliding window and guard it with a *constant* safety margin ``α``::

    τ(k+1) = α + EA(k+1)                                     (Eq. 3)

The paper sweeps ``α ∈ [0, 10000]`` (milliseconds in their plots; seconds
here — the unit is the trace's) to draw Chen FD's QoS curve, and reuses
``EA`` inside both Bertier FD and SFD.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.detectors.base import TimeoutFailureDetector
from repro.detectors.estimation import ChenEstimator
from repro.detectors.window import HeartbeatWindow

__all__ = ["ChenFD"]


class ChenFD(TimeoutFailureDetector):
    """Chen's adaptive failure detector with constant safety margin.

    Parameters
    ----------
    alpha:
        Constant safety margin ``α`` in seconds (>= 0).  Small values are
        aggressive (fast detection, more mistakes); large values are
        conservative.  Chen FD "has an extensive performance range"
        (Section IV-B) — both regimes are reachable.
    window_size:
        Sliding window capacity ``WS`` (paper default 1000).
    nominal_interval:
        Fixed sending interval ``Δ`` if known; ``None`` (default) estimates
        it from the window, as the paper's implementation does.
    """

    name = "chen"

    def __init__(
        self,
        alpha: float,
        *,
        window_size: int = 1000,
        nominal_interval: float | None = None,
    ):
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha!r}")
        super().__init__(warmup=max(2, window_size))
        self.alpha = float(alpha)
        self._window = HeartbeatWindow(window_size)
        self._estimator = ChenEstimator(self._window, nominal_interval)
        #: ``EA(k+1)`` the current freshness point was computed from (NaN
        #: before warm-up): SFD's accrual face reads it on every query.
        self.ea = math.nan

    @property
    def window_size(self) -> int:
        return self._window.capacity

    def _ingest(self, seq: int, arrival: float, send_time: float | None) -> None:
        self._window.push(seq, arrival)

    def _next_freshness(self) -> float:
        self.ea = ea = self._estimator.expected_arrival()
        return ea + self.alpha

    def expected_arrival(self) -> float:
        """EA(k+1) recomputed from the window (for tests/diagnostics)."""
        return self._estimator.expected_arrival()

    def reset(self) -> None:
        self._window.clear()
        self._observed = 0
        self.ea = math.nan
