"""Exact multi-α sweeps of Chen FD in one pass.

Sweeping Chen's safety margin replays the same trace once per value, yet
since the freshness point is ``FP[r] = EA[r] + α`` the entire curve is a
function of fixed arrays: the prediction *residuals*
``resid[r] = A[r+1] − EA[r]`` and the inter-arrival gaps
``gap[r] = A[r+1] − A[r]``.  For any margin ``α`` (DESIGN.md §5
semantics):

* a wrong suspicion occurs at ``r`` iff ``resid[r] > α`` and
  ``gap[r] > 0`` (suspicion can only start once the freshness point was
  computed, hence the clip at ``A[r]``);
* its duration is ``min(resid[r] − α, gap[r])``, i.e.
  ``(resid−α)₊ − (resid−gap−α)₊``;
* the detection time is exactly ``mean(EA − send) + α``.

Sorting ``resid`` and ``z = resid − gap`` once, with suffix sums
(:class:`_Survival`), gives every margin's mistake count and total
duration by binary search — the whole K-point curve in
``O(n log n + K log n)`` instead of ``O(n·K)``.  Results are
*bit-compatible in exact arithmetic* with ``sweep_curve("chen", ...)``
(the test suite asserts tight numerical agreement), and they are what
make dense planning sweeps (:func:`repro.qos.planner.plan_chen_alpha`)
essentially free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.qos.area import QoSCurve
from repro.qos.spec import QoSReport
from repro.replay.vectorized import chen_expected_arrivals
from repro.traces.trace import MonitorView

__all__ = ["ChenSweeper", "fast_chen_curve"]


@dataclass(frozen=True)
class _Survival:
    """Sorted samples: O(log n) tails of ``(x − m)₊``."""

    sorted_x: np.ndarray
    suffix_sum: np.ndarray  # suffix_sum[i] = Σ sorted_x[i:], 0 at the end

    @classmethod
    def of(cls, x: np.ndarray) -> "_Survival":
        x = np.sort(np.asarray(x, dtype=np.float64))
        suffix = np.concatenate((np.cumsum(x[::-1])[::-1], [0.0]))
        return cls(sorted_x=x, suffix_sum=suffix)

    def tail_count(self, m: float) -> int:
        """#{x > m}"""
        return int(
            self.sorted_x.size - np.searchsorted(self.sorted_x, m, side="right")
        )

    def tail_excess(self, m: float) -> float:
        """Σ (x − m)₊"""
        i = int(np.searchsorted(self.sorted_x, m, side="right"))
        return float(self.suffix_sum[i] - m * float(self.sorted_x.size - i))


class ChenSweeper:
    """Precomputed state for arbitrarily many Chen-α evaluations.

    Build once per (view, window); then :meth:`qos_at` is O(log n) per α
    and :meth:`curve` produces a :class:`~repro.qos.area.QoSCurve`
    identical to the replay-based sweep.
    """

    def __init__(
        self,
        view: MonitorView,
        *,
        window: int = 1000,
        nominal_interval: float | None = None,
    ):
        r0 = max(window, 2) - 1
        if len(view) <= r0 + 1:
            raise ConfigurationError(
                f"view has {len(view)} heartbeats; need more than {r0 + 1}"
            )
        self.window = window
        ea = chen_expected_arrivals(view, window, nominal_interval)
        arrivals = view.arrivals
        # Guarded pairs: r in [r0, R-2]; plus the trailing TD sample.
        resid = arrivals[r0 + 1 :] - ea[r0:-1]
        gap = arrivals[r0 + 1 :] - arrivals[r0:-1]
        mask = gap > 0.0
        self._resid = _Survival.of(resid[mask])
        self._z = _Survival.of((resid - gap)[mask])
        self._td_base = float(np.mean(ea[r0:] - view.send_times[r0:]))
        self._samples = int(arrivals.size - r0)
        self._t_begin = float(arrivals[r0])
        self._t_end = float(arrivals[-1])

    def qos_at(self, alpha: float) -> QoSReport:
        """Exact replay QoS of Chen FD at the given margin."""
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha!r}")
        total = self._t_end - self._t_begin
        mistakes = self._resid.tail_count(alpha)
        mistake_time = self._resid.tail_excess(alpha) - self._z.tail_excess(alpha)
        mistake_time = min(max(mistake_time, 0.0), total)
        return QoSReport(
            detection_time=self._td_base + alpha,
            mistake_rate=mistakes / total,
            query_accuracy=1.0 - mistake_time / total,
            mistakes=mistakes,
            mistake_time=mistake_time,
            accounted_time=total,
            samples=self._samples,
        )

    def curve(self, alphas: Sequence[float]) -> QoSCurve:
        out = QoSCurve("chen")
        for a in alphas:
            out.add(float(a), self.qos_at(float(a)))
        return out


def fast_chen_curve(
    view: MonitorView,
    alphas: Sequence[float],
    *,
    window: int = 1000,
    nominal_interval: float | None = None,
) -> QoSCurve:
    """Drop-in fast equivalent of ``sweep_curve("chen", ...)``."""
    return ChenSweeper(
        view, window=window, nominal_interval=nominal_interval
    ).curve(alphas)
