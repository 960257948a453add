"""Exact multi-parameter sweeps of affine-margin detectors in one pass.

Sweeping a detector's margin replays the same trace once per value, yet
when the freshness point is ``FP[r] = base[r] + m·scale[r]`` the entire
curve is a function of fixed arrays: the prediction *residuals*
``resid[r] = A[r+1] − base[r]``, the inter-arrival gaps
``gap[r] = A[r+1] − A[r]`` and the strictly positive scale ``s[r]``.  For
any margin ``m`` (DESIGN.md §5 semantics):

* a wrong suspicion occurs at ``r`` iff ``resid[r] > m·s[r]`` and
  ``gap[r] > 0`` (suspicion can only start once the freshness point was
  computed, hence the clip at ``A[r]``);
* its duration is ``min(resid[r] − m·s[r], gap[r])``, i.e.
  ``(resid−m·s)₊ − (resid−gap−m·s)₊``;
* the detection time is exactly ``mean(base − send) + m·mean(s)``.

Dividing through by the scale turns the mistake test into
``resid/s > m``, so sorting ``resid`` and ``z = resid − gap`` by that
ratio once, with suffix sums of the numerator and of the scale
(:class:`_Survival`), gives every margin's mistake count and total
duration by binary search — the whole K-point curve in
``O(n log n + K log n)`` instead of ``O(n·K)``.

Chen's α is the unit-scale case: ``base`` is Chen's ``EA`` and ``s ≡ 1``
(:class:`ChenSweeper`).  The learned ``ml`` family has ``base = A + ŷ``
and ``s = jitter + ML_JITTER_FLOOR`` (:class:`MLSweeper`).  Results are
*bit-compatible in exact arithmetic* with ``sweep_curve(...)`` (the test
suite asserts tight numerical agreement), and they are what make dense
planning sweeps (:func:`repro.qos.planner.plan_chen_alpha`) essentially
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.detectors.ml import ML_JITTER_FLOOR
from repro.errors import ConfigurationError
from repro.qos.area import QoSCurve
from repro.qos.spec import QoSReport
from repro.replay.vectorized import chen_expected_arrivals, ml_prediction_arrays
from repro.traces.trace import MonitorView

__all__ = ["ChenSweeper", "fast_chen_curve", "MLSweeper", "fast_ml_curve"]


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """``out[i] = Σ values[i:]``, with a trailing 0 for the empty tail."""
    return np.concatenate((np.cumsum(values[::-1])[::-1], [0.0]))


@dataclass(frozen=True)
class _Survival:
    """Samples sorted by ``num/scale``: O(log n) tails of ``(num − m·scale)₊``.

    ``scale`` must be strictly positive, so ``num − m·scale > 0`` exactly
    when the ratio exceeds ``m``.  ``scale=None`` is the unit scale: a
    plain sort of ``num``, whose scale suffix sums are the tail counts.
    """

    sorted_ratio: np.ndarray
    suffix_num: np.ndarray  # suffix_num[i] = Σ num[order][i:]
    suffix_scale: np.ndarray  # suffix_scale[i] = Σ scale[order][i:]

    @classmethod
    def of(cls, num: np.ndarray, scale: np.ndarray | None) -> "_Survival":
        num = np.asarray(num, dtype=np.float64)
        if scale is None:
            ratio = n_sorted = np.sort(num)
            suffix_scale = np.arange(num.size, -1, -1, dtype=np.float64)
        else:
            scale = np.asarray(scale, dtype=np.float64)
            ratio = num / scale
            order = np.argsort(ratio, kind="stable")
            ratio, n_sorted = ratio[order], num[order]
            suffix_scale = _suffix_sums(scale[order])
        return cls(
            sorted_ratio=ratio,
            suffix_num=_suffix_sums(n_sorted),
            suffix_scale=suffix_scale,
        )

    def tail_count(self, m: float) -> int:
        """#{num/scale > m}"""
        return int(
            self.sorted_ratio.size
            - np.searchsorted(self.sorted_ratio, m, side="right")
        )

    def tail_excess(self, m: float) -> float:
        """Σ (num − m·scale)₊"""
        i = int(np.searchsorted(self.sorted_ratio, m, side="right"))
        return float(self.suffix_num[i] - m * self.suffix_scale[i])


class _AffineSweeper:
    """Precomputed state for arbitrarily many margin evaluations.

    Subclasses name their ``family`` and ``sweep_param`` and supply
    ``affine() -> (base, scale)`` from the stage their family's kernel
    computes (``scale=None`` is the unit scale); then :meth:`qos_at` is
    O(log n) per margin and :meth:`curve` produces a
    :class:`~repro.qos.area.QoSCurve` identical to the replay-based sweep.
    """

    family: str
    sweep_param: str

    def __init__(
        self,
        view: MonitorView,
        window: int,
        affine: Callable[[], tuple[np.ndarray, np.ndarray | None]],
    ):
        r0 = max(window, 2) - 1
        if len(view) <= r0 + 1:
            raise ConfigurationError(
                f"view has {len(view)} heartbeats; need more than {r0 + 1}"
            )
        self.window = window
        base, scale = affine()
        arrivals = view.arrivals
        # Guarded pairs: r in [r0, R-2]; plus the trailing TD sample.
        resid = arrivals[r0 + 1 :] - base[r0:-1]
        gap = arrivals[r0 + 1 :] - arrivals[r0:-1]
        mask = gap > 0.0
        scale_g = None if scale is None else scale[r0:-1][mask]
        self._resid = _Survival.of(resid[mask], scale_g)
        self._z = _Survival.of((resid - gap)[mask], scale_g)
        self._td_base = float(np.mean(base[r0:] - view.send_times[r0:]))
        self._scale_mean = 1.0 if scale is None else float(np.mean(scale[r0:]))
        self._samples = int(arrivals.size - r0)
        self._t_begin = float(arrivals[r0])
        self._t_end = float(arrivals[-1])

    def qos_at(self, margin: float) -> QoSReport:
        """Exact replay QoS of this family at the given margin."""
        if margin < 0:
            raise ConfigurationError(
                f"{self.sweep_param} must be >= 0, got {margin!r}"
            )
        total = self._t_end - self._t_begin
        mistakes = self._resid.tail_count(margin)
        mistake_time = self._resid.tail_excess(margin) - self._z.tail_excess(
            margin
        )
        mistake_time = min(max(mistake_time, 0.0), total)
        return QoSReport(
            detection_time=self._td_base + margin * self._scale_mean,
            mistake_rate=mistakes / total,
            query_accuracy=1.0 - mistake_time / total,
            mistakes=mistakes,
            mistake_time=mistake_time,
            accounted_time=total,
            samples=self._samples,
        )

    def curve(self, margins: Sequence[float]) -> QoSCurve:
        out = QoSCurve(self.family)
        for m in margins:
            out.add(float(m), self.qos_at(float(m)))
        return out


class ChenSweeper(_AffineSweeper):
    """Chen-α sweeps: ``FP = EA + α``, the unit-scale affine case.

    Build once per (view, window); then :meth:`qos_at` is O(log n) per α.
    """

    family = "chen"
    sweep_param = "alpha"

    def __init__(
        self,
        view: MonitorView,
        *,
        window: int = 1000,
        nominal_interval: float | None = None,
    ):
        super().__init__(
            view,
            window,
            lambda: (chen_expected_arrivals(view, window, nominal_interval), None),
        )


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


class MLSweeper(_AffineSweeper):
    """ml-margin sweeps: ``FP = A + ŷ + m·(jitter + ML_JITTER_FLOOR)``.

    One pass of the online predictor fixes the prediction and jitter
    arrays; every margin of the sweep then reduces to survival-function
    lookups over the scaled residuals.
    """

    family = "ml"
    sweep_param = "margin"

    def __init__(
        self,
        view: MonitorView,
        *,
        lr: float = 0.05,
        window: int = 16,
        decay: float = 0.1,
    ):
        def affine():
            pred, jit = ml_prediction_arrays(view, lr=lr, window=window, decay=decay)
            return view.arrivals + pred, jit + ML_JITTER_FLOOR

        super().__init__(view, window, affine)


def fast_ml_curve(
    view: MonitorView,
    margins: Sequence[float],
    *,
    lr: float = 0.05,
    window: int = 16,
    decay: float = 0.1,
) -> QoSCurve:
    """Drop-in fast equivalent of ``sweep_curve("ml", ...)``."""
    return MLSweeper(view, lr=lr, window=window, decay=decay).curve(margins)
