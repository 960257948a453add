"""Offline parameter planning — the manual procedure SFD replaces.

Section I describes how engineers configure the open-loop detectors:
"These schemes must try all the possible parameter values, and get a
performance output graph to know which parameter values are acceptable for
the network (manually choose relevant parameters).  If the network has
significant changes, the engineers have to change the relevant parameters
manually again."

This module mechanizes that procedure so it can be compared against SFD's
online tuning: sweep a parameter over a recorded trace, keep the points
whose QoS satisfies the requirement, and pick the fastest (smallest
detection time) among them — an engineer's choice off the performance
graph.  Its structural weaknesses are exactly the paper's argument for
SFD: it needs a representative trace *in advance*, and its choice goes
stale when the network changes.

Every performance graph here is drawn by the replay engine
(:func:`repro.analysis.sweep.sweep_curve`), so each swept point's QoS
equals :func:`repro.replay.replay`'s at that parameter, bit for bit.  The
price is one kernel evaluation and one accounting pass per grid point:
planning cost grows with points × heartbeats.  A point that cannot be
replayed (a negative margin, a view no longer than the window) stops the
plan with :class:`~repro.exp.executors.JobFailedError`, which wraps the
replay's :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.qos.area import CurvePoint, QoSCurve
from repro.qos.spec import QoSRequirements
from repro.traces.trace import MonitorView

__all__ = [
    "PlanResult",
    "feasible_points",
    "plan_from_curve",
    "plan_detector",
    "plan_chen_alpha",
]


@dataclass(frozen=True, slots=True)
class PlanResult:
    """Outcome of an offline planning pass.

    Attributes
    ----------
    point:
        The chosen sweep point (``None`` when no swept value satisfies the
        requirement — the offline analogue of Algorithm 1's "give a
        response").
    feasible:
        Every swept point that satisfied the requirement, sweep order.
    swept:
        The full curve the decision was made from (the "performance
        output graph").
    """

    point: CurvePoint | None
    feasible: tuple[CurvePoint, ...]
    swept: QoSCurve

    @property
    def satisfiable(self) -> bool:
        return self.point is not None

    @property
    def parameter(self) -> float:
        if self.point is None:
            raise ConfigurationError("no feasible parameter was found")
        return self.point.parameter


def feasible_points(
    curve: QoSCurve, requirements: QoSRequirements
) -> tuple[CurvePoint, ...]:
    """Sweep points whose measured QoS satisfies the requirement."""
    return tuple(p for p in curve.points if requirements.satisfied_by(p.qos))


def plan_from_curve(
    curve: QoSCurve, requirements: QoSRequirements
) -> PlanResult:
    """Pick the fastest feasible point off a performance graph."""
    feasible = feasible_points(curve, requirements)
    best = min(feasible, key=lambda p: p.detection_time) if feasible else None
    return PlanResult(point=best, feasible=feasible, swept=curve)


def plan_detector(
    family: str,
    view: MonitorView,
    requirements: QoSRequirements,
    *,
    grid: Sequence[float] | None = None,
    **params,
) -> PlanResult:
    """Offline-plan any registered detector family's sweep parameter.

    Resolves ``family`` through :mod:`repro.detectors.registry`, sweeps its
    grid (the registered aggressive→conservative default when ``grid`` is
    ``None``) via :func:`repro.analysis.sweep.sweep_curve`, and picks the
    fastest feasible point per :func:`plan_from_curve` — the mechanized
    "performance output graph" procedure for every family, including
    third-party registered ones.  Every swept point is an exact replay,
    so the cost is one replay per grid point, and a point that cannot be
    replayed raises :class:`~repro.exp.executors.JobFailedError`.
    """
    from repro.analysis.sweep import sweep_curve  # avoid import cycle

    curve = sweep_curve(family, view, grid, **params)
    return plan_from_curve(curve, requirements)


def plan_chen_alpha(
    view: MonitorView,
    requirements: QoSRequirements,
    *,
    alphas: Sequence[float] | None = None,
    window: int = 1000,
) -> PlanResult:
    """Offline-plan Chen FD's safety margin for a recorded trace.

    Sweeps ``α`` (default: a dense 200-point geometric grid spanning
    sub-interval to beyond the detection bound) through
    :func:`plan_detector`, so every point's QoS equals
    ``replay(ChenSpec(alpha=α, window=window), view).qos``.  The dense
    default costs 200 replays: about 0.05 s over 58.7k heartbeats and
    0.5 s over 490k on a 2-vCPU host.  A negative ``α`` or a view no
    longer than ``window`` raises
    :class:`~repro.exp.executors.JobFailedError`, wrapping the replay's
    :class:`~repro.errors.ConfigurationError`.  Comparing the result
    against SFD's tuned margin on the same trace is the library's
    manual-vs-self-tuning experiment
    (``benchmarks/bench_planner_vs_sfd.py``).
    """
    if alphas is None:
        hi = requirements.max_detection_time
        if not np.isfinite(hi):
            hi = 10.0
        lo = max(hi / 1000.0, 1e-5)
        alphas = [float(a) for a in np.geomspace(lo, 1.2 * hi, 200)]
    return plan_detector("chen", view, requirements, grid=alphas, window=window)
