"""Replay orchestration: specs, QoS accounting, results.

A *spec* is a frozen description of one detector configuration (family +
parameters).  :func:`replay` runs a spec against a
:class:`~repro.traces.trace.MonitorView` and returns a
:class:`ReplayResult` carrying the freshness-point series and the QoS
report computed over the accounted (post-warm-up) period, with the exact
semantics of DESIGN.md §5 — identical for every detector family, which is
the paper's fairness requirement.

Dispatch is family-agnostic: each spec carries its family's ``detector``
tag, and :func:`replay` resolves the vectorized kernel through
:mod:`repro.detectors.registry`.  Adding a family therefore requires no
edit here — register a :class:`~repro.detectors.registry.DetectorFamily`
and its spec replays.  (Per-family ``isinstance`` ladders are banned in
this package; ``tests/test_repo_hygiene.py`` enforces it.)
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.core.feedback import FeedbackDriver, InfeasiblePolicy, TuningStatus
from repro.core.sfd import SlotConfig, TuningRecord
from repro.qos.metrics import qos_from_freshness
from repro.qos.spec import QoSReport, QoSRequirements
from repro.traces.columnar import TraceStore, as_monitor_view
from repro.traces.trace import HeartbeatTrace, MonitorView

__all__ = [
    "ReplayResult",
    "ReplaySpec",
    "ChenSpec",
    "BertierSpec",
    "PhiSpec",
    "FixedSpec",
    "QuantileSpec",
    "MLSpec",
    "SFDSpec",
    "replay",
]


def _spec_from_state(cls: type, data: Mapping[str, Any]):
    """Pickle entry point: rebuild a spec through its own ``from_dict``."""
    return cls.from_dict(data)


class ReplaySpec:
    """Dict round-tripping shared by every replay spec.

    ``to_dict`` emits a flat mapping tagged with the family name;
    ``from_dict`` inverts it (``from_dict(to_dict(s)) == s``), which is
    what configs, archives, and the registry's spec strings build on.
    Families with nested configuration (SFD) override both.

    Pickling routes through the same round-trip (``__reduce__`` below), so
    every spec crosses process boundaries — the parallel sweep executor's
    requirement — regardless of the ``slots=True`` dataclass pickling
    quirks across Python versions.
    """

    __slots__ = ()

    detector = "abstract"

    def __reduce__(self):
        return (_spec_from_state, (type(self), self.to_dict()))

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"detector": self.detector}
        for f in dataclasses.fields(self):
            data[f.name] = getattr(self, f.name)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReplaySpec":
        kwargs = dict(data)
        tag = kwargs.pop("detector", cls.detector)
        if tag != cls.detector:
            raise ConfigurationError(
                f"{cls.__name__} cannot load a {tag!r} spec"
            )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad {cls.__name__} fields: {exc}"
            ) from exc


@dataclass(frozen=True, slots=True)
class ChenSpec(ReplaySpec):
    """Chen FD configuration (sweep parameter: ``alpha``)."""

    alpha: float
    window: int = 1000
    nominal_interval: float | None = None

    detector = "chen"

    @property
    def parameter(self) -> float:
        return self.alpha


@dataclass(frozen=True, slots=True)
class BertierSpec(ReplaySpec):
    """Bertier FD configuration (no sweep parameter — one point)."""

    beta: float = 1.0
    phi: float = 4.0
    gamma: float = 0.1
    window: int = 1000
    nominal_interval: float | None = None

    detector = "bertier"

    @property
    def parameter(self) -> float:
        return 0.0  # "it has no dynamic parameters" (Section V-A2)


@dataclass(frozen=True, slots=True)
class PhiSpec(ReplaySpec):
    """φ FD configuration (sweep parameter: ``threshold``)."""

    threshold: float
    window: int = 1000

    detector = "phi"

    @property
    def parameter(self) -> float:
        return self.threshold


@dataclass(frozen=True, slots=True)
class QuantileSpec(ReplaySpec):
    """Quantile-timeout FD ([34-35] family; sweep parameter: ``quantile``)."""

    quantile: float
    window: int = 1000

    detector = "quantile"

    @property
    def parameter(self) -> float:
        return self.quantile


@dataclass(frozen=True, slots=True)
class FixedSpec(ReplaySpec):
    """Fixed-timeout baseline (sweep parameter: ``timeout``)."""

    timeout: float

    detector = "fixed"
    window: int = 2

    def __post_init__(self) -> None:
        # The window only sets the warm-up here (the detector is ready
        # after two heartbeats), but a non-positive one is still an error.
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window!r}")

    @property
    def parameter(self) -> float:
        return self.timeout


@dataclass(frozen=True, slots=True)
class MLSpec(ReplaySpec):
    """Learned (online NLMS) FD configuration (sweep parameter: ``margin``).

    ``margin`` scales the learned jitter estimate added to the predicted
    arrival; ``lr``/``decay`` are the NLMS learning rate and EWMA decay of
    :class:`~repro.detectors.ml.OnlineArrivalPredictor`; ``window`` is the
    lag-window length (and the warm-up, per the replay convention).
    """

    margin: float = 2.0
    lr: float = 0.05
    window: int = 16
    decay: float = 0.1

    detector = "ml"

    @property
    def parameter(self) -> float:
        return self.margin


@dataclass(frozen=True)
class SFDSpec(ReplaySpec):
    """SFD configuration (sweep parameter: the initial margin ``sm1``)."""

    requirements: QoSRequirements
    sm1: float | None = None
    alpha: float = 0.1
    beta: float = 0.5
    window: int = 1000
    nominal_interval: float | None = None
    slot: SlotConfig = field(default_factory=SlotConfig)
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP
    sm_bounds: tuple[float, float] = (0.0, math.inf)

    detector = "sfd"

    @property
    def parameter(self) -> float:
        return self.sm1 if self.sm1 is not None else self.alpha

    def to_dict(self) -> dict[str, Any]:
        return {
            "detector": self.detector,
            "requirements": {
                "max_detection_time": self.requirements.max_detection_time,
                "max_mistake_rate": self.requirements.max_mistake_rate,
                "min_query_accuracy": self.requirements.min_query_accuracy,
            },
            "sm1": self.sm1,
            "alpha": self.alpha,
            "beta": self.beta,
            "window": self.window,
            "nominal_interval": self.nominal_interval,
            "slot": {
                "heartbeats": self.slot.heartbeats,
                "horizon": self.slot.horizon,
                "reset_on_adjust": self.slot.reset_on_adjust,
                "min_slots": self.slot.min_slots,
            },
            "policy": self.policy.value,
            "sm_bounds": (self.sm_bounds[0], self.sm_bounds[1]),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SFDSpec":
        kwargs = dict(data)
        tag = kwargs.pop("detector", cls.detector)
        if tag != cls.detector:
            raise ConfigurationError(f"SFDSpec cannot load a {tag!r} spec")
        try:
            kwargs["requirements"] = QoSRequirements(**kwargs["requirements"])
            kwargs["slot"] = SlotConfig(**kwargs["slot"])
            kwargs["policy"] = InfeasiblePolicy(kwargs["policy"])
            kwargs["sm_bounds"] = tuple(kwargs["sm_bounds"])
            return cls(**kwargs)
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigurationError(f"bad SFDSpec fields: {exc}") from exc


Spec = Union[
    ChenSpec, BertierSpec, PhiSpec, FixedSpec, QuantileSpec, MLSpec, SFDSpec
]


@dataclass
class ReplayResult:
    """One detector replayed over one trace.

    Attributes
    ----------
    spec:
        The configuration that was replayed.
    qos:
        QoS over the accounted period (DESIGN.md §5).
    freshness:
        ``FP[r]`` for every received heartbeat.  Entries before
        ``warmup_index`` come from partially filled windows and are never
        accounted (index 0 is NaN: one sample predicts nothing).
    warmup_index:
        First accounted received index ``r0``.
    final_margin, status:
        SFD only: tuned margin and feedback state at the end.
    feedback:
        SFD only: the feedback loop that ran; :attr:`tuning` reads its
        per-slot records.
    """

    spec: Spec
    qos: QoSReport
    freshness: np.ndarray
    warmup_index: int
    final_margin: float | None = None
    status: TuningStatus | None = None
    feedback: FeedbackDriver | None = field(default=None, repr=False)

    @property
    def tuning(self) -> list[TuningRecord]:
        """SFD only: per-slot feedback records, built when first read."""
        return [] if self.feedback is None else self.feedback.trace

    @property
    def detector(self) -> str:
        return self.spec.detector

    @property
    def parameter(self) -> float:
        return self.spec.parameter


def _account(
    view: MonitorView,
    fp: np.ndarray,
    r0: int,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
    rising: np.ndarray | None = None,
) -> QoSReport:
    """Uniform QoS accounting over the post-warm-up region.

    A few array passes (:func:`repro.qos.metrics.qos_from_freshness`): no
    per-heartbeat Python, and no interval-bound temporaries, between the
    freshness series and the report.  ``scratch`` is a ``(float64,
    bool)`` buffer pair of at least ``len(view) − r0`` elements, such as
    :meth:`PreparedStage.scratch <repro.detectors.registry.PreparedStage.scratch>`
    lends: the detection-time samples and then the late reveals'
    lateness are written into its floats, the late mask into its flags.
    Without one, the pair is allocated here.  ``rising`` is the view's
    ``arrivals[1:] > arrivals[:-1]`` over the whole view, such as the
    trace's scope holds (:func:`_rising`); without it the accounting
    builds the mask over its own span.
    """
    arrivals = view.arrivals[r0:]
    fresh = fp[r0:]
    size = fresh.size
    if scratch is None:
        scratch = np.empty(size, dtype=np.float64), np.empty(size, dtype=bool)
    floats, flags = scratch
    td = np.subtract(fresh, view.send_times[r0:], out=floats[:size])
    return qos_from_freshness(
        arrivals,
        fresh,
        td,
        t_begin=float(arrivals[0]),
        t_end=float(arrivals[-1]),
        gaps=floats,
        late=flags,
        rising=None if rising is None else rising[r0:],
    )


def _rising(view: MonitorView) -> np.ndarray:
    """``arrivals[1:] > arrivals[:-1]``: which arrivals can reveal a late
    heartbeat, whatever the freshness points (read-only, since a trace's
    scope shares it between every point's accounting)."""
    arrivals = view.arrivals
    rising = np.greater(arrivals[1:], arrivals[:-1])
    rising.flags.writeable = False
    return rising


ReplaySource = Union[MonitorView, HeartbeatTrace, TraceStore, str, Path]


def replay(
    spec: Spec, source: ReplaySource, *, instruments=None, prepared=None
) -> ReplayResult:
    """Run one detector spec over one trace source.

    ``source`` may be a pre-extracted :class:`MonitorView`, a
    :class:`HeartbeatTrace`, a memory-mapped
    :class:`~repro.traces.columnar.TraceStore`, or a path to a trace file
    (columnar stores open zero-copy).  The spec's family is resolved
    through the detector registry, which supplies the vectorized kernel —
    any registered family (including third-party ones) replays through
    this single path.

    The warm-up convention matches the streaming detectors: accounting
    starts at received index ``window − 1`` (window full), except the
    fixed detector, which becomes ready after 2 heartbeats.

    ``instruments`` (a :class:`repro.obs.Instruments` bundle) records the
    replay's throughput — heartbeats, wall seconds, heartbeats/second —
    and the resulting QoS per detector family.

    ``prepared`` (a :class:`~repro.detectors.registry.PreparedStage`)
    lets the grid points of one sweep group over ``source`` share the
    kernel's parameter-independent stage; the executors pass one per
    group.  Without it replay passes ``PreparedStage((spec,))``, so the
    kernel builds its stage for this spec alone — the same prepare →
    evaluate code either way, so results are equal bit for bit.  The
    accounting runs on the holder's scratch buffers, and reads the view's
    rising-arrival mask (:func:`_rising`) from the holder's per-trace
    scope; the returned :attr:`ReplayResult.freshness` is the kernel's
    own array, never a scratch.
    """
    # Lazy import: the registry sits above both the detectors and replay
    # layers, so importing it at module scope would be cyclic.
    from repro.detectors import registry

    t0 = time.perf_counter() if instruments is not None else 0.0
    family = registry.get_for_spec(spec)
    view = as_monitor_view(source)
    r0 = max(spec.window, 2) - 1
    if len(view) <= r0 + 1:
        raise ConfigurationError(
            f"view has {len(view)} heartbeats; need more than {r0 + 1} "
            f"for window {spec.window}"
        )
    if prepared is None:
        prepared = registry.PreparedStage((spec,))
    run = family.kernel(view, spec, prepared)
    rising = prepared.shared("rising", lambda: _rising(view))
    with prepared.scratch(len(view) - r0) as scratch:
        qos = _account(view, run.freshness, r0, scratch, rising)
    if instruments is not None:
        instruments.record_replay(
            spec.detector, len(view), time.perf_counter() - t0, qos=qos
        )
    return ReplayResult(
        spec=spec,
        qos=qos,
        freshness=run.freshness,
        warmup_index=r0,
        final_margin=run.final_margin,
        status=run.status,
        feedback=run.feedback,
    )
