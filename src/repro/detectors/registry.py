"""The detector-family registry: one descriptor drives every layer.

The paper's generality claim — the self-tuning method "can be used in any
parametric failure detection scheme" (Section IV-A) — only holds in code
if adding a detector family is *one* change, not eight.  This module is
that single point of declaration.  A :class:`DetectorFamily` descriptor
binds together everything the rest of the library needs to host a family:

* the streaming :class:`~repro.detectors.base.FailureDetector` class (the
  semantic reference, deployable on the DES and the asyncio runtime),
* the frozen replay ``*Spec`` dataclass (with ``to_dict``/``from_dict``
  round-tripping for configs and archives),
* the vectorized freshness kernel used by :func:`repro.replay.engine.replay`,
* the default sweep grid, ordered aggressive → conservative (Section V's
  "vary its parameter from a highly aggressive behavior to a very
  conservative one"),
* a spec-string parser (``"phi:threshold=4.0,window=10"``) for CLI flags
  and config files.

Every kernel is ``kernel(view, spec, prepared)``.  A sweep varies one
parameter while the rest of the spec stays fixed, and most families spend
nearly all their time on work that parameter never touches (Chen's
expected arrivals, the NLMS predictor pass, the quantile order statistics).
``prepared`` (a :class:`PreparedStage`) holds that work for one sweep
group: the first grid point builds it and every later one reuses it::

    def kernel(view, spec, prepared):
        stage = prepared.stage(lambda specs: expensive(view, spec.window))
        return KernelRun(cheap(stage, spec.value))

Work that several families share lives one level up, in the holder's
per-trace :attr:`~PreparedStage.scope`: chen, bertier and sfd all read
Chen's ``EA`` through :meth:`PreparedStage.shared` under the key
``("chen_ea", window, nominal_interval)``, so a plan builds it once per
trace, and every point's QoS accounting reads the view's rising-arrival
mask under ``"rising"``.  The holder also lends the accounting that
follows each kernel call a view-length scratch
(:meth:`PreparedStage.scratch`), so a group's later points first-touch
only their own freshness array.

A lone :func:`~repro.replay.engine.replay` passes ``PreparedStage((spec,))``,
with a scope of its own, so it runs the same code as a sweep.  A kernel
with nothing to share takes ``prepared`` and ignores it.

Consumers dispatch through :func:`get` / :func:`get_for_spec` instead of
hard-coding families: the replay engine looks up the kernel, the sweep
harness (:func:`repro.analysis.sweep.sweep_curve`) iterates the grid, the
live runtime builds per-node detectors from parsed spec strings, and the
CLI derives its ``--detector`` option.  Third-party families plug in via
:func:`register` — after which sweeps, benchmarks, the planner, and
``python -m repro`` pick them up with no further edits (the entry-point
registry shape used for models/optimizers in training stacks, and the
extensibility route toward ML-based detectors, cf. Li & Marin 2022).

Import layering: this module sits *above* both :mod:`repro.detectors` and
:mod:`repro.replay` (it imports the spec/kernel layer at module scope);
:mod:`repro.replay.engine` therefore imports it lazily inside
:func:`~repro.replay.engine.replay` to keep the package import graph
acyclic.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.core.feedback import InfeasiblePolicy, SlotConfig
from repro.core.sfd import SFD
from repro.detectors.base import FailureDetector
from repro.detectors.bertier import BertierFD
from repro.detectors.chen import ChenFD
from repro.detectors.fixed import FixedTimeoutFD
from repro.detectors.ml import MLFD
from repro.detectors.phi import PhiFD
from repro.detectors.quantile import QuantileFD
from repro.qos.spec import QoSRequirements
from repro.replay.engine import (
    BertierSpec,
    ChenSpec,
    FixedSpec,
    MLSpec,
    PhiSpec,
    QuantileSpec,
    SFDSpec,
)
from repro.replay.vectorized import (
    KernelRun,
    bertier_evaluate,
    chen_evaluate,
    chen_expected_arrivals,
    fixed_freshness,
    ml_evaluate,
    ml_prediction_arrays,
    phi_evaluate,
    phi_stage,
    quantile_evaluate,
    quantile_stage,
    sfd_evaluate,
    sfd_stage,
)
from repro.traces.trace import MonitorView

__all__ = [
    "KernelRun",
    "PreparedStage",
    "DetectorFamily",
    "register",
    "unregister",
    "get",
    "get_for_spec",
    "families",
    "names",
    "parse_spec",
    "spec_string",
    "make_detector",
    "detector_factory",
]


_UNBUILT = object()


class PreparedStage:
    """Lazy holder of one sweep group's parameter-independent stage.

    A sweep group is every grid point of one sweep over one trace: the
    specs differ only in the swept parameter.  The first kernel call
    computes the stage with :meth:`stage`; every later member of the
    group gets the cached object.  A stage is a deterministic
    function of the view and the group's specs, so attempts that retry or
    race on the same holder see equal values.  :meth:`release` drops the
    stage once the group is done.

    ``scope`` is a dict shared by every holder over the same trace (a
    fresh one by default): :meth:`shared` builds a value once for all of
    them.  It holds Chen's ``EA`` per ``(window, nominal_interval)`` and
    the view's rising-arrival mask ``A[1:] > A[:-1]`` that every point's
    accounting reads (:func:`repro.replay.engine.replay`), both
    read-only.  Whoever creates the holders clears the scope after the
    last group over its trace.  :meth:`scratch` lends the group's
    reusable accounting buffers.
    """

    __slots__ = ("specs", "scope", "_stage", "_spare")

    def __init__(self, specs: Iterable[Any], scope: dict | None = None):
        self.specs = tuple(specs)
        self.scope = {} if scope is None else scope
        self._stage: Any = _UNBUILT
        self._spare: list[tuple[np.ndarray, np.ndarray]] = []

    def stage(self, build: Callable[[tuple], Any]) -> Any:
        """The cached stage, computed as ``build(self.specs)`` on first use."""
        if self._stage is _UNBUILT:
            self._stage = build(self.specs)
        return self._stage

    def shared(self, key: Any, build: Callable[[], Any]) -> Any:
        """``scope[key]``, computed as ``build()`` by the first holder over
        the trace that asks; like a stage, a pure function of the view."""
        value = self.scope.get(key, _UNBUILT)
        if value is _UNBUILT:
            value = self.scope[key] = build()
        return value

    @contextmanager
    def scratch(self, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Lend a ``(float64, bool)`` buffer pair of ``size`` elements.

        A pair is checked out for the ``with`` block and handed back after
        it, so the group's later calls reuse it.  Checking out takes the
        spare pair off the holder (``list.pop`` is one atomic step), so a
        call that never hands its pair back, such as an attempt abandoned
        on a timed-out thread, keeps it to itself and the next call gets a
        fresh one.  The contents are undefined on entry.
        """
        try:
            floats, flags = self._spare.pop()
        except IndexError:
            floats = flags = None
        if floats is None or floats.size != size:
            floats = np.empty(size, dtype=np.float64)
            flags = np.empty(size, dtype=bool)
        try:
            yield floats, flags
        finally:
            if not self._spare:
                self._spare.append((floats, flags))

    def release(self) -> None:
        """Drop the stage and the scratch buffers."""
        self._stage = _UNBUILT
        self._spare.clear()


def _coerce_value(raw: str) -> Any:
    """Parse one ``key=value`` right-hand side from a spec string."""
    low = raw.strip().lower()
    if low in ("none", "null"):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    if low == "inf":
        return math.inf
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw.strip()


@dataclass(frozen=True)
class DetectorFamily:
    """Descriptor binding one detector family across every layer.

    Attributes
    ----------
    name:
        Canonical family name (the ``Spec.detector`` tag, the curve label,
        and the spec-string prefix).
    summary:
        One-line description for ``--detector`` help and docs.
    streaming_cls:
        The event-driven :class:`~repro.detectors.base.FailureDetector`.
    spec_cls:
        The frozen replay spec dataclass (must expose ``to_dict`` /
        ``from_dict`` and a ``parameter`` property).
    kernel:
        ``kernel(view, spec, prepared) -> KernelRun``: the closed-form
        vectorized freshness computation replay dispatches to.
        ``prepared`` is the sweep group's :class:`PreparedStage`; the
        kernel gets its parameter-independent stage from
        ``prepared.stage(build)``, or ignores it when it has none.
    default_grid:
        Default sweep values, aggressive → conservative (Section V).
    sweep_param:
        Spec field name the sweep varies (``None`` for single-point
        families like Bertier).
    build:
        ``build(spec) -> FailureDetector``: constructs the streaming
        detector configured exactly like the spec.
    parse_defaults:
        Field values assumed when a spec string omits them (lets a bare
        family name like ``"chen"`` parse).
    normalize:
        Optional hook mapping parsed key/value pairs onto spec-constructor
        kwargs (used by SFD to fold ``td``/``mr``/``qap`` into a
        :class:`~repro.qos.spec.QoSRequirements`, etc.).
    """

    name: str
    summary: str
    streaming_cls: type[FailureDetector]
    spec_cls: type
    kernel: Callable[[MonitorView, Any, PreparedStage], KernelRun]
    default_grid: tuple[float, ...]
    sweep_param: str | None
    build: Callable[[Any], FailureDetector]
    parse_defaults: Mapping[str, Any] = field(default_factory=dict)
    normalize: Callable[[dict[str, Any]], dict[str, Any]] | None = None

    # -- spec construction --------------------------------------------- #

    def make_spec(self, **params: Any):
        """Build this family's replay spec from keyword parameters.

        Unknown keys raise :class:`~repro.errors.ConfigurationError` with
        the accepted field names, so CLI typos fail loudly.
        """
        if self.normalize is not None:
            params = self.normalize(dict(params))
        try:
            return self.spec_cls(**params)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid parameters for detector family {self.name!r}: {exc}"
            ) from exc

    def grid_spec(self, value: float, **params: Any):
        """Spec for one sweep-grid point (``value`` → :attr:`sweep_param`)."""
        if self.sweep_param is not None:
            params = {**params, self.sweep_param: value}
        return self.make_spec(**params)

    # -- streaming construction ---------------------------------------- #

    def make_detector(self, spec=None, **params: Any) -> FailureDetector:
        """Fresh streaming detector configured like ``spec`` (or params)."""
        if spec is None:
            spec = self.make_spec(**params)
        return self.build(spec)

    # -- dict round-tripping ------------------------------------------- #

    def spec_to_dict(self, spec) -> dict[str, Any]:
        return spec.to_dict()

    def spec_from_dict(self, data: Mapping[str, Any]):
        return self.spec_cls.from_dict(data)

    # -- spec-string parsing ------------------------------------------- #

    def parse(self, params: str = ""):
        """Parse the parameter part of a spec string into a spec.

        ``params`` is the text after the family name: empty, a bare value
        for the sweep parameter (``"4.0"``), or comma-separated
        ``key=value`` pairs (``"threshold=4.0,window=10"``).
        """
        kwargs: dict[str, Any] = dict(self.parse_defaults)
        params = params.strip()
        if params:
            for item in params.split(","):
                item = item.strip()
                if not item:
                    continue
                if "=" in item:
                    key, _, raw = item.partition("=")
                    key = key.strip()
                    if not key:
                        raise ConfigurationError(
                            f"empty parameter name in {self.name!r} spec: {item!r}"
                        )
                    kwargs[key] = _coerce_value(raw)
                elif self.sweep_param is not None:
                    kwargs[self.sweep_param] = _coerce_value(item)
                else:
                    raise ConfigurationError(
                        f"detector family {self.name!r} takes no bare value "
                        f"(got {item!r}); use key=value"
                    )
        return self.make_spec(**kwargs)


# --------------------------------------------------------------------- #
# kernel adapters (vectorized layer -> KernelRun)
# --------------------------------------------------------------------- #


def _chen_ea(view: MonitorView, spec, prepared: PreparedStage) -> np.ndarray:
    """Chen's ``EA`` at the spec's window, built once per trace scope and
    read-only, since chen, bertier and sfd groups all read it."""

    def build() -> np.ndarray:
        ea = chen_expected_arrivals(view, spec.window, spec.nominal_interval)
        ea.flags.writeable = False
        return ea

    return prepared.shared(("chen_ea", spec.window, spec.nominal_interval), build)


def _chen_kernel(
    view: MonitorView, spec: ChenSpec, prepared: PreparedStage
) -> KernelRun:
    return KernelRun(chen_evaluate(_chen_ea(view, spec, prepared), spec.alpha))


def _bertier_kernel(
    view: MonitorView, spec: BertierSpec, prepared: PreparedStage
) -> KernelRun:
    return KernelRun(
        bertier_evaluate(
            view,
            _chen_ea(view, spec, prepared),
            beta=spec.beta,
            phi=spec.phi,
            gamma=spec.gamma,
            window=spec.window,
            nominal_interval=spec.nominal_interval,
        )
    )


def _phi_kernel(
    view: MonitorView, spec: PhiSpec, prepared: PreparedStage
) -> KernelRun:
    stage = prepared.stage(lambda specs: phi_stage(view, spec.window))
    return KernelRun(phi_evaluate(stage, spec.threshold))


def _quantile_kernel(
    view: MonitorView, spec: QuantileSpec, prepared: PreparedStage
) -> KernelRun:
    stage = prepared.stage(
        lambda specs: quantile_stage(
            view, [s.quantile for s in specs], window=spec.window
        )
    )
    return KernelRun(quantile_evaluate(view, stage, spec.quantile))


def _fixed_kernel(
    view: MonitorView, spec: FixedSpec, prepared: PreparedStage
) -> KernelRun:
    return KernelRun(fixed_freshness(view, spec.timeout))


def _ml_kernel(
    view: MonitorView, spec: MLSpec, prepared: PreparedStage
) -> KernelRun:
    stage = prepared.stage(
        lambda specs: ml_prediction_arrays(
            view, lr=spec.lr, window=spec.window, decay=spec.decay
        )
    )
    return KernelRun(ml_evaluate(view, stage, spec.margin))


def _sfd_kernel(
    view: MonitorView, spec: SFDSpec, prepared: PreparedStage
) -> KernelRun:
    stage = prepared.stage(
        lambda specs: sfd_stage(
            view,
            _chen_ea(view, spec, prepared),
            window=spec.window,
            heartbeats=spec.slot.heartbeats,
        )
    )
    return sfd_evaluate(
        view,
        stage,
        spec.requirements,
        sm1=spec.sm1,
        alpha=spec.alpha,
        beta=spec.beta,
        slot=spec.slot,
        policy=spec.policy,
        sm_bounds=spec.sm_bounds,
    )


# --------------------------------------------------------------------- #
# streaming builders (spec -> configured FailureDetector)
# --------------------------------------------------------------------- #


def _build_chen(spec: ChenSpec) -> ChenFD:
    return ChenFD(
        spec.alpha, window_size=spec.window, nominal_interval=spec.nominal_interval
    )


def _build_bertier(spec: BertierSpec) -> BertierFD:
    return BertierFD(
        beta=spec.beta,
        phi=spec.phi,
        gamma=spec.gamma,
        window_size=spec.window,
        nominal_interval=spec.nominal_interval,
    )


def _build_phi(spec: PhiSpec) -> PhiFD:
    return PhiFD(spec.threshold, window_size=spec.window)


def _build_quantile(spec: QuantileSpec) -> QuantileFD:
    return QuantileFD(spec.quantile, window_size=spec.window)


def _build_fixed(spec: FixedSpec) -> FixedTimeoutFD:
    return FixedTimeoutFD(spec.timeout)


def _build_ml(spec: MLSpec) -> MLFD:
    return MLFD(
        spec.margin, lr=spec.lr, window_size=spec.window, decay=spec.decay
    )


def _build_sfd(spec: SFDSpec) -> SFD:
    return SFD(
        spec.requirements,
        sm1=spec.sm1,
        alpha=spec.alpha,
        beta=spec.beta,
        window_size=spec.window,
        nominal_interval=spec.nominal_interval,
        slot=spec.slot,
        policy=spec.policy,
        sm_bounds=spec.sm_bounds,
    )


def _normalize_sfd(params: dict[str, Any]) -> dict[str, Any]:
    """Fold flat spec-string keys into SFDSpec's nested configuration.

    Accepted shorthands: ``td``/``mr``/``qap`` (the required QoS bounds of
    Eq. 1), ``slot`` (heartbeats per tuning slot), ``sm_min``/``sm_max``
    (margin clamp), ``policy`` (an :class:`InfeasiblePolicy` value name).
    """
    req = params.pop("requirements", None)
    td = params.pop("td", params.pop("max_detection_time", None))
    mr = params.pop("mr", params.pop("max_mistake_rate", None))
    qap = params.pop("qap", params.pop("min_query_accuracy", None))
    if req is None:
        base = _SFD_DEFAULT_REQUIREMENTS
        req = QoSRequirements(
            max_detection_time=base.max_detection_time if td is None else float(td),
            max_mistake_rate=base.max_mistake_rate if mr is None else float(mr),
            min_query_accuracy=base.min_query_accuracy if qap is None else float(qap),
        )
    elif td is not None or mr is not None or qap is not None:
        raise ConfigurationError(
            "give either requirements= or td/mr/qap shorthands, not both"
        )
    params["requirements"] = req
    slot = params.pop("slot", None)
    if isinstance(slot, int):
        slot = SlotConfig(heartbeats=slot)
    if slot is not None:
        params["slot"] = slot
    lo = params.pop("sm_min", None)
    hi = params.pop("sm_max", None)
    if lo is not None or hi is not None:
        params["sm_bounds"] = (
            0.0 if lo is None else float(lo),
            math.inf if hi is None else float(hi),
        )
    policy = params.get("policy")
    if isinstance(policy, str):
        try:
            params["policy"] = InfeasiblePolicy(policy.lower())
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown infeasible policy {policy!r}; choose from "
                f"{', '.join(p.value for p in InfeasiblePolicy)}"
            ) from exc
    return params


#: The QoS band the repo's experiments target (Section V-A2/V-B2: detection
#: within ~0.9 s at high accuracy) — used when an SFD spec string names no
#: explicit requirement.
_SFD_DEFAULT_REQUIREMENTS = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)


# --------------------------------------------------------------------- #
# the registry proper
# --------------------------------------------------------------------- #

_REGISTRY: dict[str, DetectorFamily] = {}


def register(family: DetectorFamily, *, replace: bool = False) -> DetectorFamily:
    """Register a family (the third-party extension hook).

    After registration the family is live everywhere the registry is
    consulted: ``replay()`` accepts its spec, ``sweep_curve`` sweeps its
    grid, the CLI's ``--detector`` parses its spec strings, and the live
    runtime builds its streaming detectors.
    """
    if not family.name or not family.name.isidentifier():
        raise ConfigurationError(
            f"family name must be a valid identifier, got {family.name!r}"
        )
    if family.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"detector family {family.name!r} is already registered "
            "(pass replace=True to override)"
        )
    spec_detector = getattr(family.spec_cls, "detector", None)
    if spec_detector != family.name:
        raise ConfigurationError(
            f"spec class {family.spec_cls.__name__} tags detector="
            f"{spec_detector!r}, expected {family.name!r}"
        )
    _REGISTRY[family.name] = family
    return family


def unregister(name: str) -> None:
    """Remove a registered family (mainly for tests of the plugin hook)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> DetectorFamily:
    """Look up a family by name; unknown names list the registered ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector family {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def get_for_spec(spec) -> DetectorFamily:
    """The family a replay spec belongs to (via its ``detector`` tag)."""
    name = getattr(spec, "detector", None)
    if not isinstance(name, str):
        raise ConfigurationError(
            f"{type(spec).__name__} carries no detector family tag"
        )
    return get(name)


def families() -> tuple[DetectorFamily, ...]:
    """Every registered family, registration order."""
    return tuple(_REGISTRY.values())


def names() -> tuple[str, ...]:
    """Registered family names, registration order."""
    return tuple(_REGISTRY)


def parse_spec(text: str):
    """Parse a full spec string: ``"family"`` or ``"family:params"``.

    Examples::

        parse_spec("phi:threshold=4.0,window=10")
        parse_spec("chen:alpha=0.5")
        parse_spec("chen:0.5")              # bare value -> sweep parameter
        parse_spec("sfd:td=0.9,mr=0.35,qap=0.99,slot=100")
        parse_spec("bertier")               # defaults only
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError(f"empty detector spec {text!r}")
    name, _, params = text.partition(":")
    return get(name.strip()).parse(params)


def spec_string(spec) -> str:
    """Canonical spec string for a spec (inverse of :func:`parse_spec`).

    Only fields differing from the family's construction defaults are
    emitted, so round-tripping ``parse_spec(spec_string(s))`` reproduces
    ``s`` while staying readable.  Nested SFD fields are flattened to the
    ``td``/``mr``/``qap``/``slot`` shorthands where possible.
    """
    family = get_for_spec(spec)
    data = spec.to_dict()
    data.pop("detector", None)
    parts = []
    if family.name == "sfd":
        req = data.pop("requirements")
        parts += [
            f"td={req['max_detection_time']!r}",
            f"mr={req['max_mistake_rate']!r}",
            f"qap={req['min_query_accuracy']!r}",
        ]
        slot = data.pop("slot")
        parts.append(f"slot={slot['heartbeats']}")
        data.pop("sm_bounds", None)
        data.pop("policy", None)
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, float):
            # `repr` is the shortest exact round-trip form: ``float(repr(x))
            # == x`` for every finite x, where ``%g`` truncates to 6
            # significant digits and silently shifts dense sweep-grid
            # values through parse(format(spec)).
            parts.append(f"{key}={value!r}")
        else:
            parts.append(f"{key}={value}")
    return f"{family.name}:{','.join(parts)}" if parts else family.name


def make_detector(spec_or_string) -> FailureDetector:
    """Fresh streaming detector from a spec object or spec string."""
    spec = (
        parse_spec(spec_or_string)
        if isinstance(spec_or_string, str)
        else spec_or_string
    )
    return get_for_spec(spec).make_detector(spec)


def detector_factory(spec_or_string) -> Callable[[Any], FailureDetector]:
    """Per-node factory (``factory(node_id) -> FailureDetector``).

    Accepts a spec string or spec object; every call builds an
    *independent* detector, which is what membership tables and live
    monitors need.  This is how the runtime/cluster layers accept plain
    strings wherever a ``detector_factory`` callable is expected.
    """
    spec = (
        parse_spec(spec_or_string)
        if isinstance(spec_or_string, str)
        else spec_or_string
    )
    family = get_for_spec(spec)

    def factory(_node_id) -> FailureDetector:
        return family.make_detector(spec)

    factory.spec = spec  # type: ignore[attr-defined] # introspectable for logs
    return factory


def as_factory(factory_or_spec) -> Callable[[Any], FailureDetector]:
    """Coerce ``Callable | Spec | str`` to a detector factory."""
    if callable(factory_or_spec):
        return factory_or_spec
    return detector_factory(factory_or_spec)


def _grid(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


# --------------------------------------------------------------------- #
# built-in families (Section V's cast plus the repo's baselines)
# --------------------------------------------------------------------- #

CHEN = register(
    DetectorFamily(
        name="chen",
        summary="Chen FD: windowed arrival estimator + constant margin α (Eqs. 2-3)",
        streaming_cls=ChenFD,
        spec_cls=ChenSpec,
        kernel=_chen_kernel,
        # The paper sweeps α ∈ [0, 10000] ms; geometric spacing because the
        # MR axis is logarithmic (see analysis.experiments.default_setup
        # for the profile-aware version).
        default_grid=_grid(np.geomspace(1e-3, 0.9, 16)),
        sweep_param="alpha",
        build=_build_chen,
        parse_defaults={"alpha": 0.1},
    )
)

BERTIER = register(
    DetectorFamily(
        name="bertier",
        summary="Bertier FD: Chen estimator + Jacobson margin (one point, Eqs. 4-8)",
        streaming_cls=BertierFD,
        spec_cls=BertierSpec,
        kernel=_bertier_kernel,
        default_grid=(0.0,),  # "it has no dynamic parameters" (Section V-A2)
        sweep_param=None,
        build=_build_bertier,
    )
)

PHI = register(
    DetectorFamily(
        name="phi",
        summary="φ accrual FD of Hayashibara et al. (Eqs. 9-10)",
        streaming_cls=PhiFD,
        spec_cls=PhiSpec,
        kernel=_phi_kernel,
        # Φ ∈ [0.5, 16] including values past the float64 inversion cutoff,
        # which terminate the curve exactly as in the paper.
        default_grid=_grid((0.5, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16)),
        sweep_param="threshold",
        build=_build_phi,
        parse_defaults={"threshold": 4.0},
    )
)

QUANTILE = register(
    DetectorFamily(
        name="quantile",
        summary="nonparametric quantile-timeout FD (the [34-35] family)",
        streaming_cls=QuantileFD,
        spec_cls=QuantileSpec,
        kernel=_quantile_kernel,
        default_grid=_grid((0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999, 1.0)),
        sweep_param="quantile",
        build=_build_quantile,
        parse_defaults={"quantile": 0.99},
    )
)

FIXED = register(
    DetectorFamily(
        name="fixed",
        summary="fixed-timeout baseline (Section II-B's static freshness interval)",
        streaming_cls=FixedTimeoutFD,
        spec_cls=FixedSpec,
        kernel=_fixed_kernel,
        default_grid=_grid(np.geomspace(0.05, 2.0, 12)),
        sweep_param="timeout",
        build=_build_fixed,
        parse_defaults={"timeout": 1.0},
    )
)

SFD_FAMILY = register(
    DetectorFamily(
        name="sfd",
        summary="the paper's Self-tuning FD: Chen estimator + QoS feedback margin",
        streaming_cls=SFD,
        spec_cls=SFDSpec,
        kernel=_sfd_kernel,
        # SM₁ list rising through the same span as Chen's α (Section V:
        # "SM₁ gradually increases"); every run self-tunes toward the
        # requirement, so the curve occupies only the target band.
        default_grid=_grid(np.geomspace(1e-3, 0.9, 10)),
        sweep_param="sm1",
        build=_build_sfd,
        normalize=_normalize_sfd,
    )
)

ML = register(
    DetectorFamily(
        name="ml",
        summary="learned FD: online NLMS arrival prediction + jitter-scaled margin (Li & Marin)",
        streaming_cls=MLFD,
        spec_cls=MLSpec,
        kernel=_ml_kernel,
        # Margin in learned-jitter units, aggressive → conservative: 0
        # trusts the raw prediction; the top of the range is comparable to
        # φ's most conservative finite thresholds on the WAN traces.
        default_grid=_grid((0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)),
        sweep_param="margin",
        build=_build_ml,
        parse_defaults={"margin": 2.0},
    )
)
