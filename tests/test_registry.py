"""The detector-family registry: completeness, parsing, round-trips,
dispatch, and the third-party ``register`` hook.

The completeness tests are tier-1 guards for the "one descriptor drives
every layer" invariant: every registered family must expose a streaming
class, a round-trippable replay spec, a vectorized kernel, and an
aggressive→conservative sweep grid — because replay, sweeps, the runtime,
and the CLI all dispatch through these bindings blindly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import InfeasiblePolicy, SlotConfig
from repro.detectors import registry
from repro.detectors.base import FailureDetector
from repro.detectors.chen import ChenFD
from repro.detectors.fixed import FixedTimeoutFD
from repro.detectors.phi import PhiFD
from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentPlan,
    FailurePolicy,
    ProcessPoolExecutor,
    SerialExecutor,
)
from repro.qos.spec import QoSRequirements
from repro.replay import (
    BertierSpec,
    ChenSpec,
    FixedSpec,
    MLSpec,
    PhiSpec,
    QuantileSpec,
    ReplaySpec,
    SFDSpec,
    fixed_freshness,
    replay,
)
from repro.analysis.sweep import sweep_curve

BUILTIN = ("chen", "bertier", "phi", "quantile", "fixed", "sfd", "ml")

REQ = QoSRequirements(
    max_detection_time=0.8, max_mistake_rate=0.3, min_query_accuracy=0.98
)

ROUND_TRIP_SPECS = [
    ChenSpec(alpha=0.25, window=120),
    BertierSpec(beta=1.5, phi=3.0, gamma=0.2, window=80),
    PhiSpec(threshold=6.0, window=64),
    QuantileSpec(quantile=0.97, window=128),
    FixedSpec(timeout=0.4),
    MLSpec(margin=1.5, lr=0.1, window=32, decay=0.2),
    SFDSpec(
        requirements=REQ,
        sm1=0.02,
        alpha=0.2,
        window=150,
        slot=SlotConfig(heartbeats=50, reset_on_adjust=True, min_slots=2),
        policy=InfeasiblePolicy.HOLD,
        sm_bounds=(0.0, 5.0),
    ),
]

# spec_string flattens SFD to the td/mr/qap/slot shorthands, so its exact
# string round-trip holds for specs using default policy/bounds/slot flags.
STRING_SPECS = ROUND_TRIP_SPECS[:-1] + [
    SFDSpec(
        requirements=REQ,
        sm1=0.02,
        alpha=0.2,
        window=150,
        slot=SlotConfig(heartbeats=50),
    )
]


class TestCompleteness:
    def test_builtin_families_registered(self):
        assert registry.names() == BUILTIN

    @pytest.mark.parametrize("name", BUILTIN)
    def test_descriptor_bindings(self, name):
        fam = registry.get(name)
        assert fam.name == name
        assert issubclass(fam.streaming_cls, FailureDetector)
        assert issubclass(fam.spec_cls, ReplaySpec)
        assert fam.spec_cls.detector == name
        assert callable(fam.kernel)
        assert callable(fam.build)
        assert len(fam.default_grid) >= 1
        # Section V ordering: aggressive -> conservative.
        grid = np.asarray(fam.default_grid)
        assert (np.diff(grid) >= 0).all()
        if fam.sweep_param is not None:
            fields = {f.name for f in dataclasses.fields(fam.spec_cls)}
            assert fam.sweep_param in fields

    @pytest.mark.parametrize("name", BUILTIN)
    def test_defaults_build_a_streaming_detector(self, name):
        fam = registry.get(name)
        spec = fam.parse("")
        det = fam.make_detector(spec)
        assert isinstance(det, fam.streaming_cls)
        # Every call yields an independent instance (per-node semantics).
        assert fam.make_detector(spec) is not det

    def test_unknown_family_lists_registered(self):
        with pytest.raises(ConfigurationError, match="chen"):
            registry.get("nosuch")

    def test_get_for_spec_rejects_untagged(self):
        with pytest.raises(ConfigurationError, match="no detector family tag"):
            registry.get_for_spec(object())


class TestDictRoundTrip:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=lambda s: s.detector)
    def test_from_dict_inverts_to_dict(self, spec):
        fam = registry.get_for_spec(spec)
        data = fam.spec_to_dict(spec)
        assert data["detector"] == fam.name
        assert fam.spec_from_dict(data) == spec

    def test_wrong_tag_rejected(self):
        data = PhiSpec(threshold=4.0).to_dict()
        with pytest.raises(ConfigurationError, match="cannot load"):
            ChenSpec.from_dict(data)

    def test_unknown_field_rejected(self):
        data = ChenSpec(alpha=0.1).to_dict()
        data["bogus"] = 1
        with pytest.raises(ConfigurationError, match="bogus"):
            ChenSpec.from_dict(data)

    def test_sfd_nested_fields_survive(self):
        spec = ROUND_TRIP_SPECS[-1]
        back = SFDSpec.from_dict(spec.to_dict())
        assert back.requirements == REQ
        assert back.slot == spec.slot
        assert back.policy is InfeasiblePolicy.HOLD
        assert back.sm_bounds == (0.0, 5.0)

    def test_sfd_malformed_nested_rejected(self):
        data = ROUND_TRIP_SPECS[-1].to_dict()
        data["requirements"] = {"max_detection_time": 0.8, "bogus": 1}
        with pytest.raises(ConfigurationError):
            SFDSpec.from_dict(data)


class TestSpecStrings:
    def test_parse_key_values(self):
        assert registry.parse_spec("phi:threshold=4.0,window=10") == PhiSpec(
            threshold=4.0, window=10
        )

    def test_bare_value_goes_to_sweep_param(self):
        assert registry.parse_spec("chen:0.5") == ChenSpec(alpha=0.5)

    def test_bare_family_uses_defaults(self):
        assert registry.parse_spec("bertier") == BertierSpec()
        assert registry.parse_spec("phi") == PhiSpec(threshold=4.0)

    def test_none_coercion(self):
        spec = registry.parse_spec("chen:alpha=0.2,nominal_interval=none")
        assert spec.nominal_interval is None

    def test_sfd_shorthands(self):
        spec = registry.parse_spec("sfd:td=0.9,mr=0.35,qap=0.99,slot=100")
        assert spec.requirements == QoSRequirements(
            max_detection_time=0.9,
            max_mistake_rate=0.35,
            min_query_accuracy=0.99,
        )
        assert spec.slot.heartbeats == 100

    def test_sfd_policy_and_bounds(self):
        spec = registry.parse_spec("sfd:policy=hold,sm_max=2.0")
        assert spec.policy is InfeasiblePolicy.HOLD
        assert spec.sm_bounds == (0.0, 2.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "nosuch:alpha=1",
            "bertier:1.5",  # no sweep parameter to absorb a bare value
            "chen:bogus=1",
            "phi:=3",
            "sfd:policy=explode",
        ],
    )
    def test_bad_strings_raise(self, bad):
        with pytest.raises(ConfigurationError):
            registry.parse_spec(bad)

    @pytest.mark.parametrize("spec", STRING_SPECS, ids=lambda s: s.detector)
    def test_spec_string_round_trip(self, spec):
        text = registry.spec_string(spec)
        assert text.startswith(f"{spec.detector}")
        assert registry.parse_spec(text) == spec

    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_grid_spec_strings_round_trip(self, name):
        # parse(format(spec)) == spec at *every* default-grid point of
        # every registered family — formatter/parser drift anywhere in
        # the registry (e.g. %g truncating dense grid values) fails here
        # rather than surfacing as a subtly different sweep.
        fam = registry.get(name)
        params = {"requirements": REQ} if name == "sfd" else {}
        for value in fam.default_grid:
            spec = fam.grid_spec(float(value), **params)
            text = registry.spec_string(spec)
            assert registry.parse_spec(text) == spec, (name, value, text)


class TestFactories:
    def test_detector_factory_from_string(self):
        factory = registry.detector_factory("phi:threshold=6.0,window=32")
        d1, d2 = factory("node-a"), factory("node-b")
        assert isinstance(d1, PhiFD) and isinstance(d2, PhiFD)
        assert d1 is not d2
        assert d1.threshold == 6.0
        assert factory.spec == PhiSpec(threshold=6.0, window=32)

    def test_make_detector_from_spec_object(self):
        det = registry.make_detector(ChenSpec(alpha=0.3, window=50))
        assert isinstance(det, ChenFD)
        assert det.alpha == 0.3

    def test_as_factory_passes_callables_through(self):
        def factory(node_id):
            return FixedTimeoutFD(1.0)

        assert registry.as_factory(factory) is factory
        built = registry.as_factory("fixed:timeout=0.5")("n")
        assert isinstance(built, FixedTimeoutFD)


# The sweep-equivalence parametrization iterates ``registry.names()``,
# not this dict, so a new family lands in the harness the moment it is
# registered and fails (via ``sweep_case``) until it gets an entry here.
SWEEP_CASES = {
    "chen": ((0.05, 0.2), {"window": 100}),
    "phi": ((1.0, 4.0), {"window": 100}),
    "bertier": ((0.0,), {"window": 100}),
    "quantile": ((0.9, 0.99), {"window": 100}),
    "fixed": ((0.1, 0.5), {}),
    "ml": ((0.0, 2.0), {"window": 16}),
    "sfd": ((0.01, 0.1), {"requirements": REQ, "window": 100}),
}


def sweep_case(name: str):
    try:
        return SWEEP_CASES[name]
    except KeyError:
        pytest.fail(
            f"registered family {name!r} has no SWEEP_CASES entry; the "
            "sweep-vs-replay harness must stay exhaustive"
        )


class TestSweepEquivalence:
    """The generic sweep is nothing but per-point replays, in grid order.

    Registry-driven replacement for the retired per-family shim tests:
    for *every* registered family the curve from :func:`sweep_curve`
    must equal, point for point and bit for bit, a direct
    :func:`replay` of the family's ``grid_spec`` at each value.
    """

    def test_every_registered_family_has_a_case(self):
        # Set equality both ways: a missing case is a harness hole, a
        # stale case is a family removed without cleaning up here.
        assert set(SWEEP_CASES) == set(registry.names())

    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_sweep_equals_per_point_replays(self, small_view, name):
        grid, params = sweep_case(name)
        fam = registry.get(name)
        curve = sweep_curve(name, small_view, grid, **params)
        assert curve.detector == name
        assert [p.parameter for p in curve.points] == [float(v) for v in grid]
        for value, point in zip(grid, curve.points):
            spec = fam.grid_spec(float(value), **params)
            assert point.qos == replay(spec, small_view).qos

    @pytest.mark.parametrize("executor", ["serial", "pool"])
    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_grouped_executors_equal_per_point_replays(
        self, small_view, name, executor
    ):
        # A sweep runs as one group on one shared stage; each point must
        # still equal its own stand-alone replay, on both executors.
        grid, params = sweep_case(name)
        fam = registry.get(name)
        plan = ExperimentPlan().add_trace("t", small_view)
        plan.add_sweep("t", name, grid, **params)
        runner = SerialExecutor() if executor == "serial" else ProcessPoolExecutor(jobs=2)
        curve = plan.run(runner).curve("t", name)
        assert [p.qos for p in curve.points] == [
            replay(fam.grid_spec(float(v), **params), small_view).qos for v in grid
        ]

    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_shared_stage_equals_holderless_kernels(self, small_view, name):
        grid, params = sweep_case(name)
        fam = registry.get(name)
        specs = [fam.grid_spec(float(v), **params) for v in grid]
        holder = registry.PreparedStage(specs)
        for spec in specs:
            alone = replay(spec, small_view).freshness
            shared = replay(spec, small_view, prepared=holder).freshness
            assert np.array_equal(shared, alone, equal_nan=True)

    def test_single_point_families_ignore_the_grid_value(self, small_view):
        # Bertier has no sweep parameter: the grid value labels the point
        # but the spec is the same either way.
        a = sweep_curve("bertier", small_view, (0.0,), window=100)
        b = sweep_curve("bertier", small_view, (7.0,), window=100)
        assert len(a) == len(b) == 1
        assert a.points[0].qos == b.points[0].qos

    def test_default_grid_used_when_none(self, small_view):
        fam = registry.get("fixed")
        curve = sweep_curve("fixed", small_view)
        assert [p.parameter for p in curve.points] == list(fam.default_grid)


# Grids with one invalid member (index 1): it must fail alone, never the
# stage its siblings share.
ISOLATION_CASES = {
    "quantile": ((0.9, 1.5, 0.99), {"window": 100}),
    "ml": ((0.5, -1.0, 2.0), {"window": 16}),
    "phi": ((1.0, 0.0, 4.0), {"window": 100}),
}


class TestGroupIsolation:
    @pytest.mark.parametrize("executor", ["serial", "pool"])
    @pytest.mark.parametrize("name", sorted(ISOLATION_CASES))
    def test_invalid_member_is_quarantined_alone(self, small_view, name, executor):
        grid, params = ISOLATION_CASES[name]
        plan = ExperimentPlan().add_trace("t", small_view)
        plan.add_sweep("t", name, grid, **params)
        runner = SerialExecutor() if executor == "serial" else ProcessPoolExecutor(jobs=2)
        result = plan.run(runner, policy=FailurePolicy(mode="continue"))
        assert [f.job.index for f in result.failures] == [1]
        assert "ConfigurationError" in result.failures.failures[0].traceback
        clean = ExperimentPlan().add_trace("t", small_view)
        clean.add_sweep("t", name, grid[::2], **params)
        got = result.curve("t", name).points
        want = clean.run().curve("t", name).points
        assert [(p.parameter, p.qos) for p in got] == [
            (p.parameter, p.qos) for p in want
        ]


# Spec params (besides ``window``) for the invalid-window harness, which
# also iterates ``registry.names()``.
WINDOW_CASES = {
    "chen": {"alpha": 0.1},
    "bertier": {},
    "phi": {"threshold": 4.0},
    "quantile": {"quantile": 0.99},
    "fixed": {"timeout": 0.5},
    "ml": {"margin": 2.0},
    "sfd": {"requirements": REQ},
}


def window_case(name: str):
    try:
        return WINDOW_CASES[name]
    except KeyError:
        pytest.fail(
            f"registered family {name!r} has no WINDOW_CASES entry; the "
            "invalid-window harness must stay exhaustive"
        )


class TestInvalidWindow:
    """A non-positive window is a configuration error on both planes —
    never a numpy exception, a warning, or a NaN QoS report."""

    def test_every_registered_family_has_a_case(self):
        assert set(WINDOW_CASES) == set(registry.names())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("window", [0, -3])
    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_rejected_by_replay_and_make_detector(self, small_view, name, window):
        params = window_case(name)
        fam = registry.get(name)
        # Rejected for its value, not as an unknown spec field.
        assert "window" in {f.name for f in dataclasses.fields(fam.spec_cls)}
        with pytest.raises(ConfigurationError, match="window"):
            replay(fam.make_spec(**params, window=window), small_view)
        with pytest.raises(ConfigurationError, match="window"):
            registry.make_detector(fam.make_spec(**params, window=window))


@dataclasses.dataclass(frozen=True, slots=True)
class DoubleSpec(ReplaySpec):
    """Toy third-party spec: a fixed timeout applied at twice the value."""

    timeout: float = 0.5

    detector = "double"
    window = 2

    @property
    def parameter(self) -> float:
        return self.timeout


def _double_kernel(view, spec, prepared):
    return registry.KernelRun(fixed_freshness(view, 2.0 * spec.timeout))


def _double_family(name: str = "double") -> registry.DetectorFamily:
    return registry.DetectorFamily(
        name=name,
        summary="toy doubled-timeout family (plugin-hook test)",
        streaming_cls=FixedTimeoutFD,
        spec_cls=DoubleSpec,
        kernel=_double_kernel,
        default_grid=(0.1, 0.2),
        sweep_param="timeout",
        build=lambda s: FixedTimeoutFD(2.0 * s.timeout),
        parse_defaults={"timeout": 0.5},
    )


class TestRegisterHook:
    def test_registered_family_is_live_everywhere(self, small_view):
        registry.register(_double_family())
        try:
            # Spec strings parse.
            spec = registry.parse_spec("double:0.3")
            assert spec == DoubleSpec(timeout=0.3)
            # Replay dispatches to the plugin kernel.
            res = replay(spec, small_view)
            ref = replay(FixedSpec(timeout=0.6), small_view)
            np.testing.assert_allclose(res.freshness, ref.freshness)
            # Sweeps pick up the default grid.
            curve = sweep_curve("double", small_view)
            assert [p.parameter for p in curve.points] == [0.1, 0.2]
            # The runtime factory path builds the streaming class.
            det = registry.make_detector("double:timeout=0.25")
            assert isinstance(det, FixedTimeoutFD)
        finally:
            registry.unregister("double")
        with pytest.raises(ConfigurationError):
            registry.get("double")

    def test_duplicate_name_needs_replace(self):
        registry.register(_double_family())
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                registry.register(_double_family())
            registry.register(_double_family(), replace=True)
        finally:
            registry.unregister("double")

    def test_name_must_be_identifier(self):
        with pytest.raises(ConfigurationError, match="identifier"):
            registry.register(_double_family(name="no good"))

    def test_spec_tag_must_match_name(self):
        with pytest.raises(ConfigurationError, match="tags detector"):
            registry.register(_double_family(name="triple"))
