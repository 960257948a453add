"""Experiment harness: sweeps, experiment definitions, tables, reports."""

import dataclasses
import math

import pytest

from repro.core import SlotConfig
from repro.errors import ConfigurationError
from repro.qos.spec import QoSRequirements
from repro.analysis import (
    PAPER_TABLE2,
    default_setup,
    format_curve,
    format_figure,
    format_table,
    repro_scale,
    scaled_heartbeats,
    run_figure,
    sweep_curve,
    table1_rows,
    table2_rows,
    window_ablation,
)
from repro.traces import WAN_1, WAN_JAIST, synthesize

REQ = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)


@pytest.fixture(scope="module")
def view(view_factory):
    return view_factory(WAN_1.name, n=12_000, seed=21)


class TestSweeps:
    def test_chen_curve_structure(self, view):
        c = sweep_curve("chen", view, [0.01, 0.1, 0.5], window=200)
        assert c.detector == "chen"
        assert len(c) == 3
        tds = c.detection_times()
        assert tds[0] < tds[1] < tds[2]  # alpha monotonicity

    def test_phi_curve_includes_cutoff(self, view):
        c = sweep_curve("phi", view, [1.0, 8.0, 18.0], window=200)
        assert math.isinf(c.points[-1].detection_time)
        assert len(c.finite()) == 2

    def test_bertier_is_single_point(self, view):
        c = sweep_curve("bertier", view, window=200)
        assert len(c) == 1

    def test_fixed_curve(self, view):
        c = sweep_curve("fixed", view, [0.1, 0.4])
        assert len(c) == 2

    def test_sfd_curve_satisfies_requirements(self, view):
        c = sweep_curve(
            "sfd",
            view,
            [0.005, 0.1, 0.9],
            requirements=REQ,
            window=200,
            slot=SlotConfig(50, reset_on_adjust=True, min_slots=3),
        )
        assert len(c) == 3
        # The self-tuning property: every terminal point is inside (or at
        # least not far outside) the requirement band.
        for p in c.points:
            assert p.detection_time <= 1.2 * REQ.max_detection_time


class TestExperimentSetup:
    def test_scaled_heartbeats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "100")
        assert repro_scale() == 100.0
        assert scaled_heartbeats(WAN_1) == max(
            int(WAN_1.n_heartbeats / 100), 20_000
        )

    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert repro_scale() == 32.0

    def test_scale_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        with pytest.raises(ConfigurationError):
            repro_scale()
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(ConfigurationError):
            repro_scale()

    def test_default_setup_spans_paper_ranges(self):
        s = default_setup(WAN_JAIST)
        assert s.window == 1000
        assert min(s.phi_thresholds) == 0.5
        assert max(s.phi_thresholds) == 16.0
        assert len(s.chen_alphas) >= 10
        assert s.sfd_requirements.max_detection_time == pytest.approx(0.9)

    def test_explicit_heartbeats_override(self):
        s = dataclasses.replace(default_setup(WAN_1), n_heartbeats=12345)
        assert s.heartbeats() == 12345


class TestRunFigure:
    @pytest.fixture(scope="class")
    def result(self):
        setup = dataclasses.replace(
            default_setup(WAN_1, seed=5),
            n_heartbeats=12_000,
            window=300,
            chen_alphas=(0.01, 0.1, 0.5),
            phi_thresholds=(1.0, 4.0),
            sfd_sm1=(0.01, 0.5),
            sfd_slot=SlotConfig(50, reset_on_adjust=True, min_slots=3),
        )
        return run_figure(setup)

    def test_all_series_present(self, result):
        assert set(result.curves) == {"chen", "bertier", "phi", "sfd"}
        assert len(result.curves["chen"]) == 3
        assert len(result.curves["phi"]) == 2
        assert len(result.curves["sfd"]) == 2
        assert len(result.curves["bertier"]) == 1

    def test_shared_trace(self, result):
        assert result.trace.meta["profile"] == "WAN-1"
        assert len(result.view) > 0

    def test_include_fixed(self):
        setup = dataclasses.replace(
            default_setup(WAN_1, seed=5),
            n_heartbeats=12_000,
            window=300,
            chen_alphas=(0.1,),
            phi_thresholds=(2.0,),
            sfd_sm1=(0.1,),
        )
        res = run_figure(setup, include_fixed=True)
        assert "fixed" in res.curves


class TestWindowAblation:
    def test_shape_and_keys(self):
        out = window_ablation(
            WAN_JAIST, window_sizes=(50, 200), n=12_000, seed=3
        )
        assert set(out) == {"chen", "bertier", "phi", "sfd"}
        for per_ws in out.values():
            assert set(per_ws) == {50, 200}


class TestTables:
    def test_table1_covers_planetlab_cases(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert rows[0]["WAN case"] == "WAN-1"
        assert rows[0]["Sender-hostname"] == "planet1.scs.stanford.edu"

    def test_table2_rows_from_traces(self):
        t = synthesize(WAN_1, n=5000, seed=1)
        rows = table2_rows([t])
        assert rows[0]["case"] == "WAN-1"
        assert rows[0]["total (#msg)"] == 5000

    def test_paper_reference_complete(self):
        assert set(PAPER_TABLE2) == {
            "WAN-JAIST",
            "WAN-1",
            "WAN-2",
            "WAN-3",
            "WAN-4",
            "WAN-5",
            "WAN-6",
        }


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "bb": "xx"}, {"a": 222, "bb": "y"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(l) for l in lines[1:]}) == 1  # all rows same width

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_curve_contains_rows(self, view):
        c = sweep_curve("chen", view, [0.1], window=200)
        text = format_curve(c, parameter_name="alpha [s]")
        assert "alpha [s]" in text and "TD [s]" in text

    def test_format_figure_orders_detectors(self, view):
        curves = {
            "chen": sweep_curve("chen", view, [0.1], window=200),
            "sfd": sweep_curve(
                "sfd", view, [0.1], requirements=REQ, window=200,
                slot=SlotConfig(50),
            ),
        }
        text = format_figure(curves, title="Fig")
        assert text.index("sfd") < text.index("chen")
