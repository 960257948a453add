"""The experiment engine: plans, executors, archiving, config runs.

The load-bearing guarantees tested here:

* plan expansion is deterministic (declaration order × grid order),
* :class:`SerialExecutor` and :class:`ProcessPoolExecutor` produce
  **bit-identical** curves for the same plan (the figure-reproducibility
  contract),
* a failing job surfaces as :class:`JobFailedError` carrying the
  offending spec and the worker traceback instead of hanging the pool,
* every registry spec and :class:`MonitorView` survive pickling (the
  process-fan-out prerequisite),
* curve archives and TOML configs round-trip losslessly, and
* cached runs (:class:`~repro.exp.cache.SweepCache`) replay nothing on a
  warm pass yet reassemble curves bit-identical to the cold one, and any
  damaged or stale cache entry degrades to a miss, never a crash.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import time
import weakref

import numpy as np
import pytest

from repro.detectors import registry
from repro.errors import ConfigurationError
from repro.exp import (
    CACHE_FORMAT,
    ExperimentPlan,
    JobFailedError,
    ProcessPoolExecutor,
    SerialExecutor,
    SweepCache,
    archive_curves,
    load_config,
    load_curve,
    run_config,
)
from repro.exp.archive import curve_from_dict, curve_to_dict
from repro.qos.area import QoSCurve
from repro.qos.spec import QoSReport, QoSRequirements
from repro.replay import ChenSpec
from repro.traces.columnar import FileIdentity, TraceStore, write_columnar
from repro.traces.trace import HeartbeatTrace, MonitorView

from conftest import outlast_timestamps

REQ = QoSRequirements(
    max_detection_time=0.8, max_mistake_rate=0.3, min_query_accuracy=0.98
)


def small_plan(view) -> ExperimentPlan:
    """A multi-family plan small enough for the process-pool tests."""
    plan = ExperimentPlan().add_trace("t", view)
    plan.add_sweep("t", "chen", (0.05, 0.2, 0.5), window=100)
    plan.add_sweep("t", "phi", (1.0, 4.0), window=100)
    plan.add_sweep("t", "bertier", window=100)
    plan.add_sweep("t", "sfd", (0.01, 0.1), requirements=REQ, window=100)
    return plan


class TestPlanMechanics:
    def test_len_and_job_expansion_order(self, small_view):
        plan = small_plan(small_view)
        jobs = plan.jobs()
        assert len(plan) == len(jobs) == 8
        assert [j.index for j in jobs] == list(range(8))
        assert [j.sweep for j in jobs] == (
            ["chen"] * 3 + ["phi"] * 2 + ["bertier"] + ["sfd"] * 2
        )
        assert [j.parameter for j in jobs[:3]] == [0.05, 0.2, 0.5]
        # Fixed params land in every point's spec.
        assert all(j.spec.window == 100 for j in jobs)

    def test_grid_defaults_to_registry_grid(self, small_view):
        plan = ExperimentPlan().add_trace("t", small_view)
        plan.add_sweep("t", "chen", window=100)
        assert len(plan) == len(registry.get("chen").default_grid)

    def test_duplicate_trace_rejected(self, small_view):
        plan = ExperimentPlan().add_trace("t", small_view)
        with pytest.raises(ConfigurationError, match="already declared"):
            plan.add_trace("t", small_view)

    def test_sweep_over_undeclared_trace_rejected(self, small_view):
        plan = ExperimentPlan()
        with pytest.raises(ConfigurationError, match="undeclared trace"):
            plan.add_sweep("nope", "chen", (0.1,))

    def test_duplicate_sweep_name_rejected(self, small_view):
        plan = ExperimentPlan().add_trace("t", small_view)
        plan.add_sweep("t", "chen", (0.1,), window=100)
        with pytest.raises(ConfigurationError, match="name="):
            plan.add_sweep("t", "chen", (0.5,), window=100)
        # Distinct names allow sweeping one family twice.
        plan.add_sweep("t", "chen", (0.5,), name="chen-2", window=100)
        assert len(plan) == 2

    def test_base_and_params_conflict(self, small_view):
        plan = ExperimentPlan().add_trace("t", small_view)
        base = ChenSpec(alpha=0.1, window=100)
        with pytest.raises(ConfigurationError, match="not both"):
            plan.add_sweep("t", "chen", (0.1,), base=base, window=200)

    def test_base_spec_sweeps_its_parameter(self, small_view):
        plan = ExperimentPlan().add_trace("t", small_view)
        base = ChenSpec(alpha=0.9, window=123)
        plan.add_sweep("t", "chen", (0.05, 0.4), base=base)
        specs = [j.spec for j in plan.jobs()]
        assert [s.alpha for s in specs] == [0.05, 0.4]
        assert all(s.window == 123 for s in specs)

    def test_run_without_sweeps_rejected(self, small_view):
        plan = ExperimentPlan().add_trace("t", small_view)
        with pytest.raises(ConfigurationError, match="no sweeps"):
            plan.run()

    def test_result_accessors(self, small_view):
        result = small_plan(small_view).run()
        assert len(result) == 4
        assert set(result.trace_curves("t")) == {"chen", "phi", "bertier", "sfd"}
        assert result.curve("t", "chen").detector == "chen"
        with pytest.raises(ConfigurationError, match="4 curves"):
            result.curve("t")  # ambiguous without a name
        with pytest.raises(ConfigurationError, match="no curves"):
            result.curve("other")
        one = ExperimentPlan().add_trace("t", small_view)
        one.add_sweep("t", "chen", (0.1,), window=100)
        assert one.run().curve("t").detector == "chen"

    def test_matches_sweep_curve(self, small_view):
        from repro.analysis import sweep_curve

        direct = sweep_curve("chen", small_view, (0.05, 0.2), window=100)
        plan = ExperimentPlan().add_trace("t", small_view)
        plan.add_sweep("t", "chen", (0.05, 0.2), window=100)
        assert plan.run().curve("t", "chen") == direct


class TestPicklability:
    """Process fan-out prerequisite: specs and views cross process lines."""

    @pytest.mark.parametrize("name", registry.names())
    def test_registry_specs_round_trip(self, name):
        spec = registry.get(name).parse("")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert type(clone) is type(spec)
        # The pickle path routes through to_dict/from_dict, so the two
        # serializations must agree.
        assert clone.to_dict() == spec.to_dict()

    def test_monitor_view_round_trips(self, small_view):
        clone = pickle.loads(pickle.dumps(small_view))
        assert isinstance(clone, MonitorView)
        np.testing.assert_array_equal(clone.seq, small_view.seq)
        np.testing.assert_array_equal(clone.arrivals, small_view.arrivals)
        np.testing.assert_array_equal(clone.send_times, small_view.send_times)
        assert clone.dropped_stale == small_view.dropped_stale

    def test_jobs_round_trip(self, small_view):
        for job in small_plan(small_view).jobs():
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job

    def test_qos_report_round_trips(self):
        # Workers return reports across the process boundary; frozen
        # slotted dataclasses need an explicit __reduce__ on Python 3.10.
        qos = QoSReport(
            detection_time=0.5,
            mistake_rate=0.25,
            query_accuracy=0.875,
            mistakes=3,
            mistake_time=1.5,
            accounted_time=12.0,
            samples=100,
        )
        assert pickle.loads(pickle.dumps(qos)) == qos
        assert pickle.loads(pickle.dumps(REQ)) == REQ


class TestExecutors:
    def test_serial_and_parallel_curves_bit_identical(self, small_view):
        plan = small_plan(small_view)
        serial = plan.run(SerialExecutor())
        parallel = plan.run(ProcessPoolExecutor(jobs=4))
        # Dataclass equality over every float of every QoS report: the
        # curves must match bit for bit, not approximately.
        assert serial.curves == parallel.curves

    def test_parallel_jobs_one_degrades_to_serial(self, small_view):
        plan = small_plan(small_view)
        assert plan.run(ProcessPoolExecutor(jobs=1)).curves == plan.run().curves

    def test_concurrent_runs_from_threads(self, small_view):
        # No parent-process global is mutated, so two plans may fan out
        # from different threads of one process without racing.
        from concurrent.futures import ThreadPoolExecutor as _Threads

        plan = small_plan(small_view)
        expected = plan.run(SerialExecutor()).curves
        with _Threads(max_workers=2) as threads:
            futs = [
                threads.submit(plan.run, ProcessPoolExecutor(jobs=2))
                for _ in range(2)
            ]
            results = [f.result() for f in futs]
        assert all(r.curves == expected for r in results)

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(jobs=-2)
        assert ProcessPoolExecutor(jobs=0).jobs >= 1  # 0 → every core

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ProcessPoolExecutor(jobs=2)]
    )
    def test_failing_job_surfaces_spec_and_traceback(self, small_view, executor):
        # window far beyond the view length fails inside the replay
        # kernel — i.e. inside the worker process for the pool executor.
        plan = ExperimentPlan().add_trace("t", small_view)
        plan.add_sweep(
            "t", "chen", (0.1, 0.5), base=ChenSpec(alpha=0.1, window=10_000_000)
        )
        with pytest.raises(JobFailedError) as err:
            plan.run(executor)
        e = err.value
        assert e.job.spec.window == 10_000_000
        assert "ConfigurationError" in e.traceback
        # The message names the job (trace, sweep, spec) and the cause.
        assert "trace='t'" in str(e) and "chen" in str(e)
        assert "heartbeats" in str(e)


class TestArchive:
    def test_curve_round_trip_including_non_finite(self, tmp_path):
        curve = QoSCurve("phi")
        curve.add(
            1.0,
            QoSReport(
                detection_time=0.123456789,
                mistake_rate=0.25,
                query_accuracy=0.875,
                mistakes=3,
                mistake_time=1.5,
                accounted_time=12.0,
                samples=100,
            ),
        )
        curve.add(
            16.0,
            QoSReport(
                detection_time=math.inf,
                mistake_rate=0.0,
                query_accuracy=1.0,
                mistakes=0,
                mistake_time=0.0,
                accounted_time=12.0,
                samples=100,
            ),
        )
        curve.add(
            32.0,
            QoSReport(
                detection_time=math.nan, mistake_rate=0.0, query_accuracy=1.0
            ),
        )
        clone = curve_from_dict(curve_to_dict(curve))
        assert clone.points[0] == curve.points[0]
        assert math.isinf(clone.points[1].qos.detection_time)
        assert math.isnan(clone.points[2].qos.detection_time)

        written = archive_curves({"t": {"phi": curve}}, tmp_path)
        assert [p.name for p in written] == ["CURVE_t_phi.json", "manifest.json"]
        loaded = load_curve(tmp_path / "CURVE_t_phi.json")
        assert loaded.points[0] == curve.points[0]

    def test_archived_plan_result_reloads_exactly(self, small_view, tmp_path):
        result = small_plan(small_view).run()
        archive_curves(result.curves, tmp_path, meta={"seed": 5})
        for trace, name, curve in result.items():
            assert load_curve(tmp_path / f"CURVE_{trace}_{name}.json") == curve

    def test_corrupted_archive_value_rejected(self, small_view, tmp_path):
        # A non-numeric string anywhere in the document must surface as
        # ConfigurationError, not a raw ValueError.
        curve = QoSCurve("chen")
        curve.add(0.1, QoSReport(0.5, 0.0, 1.0))
        data = curve_to_dict(curve)
        data["points"][0]["parameter"] = "abc"
        with pytest.raises(ConfigurationError, match="bad curve archive"):
            curve_from_dict(data)
        data = curve_to_dict(curve)
        data["points"][0]["qos"]["mistake_rate"] = "abc"
        with pytest.raises(ConfigurationError, match="bad QoS archive"):
            curve_from_dict(data)

    def test_unsafe_names_rejected(self, tmp_path, small_view):
        curve = QoSCurve("chen")
        curve.add(0.1, QoSReport(0.5, 0.0, 1.0))
        # Path-escaping or separator-bearing names never reach the disk.
        for trace, name in [("../evil", "chen"), ("t", "a/b"), ("", "chen")]:
            with pytest.raises(ConfigurationError, match="archive-safe"):
                archive_curves({trace: {name: curve}}, tmp_path)
        # The same rule holds at plan declaration time.
        plan = ExperimentPlan()
        with pytest.raises(ConfigurationError, match="archive-safe"):
            plan.add_trace("a/b", small_view)
        plan.add_trace("t", small_view)
        with pytest.raises(ConfigurationError, match="archive-safe"):
            plan.add_sweep("t", "chen", (0.1,), name="bad name", window=100)

    def test_colliding_filenames_rejected(self, tmp_path):
        # ('a', 'b_c') and ('a_b', 'c') both map to CURVE_a_b_c.json; the
        # archive must refuse rather than silently overwrite.
        curve = QoSCurve("chen")
        curve.add(0.1, QoSReport(0.5, 0.0, 1.0))
        with pytest.raises(ConfigurationError, match="collision"):
            archive_curves({"a": {"b_c": curve}, "a_b": {"c": curve}}, tmp_path)


def write_config(tmp_path, body: str):
    path = tmp_path / "experiments.toml"
    path.write_text(body)
    return path


GOOD_CONFIG = """
[run]
jobs = 1
seed = 3
output = "curves"

[[trace]]
name = "wan1"
profile = "WAN-1"
n = 2000

[[sweep]]
detector = "chen"
grid = [0.1, 0.5]
params = { window = 100 }

[[sweep]]
detector = "sfd:td=0.9,mr=0.35,qap=0.99,slot=100,window=100"
name = "sfd"
grid = [0.05, 0.2]
"""


class TestConfig:
    def test_load_and_run(self, tmp_path):
        config = load_config(write_config(tmp_path, GOOD_CONFIG))
        assert config.jobs == 1 and config.seed == 3
        assert len(config.plan) == 4
        assert [s["name"] for s in config.sweeps] == ["chen", "sfd"]
        outcome = run_config(config)
        assert outcome.n_jobs == 4 and outcome.jobs == 1
        curves = outcome.result.trace_curves("wan1")
        assert set(curves) == {"chen", "sfd"}
        archive = tmp_path / "curves"
        assert (archive / "manifest.json").exists()
        for name, curve in curves.items():
            assert load_curve(archive / f"CURVE_wan1_{name}.json") == curve

    def test_trace_from_file(self, tmp_path, trace_factory):
        trace = trace_factory("jittered", n=2000, seed=7)
        trace.save(tmp_path / "logged.npz")
        config = load_config(
            write_config(
                tmp_path,
                """
[[trace]]
name = "logged"
file = "logged.npz"

[[sweep]]
detector = "chen"
grid = [0.1]
params = { window = 100 }
""",
            )
        )
        outcome = run_config(config, archive=False)
        assert outcome.written == []
        assert len(outcome.result.curve("logged", "chen")) == 1

    @pytest.mark.parametrize(
        "body, match",
        [
            ("[run]\nworkers = 2\n", "unknown key"),
            ("[[trace]]\nname = 'a'\nprofile = 'WAN-1'\n", "at least one"),
            (
                "[[trace]]\nname = 'a'\nprofile = 'WAN-1'\nfile = 'x.npz'\n"
                "[[sweep]]\ndetector = 'chen'\n",
                "exactly one",
            ),
            (
                "[[trace]]\nname = 'a'\nprofile = 'WAN-99'\n"
                "[[sweep]]\ndetector = 'chen'\n",
                "unknown profile",
            ),
            (
                "[[trace]]\nname = 'a'\nprofile = 'WAN-1'\nn = 2000\n"
                "[[sweep]]\ndetector = 'chen'\ntrace = 'other'\n",
                "undeclared trace",
            ),
            (
                "[[trace]]\nname = 'a'\nprofile = 'WAN-1'\nn = 2000\n"
                "[[sweep]]\ndetector = 'chen:window=50'\n"
                "params = { window = 100 }\n",
                "not both",
            ),
        ],
    )
    def test_bad_configs_rejected(self, tmp_path, body, match):
        with pytest.raises(ConfigurationError, match=match):
            load_config(write_config(tmp_path, body))

    def test_missing_file_names_the_config(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "absent.toml")


class TestCache:
    """Incremental sweep cache: hits replay nothing, damage only misses."""

    def test_warm_run_zero_replays_bit_identical(
        self, small_view, tmp_path, monkeypatch
    ):
        cache = SweepCache(tmp_path / "cache")
        cold = small_plan(small_view).run(cache=cache)
        assert cold.cache.hits == 0 and cold.cache.misses == 8

        # A warm run must never reach the job body: any _execute call —
        # serial or pooled, both share this function — is a failure.
        def forbidden(*a, **k):
            raise AssertionError("warm run executed a replay job")

        monkeypatch.setattr("repro.exp.executors._execute", forbidden)
        warm = small_plan(small_view).run(cache=cache)
        assert warm.cache.hits == 8 and warm.cache.misses == 0
        # Dataclass equality over every float: bit-identical, not close.
        assert warm.curves == cold.curves

    def test_editing_one_grid_point_reruns_exactly_that_job(
        self, small_view, tmp_path, monkeypatch
    ):
        cache = SweepCache(tmp_path / "cache")

        def build(alphas):
            plan = ExperimentPlan().add_trace("t", small_view)
            plan.add_sweep("t", "chen", alphas, window=100)
            return plan

        build((0.05, 0.2, 0.5)).run(cache=cache)

        import repro.exp.executors as executors

        real = executors._execute
        executed = []

        def counting(job, view, instruments, prepared):
            executed.append(job.parameter)
            return real(job, view, instruments, prepared)

        monkeypatch.setattr(executors, "_execute", counting)
        result = build((0.05, 0.3, 0.5)).run(cache=cache)
        assert executed == [0.3]
        assert result.cache.hits == 2 and result.cache.misses == 1

    def test_view_change_misses(self, view_factory, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        a = view_factory("jittered", n=2000, seed=1)
        b = view_factory("jittered", n=2000, seed=2)
        assert a.fingerprint() != b.fingerprint()

        def run(view):
            plan = ExperimentPlan().add_trace("t", view)
            plan.add_sweep("t", "chen", (0.1,), window=100)
            return plan.run(cache=cache)

        run(a)
        assert run(b).cache.misses == 1  # same spec, different trace
        assert run(a).cache.hits == 1  # original entry still valid

    def _single_entry(self, view, cache):
        plan = ExperimentPlan().add_trace("t", view)
        plan.add_sweep("t", "chen", (0.1,), window=100)
        plan.run(cache=cache)
        entries = sorted(cache.directory.glob("QOS_*.json"))
        assert len(entries) == 1
        return plan, entries[0]

    def test_corrupted_entry_degrades_to_miss(self, small_view, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        plan, entry = self._single_entry(small_view, cache)
        for damage in (b"{ not json", b"", b'{"format": 1}'):
            entry.write_bytes(damage)
            result = plan.run(cache=SweepCache(cache.directory))
            assert result.cache.hits == 0 and result.cache.misses == 1
            assert result.cache.invalid == 1
            # The miss re-executed and rewrote the entry: now it hits again.
            again = plan.run(cache=SweepCache(cache.directory)).cache
            assert again.hits == 1 and again.invalid == 0

    def test_truncated_entry_degrades_to_miss(self, small_view, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        plan, entry = self._single_entry(small_view, cache)
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        fresh = SweepCache(cache.directory)
        result = plan.run(cache=fresh)
        assert result.cache.misses == 1
        assert fresh.invalid == 1
        assert result.cache.invalid == 1

    def test_run_reports_its_own_invalid_entries(self, small_view, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        plan = ExperimentPlan().add_trace("t", small_view)
        plan.add_sweep("t", "chen", (0.1, 0.2), window=100)
        plan.run(cache=cache)
        entry = sorted(cache.directory.glob("QOS_*.json"))[0]
        entry.write_bytes(b"{ not json")
        rerun = SweepCache(cache.directory)
        stats = plan.run(cache=rerun).cache
        assert (stats.hits, stats.misses, stats.invalid) == (1, 1, 1)
        assert str(stats) == "1 hit(s), 1 miss(es), 1 invalid"
        # Per run, not cumulative: the next run on the same cache object
        # finds the rewritten entry and reports nothing invalid.
        stats = plan.run(cache=rerun).cache
        assert (stats.hits, stats.invalid) == (2, 0)
        assert str(stats) == "2 hit(s), 0 miss(es)"

    def test_stale_format_version_degrades_to_miss(self, small_view, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        plan, entry = self._single_entry(small_view, cache)
        data = json.loads(entry.read_text())
        assert data["format"] == CACHE_FORMAT
        data["format"] = CACHE_FORMAT + 1
        entry.write_text(json.dumps(data))
        fresh = SweepCache(cache.directory)
        result = plan.run(cache=fresh)
        assert result.cache.misses == 1 and result.cache.invalid == 1
        assert fresh.invalid == 1
        # …and the rewrite restores the current format.
        assert json.loads(entry.read_text())["format"] == CACHE_FORMAT

    def test_corrupt_manifest_is_rebuilt(self, small_view, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        plan, entry = self._single_entry(small_view, cache)
        manifest = cache.directory / "manifest.json"
        manifest.write_text("{ garbage")
        # Entries still hit (the manifest is advisory)…
        assert plan.run(cache=SweepCache(cache.directory)).cache.hits == 1
        # …and the next store rewrites it from scratch.
        plan2 = ExperimentPlan().add_trace("t", small_view)
        plan2.add_sweep("t", "chen", (0.2,), window=100)
        plan2.run(cache=SweepCache(cache.directory))
        data = json.loads(manifest.read_text())
        assert data["format"] == CACHE_FORMAT and len(data["entries"]) == 1

    def test_run_config_warm_is_bit_identical_with_zero_replays(
        self, tmp_path, monkeypatch
    ):
        # The acceptance criterion, at the `repro run` entry point: a warm
        # run over an unchanged config replays nothing and archives the
        # same curves byte for byte.
        config_path = write_config(tmp_path, GOOD_CONFIG)
        cold = run_config(load_config(config_path))
        assert cold.cache.misses == 4 and cold.cache.hits == 0
        archived = {
            p: p.read_bytes()
            for p in (tmp_path / "curves").glob("CURVE_*.json")
        }
        assert len(archived) == 2

        def forbidden(*a, **k):
            raise AssertionError("warm run executed a replay job")

        monkeypatch.setattr("repro.exp.executors._execute", forbidden)
        warm = run_config(load_config(config_path))
        assert warm.cache.hits == 4 and warm.cache.misses == 0
        assert warm.result.curves == cold.result.curves
        for path, blob in archived.items():
            assert path.read_bytes() == blob

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        config_path = write_config(tmp_path, GOOD_CONFIG)
        outcome = run_config(load_config(config_path), use_cache=False)
        assert outcome.cache is None
        assert not (tmp_path / "curves" / "cache").exists()
        # A later cached run finds nothing to reuse…
        cold = run_config(load_config(config_path))
        assert cold.cache.hits == 0
        # …and --no-cache after a cold run ignores the populated cache.
        entries = set((tmp_path / "curves" / "cache").glob("QOS_*.json"))
        again = run_config(load_config(config_path), use_cache=False)
        assert again.cache is None
        assert set((tmp_path / "curves" / "cache").glob("QOS_*.json")) == entries

    def test_explicit_cache_dir(self, tmp_path):
        config_path = write_config(tmp_path, GOOD_CONFIG)
        elsewhere = tmp_path / "elsewhere"
        run_config(load_config(config_path), cache_dir=elsewhere)
        assert sorted(p.name for p in elsewhere.glob("QOS_*.json"))
        assert not (tmp_path / "curves" / "cache").exists()
        warm = run_config(load_config(config_path), cache_dir=elsewhere)
        assert warm.cache.hits == 4

    def test_cache_works_with_process_pool(self, small_view, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        plan = small_plan(small_view)
        cold = plan.run(ProcessPoolExecutor(jobs=2), cache=cache)
        assert cold.cache.misses == 8
        warm = plan.run(ProcessPoolExecutor(jobs=2), cache=cache)
        assert warm.cache.hits == 8
        assert warm.curves == cold.curves


class TestFingerprintMemo:
    """A cache memoizes a columnar store's view fingerprint by file identity.

    Timing-free: every test counts (and collects the results of) the
    ``MonitorView.fingerprint`` calls a run makes.  A warm rerun through
    the same cache over an unchanged store makes none; any change to the
    file costs exactly one fresh hash.
    """

    @pytest.fixture()
    def hashes(self, monkeypatch) -> list[str]:
        real = MonitorView.fingerprint
        seen: list[str] = []

        def counting(view):
            seen.append(real(view))
            return seen[-1]

        monkeypatch.setattr(MonitorView, "fingerprint", counting)
        return seen

    @pytest.fixture()
    def trace(self, trace_factory) -> HeartbeatTrace:
        return trace_factory("jittered", n=3000, seed=5)

    @pytest.fixture()
    def path(self, trace, tmp_path):
        path = tmp_path / "t.bin"
        write_columnar(trace, path)
        # So that the cold run may record the store on any clock.
        outlast_timestamps(path)
        return path

    @staticmethod
    def plan(source) -> ExperimentPlan:
        plan = ExperimentPlan().add_trace("t", source)
        plan.add_sweep("t", "chen", (0.05, 0.5), window=100)
        return plan

    def cold(self, path, tmp_path, hashes):
        """A cold run that hashed once; returns the cache, the result and
        the digest."""
        cache = SweepCache(tmp_path / "cache")
        result = self.plan(TraceStore(path)).run(cache=cache)
        assert len(hashes) == 1
        digest = hashes.pop()
        return cache, result, digest

    def test_warm_rerun_over_unchanged_store_never_hashes(
        self, path, tmp_path, hashes
    ):
        cache, cold, digest = self.cold(path, tmp_path, hashes)
        for _ in range(2):
            warm = self.plan(TraceStore(path)).run(cache=cache)
            assert warm.cache.hits == 2 and warm.cache.misses == 0
            assert warm.curves == cold.curves
        assert hashes == []
        # The memo is the cache object's: a new one (a new process, say)
        # hashes once, then remembers.
        fresh = SweepCache(cache.directory)
        for _ in range(2):
            warm = self.plan(TraceStore(path)).run(cache=fresh)
            assert warm.cache.hits == 2 and warm.curves == cold.curves
        assert hashes == [digest]
        assert list(cache.directory.glob("*.tmp")) == []

    def test_in_place_byte_flip_rehashes_once(self, path, tmp_path, hashes):
        cache, _, _ = self.cold(path, tmp_path, hashes)
        column = next(
            c for c in TraceStore(path).info()["columns"]
            if c["name"] == "view_arrivals"
        )
        at = column["offset"] + 8 * (column["count"] // 2)  # lowest byte
        before = os.stat(path)
        with open(path, "r+b") as fh:
            fh.seek(at)
            flipped = bytes([fh.read(1)[0] ^ 1])
            fh.seek(at)
            fh.write(flipped)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns
        )
        expected = TraceStore(path).fingerprint()
        hashes.clear()
        rerun = self.plan(TraceStore(path)).run(cache=cache)
        assert rerun.cache.misses == 2 and rerun.cache.hits == 0
        assert hashes == [expected]

    def test_same_size_rewrite_rehashes_once(self, trace, path, tmp_path, hashes):
        cache, _, old = self.cold(path, tmp_path, hashes)
        size = os.path.getsize(path)
        write_columnar(
            HeartbeatTrace(
                send_times=trace.send_times,
                delays=trace.delays + 1e-6,
                name=trace.name,
                meta=trace.meta,
            ),
            path,
        )
        assert os.path.getsize(path) == size
        expected = TraceStore(path).fingerprint()
        assert expected != old
        hashes.clear()
        rerun = self.plan(TraceStore(path)).run(cache=cache)
        assert rerun.cache.misses == 2
        assert hashes == [expected]

    @pytest.mark.parametrize("field", FileIdentity._fields)
    def test_identity_differing_in_any_field_is_rehashed(
        self, field, path, tmp_path, hashes, monkeypatch
    ):
        cache, _, digest = self.cold(path, tmp_path, hashes)
        real = TraceStore.identity

        def moved(store):
            identity = real(store)
            return identity._replace(**{field: getattr(identity, field) + 1})

        monkeypatch.setattr(TraceStore, "identity", moved)
        rerun = self.plan(TraceStore(path)).run(cache=cache)
        # Not a QoS miss: the entries it keys are intact.
        assert (rerun.cache.hits, rerun.cache.invalid) == (2, 0)
        assert hashes == [digest]

    @pytest.mark.parametrize("field", ["mtime", "ctime"])
    @pytest.mark.parametrize("when", ["after", "at"])
    def test_store_stamped_at_or_after_the_timestamp_is_never_recorded(
        self, field, when, path, tmp_path, hashes, monkeypatch
    ):
        stamp = time.time_ns() + 3600 * 10**9
        if field == "mtime":
            os.utime(path, ns=(stamp, stamp))
        else:  # no user-space call sets ctime: report one
            real = TraceStore.identity
            monkeypatch.setattr(
                TraceStore,
                "identity",
                lambda store: real(store)._replace(ctime_ns=stamp),
            )
        if when == "at":  # the filesystem clock reads the store's stamp
            monkeypatch.setattr(SweepCache, "_clock", lambda cache: stamp)
        cache = SweepCache(tmp_path / "cache")
        for _ in range(3):
            self.plan(TraceStore(path)).run(cache=cache)
        assert len(hashes) == 3
        assert list(cache.directory.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "call", ["repro.exp.cache.tempfile.mkstemp", "repro.exp.cache.os.unlink"]
    )
    def test_failing_clock_only_costs_the_memo(
        self, call, path, tmp_path, hashes, monkeypatch
    ):
        cache, cold, _ = self.cold(path, tmp_path, hashes)

        def refuse(*args, **kwargs):
            raise OSError("read-only or failing cache directory")

        monkeypatch.setattr(call, refuse)
        fresh = SweepCache(cache.directory)
        for _ in range(2):
            warm = self.plan(TraceStore(path)).run(cache=fresh)
            assert warm.cache.hits == 2 and warm.curves == cold.curves
        assert len(hashes) == 2

    def test_in_memory_sources_never_touch_the_memo(
        self, trace, tmp_path, hashes, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("an in-memory source consulted the memo")

        monkeypatch.setattr(SweepCache, "_remember", forbidden)
        monkeypatch.setattr(SweepCache, "_clock", forbidden)
        trace.save(tmp_path / "t.npz")
        cache = SweepCache(tmp_path / "cache")
        for source in (trace.monitor_view(), trace, tmp_path / "t.npz"):
            for _ in range(2):
                self.plan(source).run(cache=cache)
        assert len(hashes) == 6


class TestPrepareOnce:
    """Timing-free perf guard: a sweep group builds its stage once.

    Counts the expensive stage builds — the NLMS predictor pass and the
    quantile stage — at the registry's stage functions, and fails if
    sharing silently regresses to one build per grid point.
    """

    @staticmethod
    def plan(view) -> ExperimentPlan:
        plan = ExperimentPlan().add_trace("t", view)
        plan.add_sweep("t", "ml", (0.5, 1.0, 2.0, 4.0), window=16)
        plan.add_sweep("t", "quantile", (0.5, 0.9, 0.99, 1.0), window=100)
        return plan

    @staticmethod
    def count_builds(monkeypatch, log_path, stages):
        """Log every build to ``log_path`` (worker processes append too)
        and keep a weakref to every stage array built in this process."""

        def log(kind):
            with open(log_path, "a") as fh:
                fh.write(kind + "\n")

        real_ml = registry.ml_prediction_arrays
        real_quantile = registry.quantile_stage

        def ml(*args, **kwargs):
            log("ml")
            out = real_ml(*args, **kwargs)
            stages.extend(weakref.ref(a) for a in out)
            return out

        def quantile(*args, **kwargs):
            log("quantile")
            out = real_quantile(*args, **kwargs)
            stages.extend(weakref.ref(a) for a in out.values())
            return out

        monkeypatch.setattr(registry, "ml_prediction_arrays", ml)
        monkeypatch.setattr(registry, "quantile_stage", quantile)

    @staticmethod
    def builds(log_path) -> list[str]:
        return sorted(log_path.read_text().split()) if log_path.exists() else []

    def test_serial_builds_one_stage_per_group(
        self, small_view, tmp_path, monkeypatch
    ):
        log_path = tmp_path / "builds.log"
        stages: list = []
        self.count_builds(monkeypatch, log_path, stages)
        result = self.plan(small_view).run(SerialExecutor())
        assert self.builds(log_path) == ["ml", "quantile"]
        assert len(stages) == 6  # (pred, jitter) + four quantile columns
        # Released with the group: no stage outlives the run.
        assert all(ref() is None for ref in stages)
        assert not result.failures

    def test_pool_builds_one_stage_per_group_task(
        self, small_view, tmp_path, monkeypatch
    ):
        log_path = tmp_path / "builds.log"
        self.count_builds(monkeypatch, log_path, [])
        pooled = self.plan(small_view).run(ProcessPoolExecutor(jobs=2))
        assert self.builds(log_path) == ["ml", "quantile"]
        monkeypatch.undo()
        assert pooled.curves == self.plan(small_view).run(SerialExecutor()).curves

    def test_single_point_replays_share_nothing(
        self, small_view, tmp_path, monkeypatch
    ):
        # The control: without a group, every point builds its own stage.
        from repro.replay import replay

        log_path = tmp_path / "builds.log"
        self.count_builds(monkeypatch, log_path, [])
        for job in self.plan(small_view).jobs():
            replay(job.spec, small_view)
        assert self.builds(log_path) == ["ml"] * 4 + ["quantile"] * 4
