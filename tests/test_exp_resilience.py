"""Fault tolerance of the experiment engine: policy, chaos, resume, shards.

Everything here runs under *deterministic* fault schedules
(:class:`repro.exp.chaos.ChaosSchedule`): the fate of one attempt is a
pure function of (job index, attempt number), so serial and process
executors face identical chaos and their behavior can be compared
point-for-point.  Timings are kept tiny (hangs of tenths of seconds,
backoffs of milliseconds) so the whole module stays fast.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ChaosInjectedError,
    ChaosSchedule,
    ExecutorBrokenError,
    ExperimentPlan,
    FailurePolicy,
    FlakyExecutor,
    FlakyProcessPoolExecutor,
    JobFailedError,
    JobFault,
    ProcessPoolExecutor,
    SerialExecutor,
    SweepCache,
    check_shard,
    load_config,
    load_curve,
    merge_config,
    run_config,
    shard_directory,
)
from repro.obs import Instruments

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Fast retry policy: milliseconds of deterministic backoff, no jitter.
FAST = dict(backoff=0.001, backoff_factor=1.0, jitter=0.0)


def tiny_plan(view, n: int = 6) -> ExperimentPlan:
    """One chen sweep with ``n`` grid points — job index == grid position."""
    grid = tuple(0.05 + 0.1 * i for i in range(n))
    return ExperimentPlan().add_trace("t", view).add_sweep(
        "t", "chen", grid, window=100
    )


def two_group_plan(view) -> ExperimentPlan:
    """Two four-point sweeps (two group tasks): jobs 0-3 chen, 4-7 phi."""
    plan = ExperimentPlan().add_trace("t", view)
    plan.add_sweep("t", "chen", (0.05, 0.15, 0.25, 0.35), window=100)
    plan.add_sweep("t", "phi", (1.0, 2.0, 4.0, 8.0), window=100)
    return plan


def curves_of(result):
    return {
        (trace, name): [(p.parameter, p.qos) for p in curve.points]
        for trace, name, curve in result.items()
    }


class TestFailurePolicy:
    def test_defaults_are_the_historical_behavior(self):
        pol = FailurePolicy()
        assert pol.timeout is None
        assert pol.max_retries == 0
        assert pol.fail_fast

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"backoff": -0.1},
            {"backoff_factor": 0.5},
            {"max_backoff": -1.0},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"mode": "explode"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FailurePolicy(**kwargs)

    def test_delay_is_deterministic_and_capped(self):
        pol = FailurePolicy(backoff=0.5, backoff_factor=2.0, max_backoff=1.2)
        assert pol.delay(3, 1) == pol.delay(3, 1)  # pure function
        assert pol.delay(3, 1) != pol.delay(4, 1)  # jitter varies per job
        assert pol.delay(0, 10) == 1.2  # exponential growth hits the cap
        with pytest.raises(ConfigurationError):
            pol.delay(0, 0)

    def test_zero_jitter_is_plain_exponential(self):
        pol = FailurePolicy(backoff=0.1, backoff_factor=2.0, jitter=0.0)
        assert pol.delay(7, 1) == pytest.approx(0.1)
        assert pol.delay(7, 3) == pytest.approx(0.4)


class TestChaosSchedule:
    def test_fate_is_pure_and_bounded(self):
        sched = ChaosSchedule({2: JobFault("error", fail_attempts=2)})
        assert sched.fate(0, 0) is None
        assert sched.fate(2, 0).kind == "error"
        assert sched.fate(2, 1).kind == "error"
        assert sched.fate(2, 2) is None  # cured after 2 failed attempts
        assert sched.fate(2, 0) == sched.fate(2, 0)

    def test_poisoned_job_never_recovers(self):
        sched = ChaosSchedule({1: JobFault("error", fail_attempts=None)})
        assert all(sched.fate(1, k) is not None for k in range(10))

    def test_fault_validation(self):
        with pytest.raises(ConfigurationError):
            JobFault("meteor")
        with pytest.raises(ConfigurationError):
            JobFault("error", fail_attempts=0)
        with pytest.raises(ConfigurationError):
            JobFault("timeout", hang=0.0)


class TestSerialResilience:
    def test_retry_cures_transient_error_bit_identically(self, small_view):
        plan = tiny_plan(small_view)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({2: JobFault("error", fail_attempts=1)})
        flaky = FlakyExecutor(sched)
        result = plan.run(flaky, policy=FailurePolicy(max_retries=1, **FAST))
        assert not result.failures
        assert curves_of(result) == curves_of(clean)

    def test_retry_hooks_fire_on_instruments(self, small_view):
        plan = tiny_plan(small_view)
        sched = ChaosSchedule({2: JobFault("error", fail_attempts=2)})
        ins = Instruments()
        plan.run(
            FlakyExecutor(sched),
            policy=FailurePolicy(max_retries=2, **FAST),
            instruments=ins,
        )
        assert ins.exp_retries.labels("error").get() == 2.0

    def test_fail_fast_poisoned_job_raises_with_attempt_count(self, small_view):
        plan = tiny_plan(small_view)
        sched = ChaosSchedule({3: JobFault("error", fail_attempts=None)})
        with pytest.raises(JobFailedError) as err:
            plan.run(FlakyExecutor(sched), policy=FailurePolicy(max_retries=2, **FAST))
        assert err.value.job.index == 3
        assert err.value.attempts == 3
        assert "ChaosInjectedError" in err.value.traceback

    def test_continue_mode_quarantines_exactly_the_poisoned_job(self, small_view):
        plan = tiny_plan(small_view)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({3: JobFault("error", fail_attempts=None)})
        ins = Instruments()
        result = plan.run(
            FlakyExecutor(sched),
            policy=FailurePolicy(max_retries=1, mode="continue", **FAST),
            instruments=ins,
        )
        assert [f.job.index for f in result.failures] == [3]
        assert result.failures.failures[0].kind == "error"
        assert ins.exp_quarantined.labels("error").get() == 1.0
        # The quarantined point is an explicit hole; every other point
        # matches the clean run exactly.
        flaky_curve = result.curve("t", "chen")
        clean_curve = clean.curve("t", "chen")
        assert len(flaky_curve) == len(clean_curve) - 1
        hole = clean_curve.points[3].parameter
        assert hole not in [p.parameter for p in flaky_curve.points]
        kept = {p.parameter: p.qos for p in flaky_curve.points}
        for p in clean_curve.points:
            if p.parameter != hole:
                assert kept[p.parameter] == p.qos

    def test_timeout_abandons_hung_job(self, small_view):
        plan = tiny_plan(small_view, n=3)
        sched = ChaosSchedule({1: JobFault("timeout", fail_attempts=None, hang=5.0)})
        with pytest.raises(JobFailedError) as err:
            plan.run(FlakyExecutor(sched), policy=FailurePolicy(timeout=0.2))
        assert err.value.kind == "timeout"
        assert err.value.job.index == 1

    def test_timeout_retry_cures_transient_hang(self, small_view):
        plan = tiny_plan(small_view, n=3)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({1: JobFault("timeout", fail_attempts=1, hang=5.0)})
        result = plan.run(
            FlakyExecutor(sched),
            policy=FailurePolicy(timeout=0.2, max_retries=1, **FAST),
        )
        assert not result.failures
        assert curves_of(result) == curves_of(clean)

    def test_timeout_guarded_attempts_skip_replay_instruments(self, small_view):
        # A timed-out attempt leaves its runner thread alive and still
        # executing the replay; sharing the live bundle with such an
        # orphan would race with every later job.  So timeout-guarded
        # attempts run uninstrumented — while without a timeout the live
        # bundle still threads through every replay.
        seen: list[object] = []

        class Recording(SerialExecutor):
            def _call(self, job, view, instruments, attempt):
                seen.append(instruments)
                return super()._call(job, view, instruments, attempt)

        ins = Instruments()
        plan = tiny_plan(small_view, n=2)
        plan.run(Recording(), policy=FailurePolicy(timeout=30.0), instruments=ins)
        assert len(seen) == 2 and all(i is None for i in seen)
        seen.clear()
        plan.run(Recording(), instruments=ins)
        assert len(seen) == 2 and all(i is ins for i in seen)

    def test_crash_faults_rejected_in_process(self, small_view):
        plan = tiny_plan(small_view, n=2)
        sched = ChaosSchedule({0: JobFault("crash")})
        with pytest.raises(ConfigurationError, match="crash"):
            plan.run(FlakyExecutor(sched))

    def test_chaos_error_is_typed(self, small_view):
        from repro.errors import ReproError

        sched = ChaosSchedule({0: JobFault("error", fail_attempts=None)})
        flaky = FlakyExecutor(sched)
        jobs = tiny_plan(small_view, n=1).jobs()
        with pytest.raises(JobFailedError) as err:
            flaky.run(jobs, {"t": small_view})
        assert "ChaosInjectedError" in str(err.value)
        assert isinstance(ChaosInjectedError("x"), ReproError)


class TestPoolResilience:
    def test_worker_crash_is_retried_and_run_completes(self, small_view):
        plan = tiny_plan(small_view)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({2: JobFault("crash", fail_attempts=1)})
        ins = Instruments()
        result = plan.run(
            FlakyProcessPoolExecutor(sched, jobs=2),
            policy=FailurePolicy(max_retries=1, **FAST),
            instruments=ins,
        )
        assert not result.failures
        assert curves_of(result) == curves_of(clean)
        assert ins.exp_respawns.labels("crash").get() >= 1.0

    def test_poisoned_crash_job_fails_fast_as_executor_broken(self, small_view):
        plan = tiny_plan(small_view, n=4)
        sched = ChaosSchedule({1: JobFault("crash", fail_attempts=None)})
        with pytest.raises(ExecutorBrokenError) as err:
            plan.run(
                FlakyProcessPoolExecutor(sched, jobs=2),
                policy=FailurePolicy(max_retries=1, **FAST),
            )
        # Solo verification pinned the crash on the actual culprit.
        assert err.value.job is not None
        assert err.value.job.index == 1

    def test_hung_worker_killed_and_innocents_redispatched(self, small_view):
        plan = tiny_plan(small_view)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({2: JobFault("timeout", fail_attempts=1, hang=30.0)})
        ins = Instruments()
        result = plan.run(
            FlakyProcessPoolExecutor(sched, jobs=2),
            policy=FailurePolicy(timeout=0.3, max_retries=1, **FAST),
            instruments=ins,
        )
        assert not result.failures
        assert curves_of(result) == curves_of(clean)
        assert ins.exp_respawns.labels("timeout").get() >= 1.0

    def test_acceptance_chaos_storm_quarantines_only_the_poisoned_job(
        self, small_view
    ):
        # The ISSUE scenario: a worker crash at job k, one hung job, and
        # one always-failing job, under continue mode.  The run must
        # complete and quarantine exactly the poisoned job.
        plan = tiny_plan(small_view)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule(
            {
                1: JobFault("crash", fail_attempts=1),
                2: JobFault("timeout", fail_attempts=1, hang=30.0),
                4: JobFault("error", fail_attempts=None),  # the poisoned one
            }
        )
        result = plan.run(
            FlakyProcessPoolExecutor(sched, jobs=2),
            policy=FailurePolicy(
                timeout=0.3, max_retries=1, mode="continue", **FAST
            ),
        )
        assert [f.job.index for f in result.failures] == [4]
        clean_points = {
            p.parameter: p.qos for p in clean.curve("t", "chen").points
        }
        hole = clean.curve("t", "chen").points[4].parameter
        got = {p.parameter: p.qos for p in result.curve("t", "chen").points}
        assert set(got) == set(clean_points) - {hole}
        assert all(got[k] == clean_points[k] for k in got)

    def test_fail_fast_hung_job_surfaces_within_timeout(self, small_view):
        # Regression: a *permanently* hung job under fail_fast with no
        # retry budget must surface as JobFailedError at ~timeout.  The
        # abort used to propagate before the pool was killed, so the
        # final shutdown blocked on the hung worker for the full hang
        # (forever, for a true hang).
        plan = tiny_plan(small_view, n=3)
        sched = ChaosSchedule(
            {1: JobFault("timeout", fail_attempts=None, hang=60.0)}
        )
        start = time.monotonic()
        with pytest.raises(JobFailedError) as err:
            plan.run(
                FlakyProcessPoolExecutor(sched, jobs=2),
                policy=FailurePolicy(timeout=0.3),
            )
        elapsed = time.monotonic() - start
        assert err.value.kind == "timeout"
        assert err.value.job.index == 1
        assert elapsed < 10.0  # ~timeout plus pool spawn, not the 60 s hang

    def test_fail_fast_error_abort_kills_inflight_jobs(self, small_view):
        # Regression: a fail-fast abort raised for one failed job must
        # hard-kill the pool rather than gracefully wait for every
        # in-flight job — here a 60 s sleeper with no policy timeout —
        # to finish before the error surfaces.
        plan = tiny_plan(small_view, n=2)
        sched = ChaosSchedule(
            {
                0: JobFault("error", fail_attempts=None),
                1: JobFault("timeout", fail_attempts=None, hang=60.0),
            }
        )
        start = time.monotonic()
        with pytest.raises(JobFailedError) as err:
            plan.run(FlakyProcessPoolExecutor(sched, jobs=2), policy=FailurePolicy())
        assert err.value.job.index == 0
        assert time.monotonic() - start < 10.0

    def test_unspawnable_pool_bounds_respawns(self, small_view):
        # Regression: when every submit raises BrokenProcessPool (the
        # workers die before running anything), jobs are requeued at no
        # attempt cost, so the run used to respawn the pool forever.
        # The driver now gives up after a bounded number of barren
        # generations, naming the pending jobs.
        class DeadPoolExecutor(ProcessPoolExecutor):
            def _inline_ok(self):
                return False

            def _make_pool(self, capacity, ctx, views):
                pool = super()._make_pool(capacity, ctx, views)
                doomed = pool.submit(os._exit, 13)  # break it before use
                with pytest.raises(BrokenProcessPool):
                    doomed.result(timeout=30)
                return pool

        plan = tiny_plan(small_view, n=2)
        ins = Instruments()
        with pytest.raises(ExecutorBrokenError) as err:
            plan.run(
                DeadPoolExecutor(jobs=2),
                policy=FailurePolicy(mode="continue", **FAST),
                instruments=ins,
            )
        assert err.value.job is None
        assert [j.index for j in err.value.suspects] == [0, 1]
        assert "pending" in str(err.value)
        assert ins.exp_respawns.labels("crash").get() == 3.0

    def test_fail_fast_aborts_before_remaining_jobs_run(self, small_view):
        # Satellite: the pending-work cancellation path.  One worker,
        # job 0 poisoned — with fail-fast nothing after it may execute,
        # which on_result (fired per completed job) makes observable.
        plan = tiny_plan(small_view)
        sched = ChaosSchedule({0: JobFault("error", fail_attempts=None)})
        done: list[int] = []
        flaky = FlakyProcessPoolExecutor(sched, jobs=1)
        with pytest.raises(JobFailedError):
            flaky.run(
                plan.jobs(),
                {"t": small_view},
                policy=FailurePolicy(),
                on_result=lambda job, qos: done.append(job.index),
            )
        assert done == []

    def test_serial_and_pool_parity_under_chaos(self, small_view):
        # Same schedule, same policy → identical completions, identical
        # quarantine set, identical QoS numbers.
        plan = tiny_plan(small_view)
        sched = ChaosSchedule(
            {
                0: JobFault("error", fail_attempts=2),
                3: JobFault("error", fail_attempts=None),
            }
        )
        pol = FailurePolicy(max_retries=2, mode="continue", **FAST)
        serial = plan.run(FlakyExecutor(sched), policy=pol)
        pooled = plan.run(FlakyProcessPoolExecutor(sched, jobs=2), policy=pol)
        assert curves_of(serial) == curves_of(pooled)
        assert [f.job.index for f in serial.failures] == [
            f.job.index for f in pooled.failures
        ]
        assert [f.kind for f in serial.failures] == [
            f.kind for f in pooled.failures
        ]
        assert [f.attempts for f in serial.failures] == [
            f.attempts for f in pooled.failures
        ]


class TestGroupTasks:
    """Pool resilience when one task carries a whole sweep group."""

    def assert_holes(self, result, clean, holes):
        # Quarantined jobs are holes; every other point equals a clean run.
        want = {
            key: [pt for i, pt in enumerate(points) if (key[1], i) not in holes]
            for key, points in curves_of(clean).items()
        }
        assert curves_of(result) == want

    @pytest.mark.parametrize("fail_attempts", [1, None])
    def test_error_on_middle_member_charges_only_that_job(
        self, small_view, fail_attempts
    ):
        plan = tiny_plan(small_view, n=5)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({2: JobFault("error", fail_attempts=fail_attempts)})
        ins = Instruments()
        result = plan.run(
            FlakyProcessPoolExecutor(sched, jobs=2),
            policy=FailurePolicy(max_retries=1, mode="continue", **FAST),
            instruments=ins,
        )
        # One retry, of the faulty job only; its siblings never re-ran.
        assert ins.exp_retries.labels("error").get() == 1.0
        if fail_attempts is None:
            assert [(f.job.index, f.attempts) for f in result.failures] == [(2, 2)]
            self.assert_holes(result, clean, {("chen", 2)})
        else:
            assert not result.failures
            assert curves_of(result) == curves_of(clean)

    def test_hung_member_splits_group_and_only_it_pays(self, small_view):
        plan = tiny_plan(small_view, n=4)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({1: JobFault("timeout", fail_attempts=None, hang=30.0)})
        ins = Instruments()
        result = plan.run(
            FlakyProcessPoolExecutor(sched, jobs=2),
            policy=FailurePolicy(timeout=0.3, mode="continue", **FAST),
            instruments=ins,
        )
        # No retry budget: any sibling charged for the group's overrun
        # would be quarantined too.
        assert [(f.job.index, f.kind, f.attempts) for f in result.failures] == [
            (1, "timeout", 1)
        ]
        self.assert_holes(result, clean, {("chen", 1)})
        assert ins.exp_respawns.labels("timeout").get() == 2.0  # group, then job

    def test_crash_is_verified_alone_and_blamed_on_the_culprit(self, small_view):
        plan = two_group_plan(small_view)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule({5: JobFault("crash", fail_attempts=None)})
        result = plan.run(
            FlakyProcessPoolExecutor(sched, jobs=2),
            policy=FailurePolicy(max_retries=1, mode="continue", **FAST),
        )
        assert [(f.job.index, f.kind) for f in result.failures] == [(5, "crash")]
        self.assert_holes(result, clean, {("phi", 1)})

    def test_chaos_storm_across_groups_quarantines_only_the_poisoned_job(
        self, small_view
    ):
        plan = two_group_plan(small_view)
        clean = plan.run(SerialExecutor())
        sched = ChaosSchedule(
            {
                1: JobFault("crash", fail_attempts=1),
                5: JobFault("timeout", fail_attempts=1, hang=30.0),
                6: JobFault("error", fail_attempts=None),  # the poisoned one
            }
        )
        result = plan.run(
            FlakyProcessPoolExecutor(sched, jobs=2),
            policy=FailurePolicy(
                timeout=0.3, max_retries=1, mode="continue", **FAST
            ),
        )
        assert [f.job.index for f in result.failures] == [6]
        self.assert_holes(result, clean, {("phi", 2)})


class TestResume:
    def test_killed_run_leaves_completed_work_and_resumes(
        self, small_view, tmp_path
    ):
        # A mid-run death is simulated by a fail-fast abort at job 3:
        # store-as-you-go must have persisted jobs 0..2, and the rerun
        # replays only the remainder, reassembling identical curves.
        plan = tiny_plan(small_view)
        clean = plan.run(SerialExecutor())
        cache = SweepCache(tmp_path / "cache")
        sched = ChaosSchedule({3: JobFault("error", fail_attempts=None)})
        with pytest.raises(JobFailedError):
            plan.run(FlakyExecutor(sched), cache=cache)
        resumed = plan.run(SerialExecutor(), cache=SweepCache(tmp_path / "cache"))
        assert resumed.cache.hits == 3  # jobs 0..2 survived the kill
        assert resumed.cache.misses == 3
        assert curves_of(resumed) == curves_of(clean)

    def test_resume_requires_cache(self, tmp_path):
        (tmp_path / "experiments.toml").write_text(SHARD_CONFIG)
        config = load_config(tmp_path / "experiments.toml")
        with pytest.raises(ConfigurationError, match="resume"):
            run_config(config, resume=True, use_cache=False)


SHARD_CONFIG = """
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
grid = [0.05, 0.1, 0.2, 0.35, 0.5]
params = { window = 100 }

[[sweep]]
detector = "bertier"
name = "bert"
grid = [0.5, 1.0]
params = { window = 100 }
"""


class TestShardAndMerge:
    def test_check_shard_validation(self):
        assert check_shard((1, 3)) == (1, 3)
        for bad in [(3, 3), (-1, 3), (0, 0), "nope"]:
            with pytest.raises(ConfigurationError):
                check_shard(bad)

    def test_shards_partition_the_plan(self, small_view):
        plan = tiny_plan(small_view, n=7)
        seen: list[int] = []
        for i in range(3):
            result = plan.run(SerialExecutor(), shard=(i, 3))
            assert result.shard == (i, 3)
            for _trace, _name, curve in result.items():
                seen.extend(p.parameter for p in curve.points)
        clean = tiny_plan(small_view, n=7).run(SerialExecutor())
        assert sorted(seen) == [
            p.parameter for p in clean.curve("t", "chen").points
        ]

    def test_three_shards_merge_bit_identically(self, tmp_path):
        # Clean single-process reference archive.
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        (ref_dir / "experiments.toml").write_text(SHARD_CONFIG)
        ref = run_config(load_config(ref_dir / "experiments.toml"))
        ref_curves = {
            p.name: p.read_bytes()
            for p in ref.written
            if p.name.startswith("CURVE_")
        }

        # Three independent shard runs over a shared output/cache dir.
        work = tmp_path / "work"
        work.mkdir()
        (work / "experiments.toml").write_text(SHARD_CONFIG)
        for i in range(3):
            config = load_config(work / "experiments.toml")
            outcome = run_config(config, shard=(i, 3))
            assert outcome.shard == (i, 3)
            shard_dir = shard_directory(work / "curves", (i, 3))
            assert (shard_dir / "manifest.json").exists()

        merged = merge_config(load_config(work / "experiments.toml"))
        assert merged.cache.misses == 0  # a merge replays nothing
        for path in merged.written:
            if path.name.startswith("CURVE_"):
                assert path.read_bytes() == ref_curves[path.name]

    def test_merge_names_missing_jobs(self, tmp_path):
        (tmp_path / "experiments.toml").write_text(SHARD_CONFIG)
        config = load_config(tmp_path / "experiments.toml")
        run_config(config, shard=(0, 3))  # only one shard of three ran
        with pytest.raises(ConfigurationError, match="missing from the cache"):
            merge_config(load_config(tmp_path / "experiments.toml"))


class TestArchiveFailures:
    def test_quarantined_points_persist_in_archive(self, small_view, tmp_path):
        from repro.exp import archive_curves

        plan = tiny_plan(small_view)
        sched = ChaosSchedule({3: JobFault("error", fail_attempts=None)})
        result = plan.run(
            FlakyExecutor(sched),
            policy=FailurePolicy(mode="continue", **FAST),
        )
        written = archive_curves(
            result.curves, tmp_path, failures=result.failures
        )
        curve_doc = json.loads((tmp_path / "CURVE_t_chen.json").read_text())
        assert [f["index"] for f in curve_doc["failures"]] == [3]
        assert curve_doc["failures"][0]["kind"] == "error"
        assert "ChaosInjectedError" in curve_doc["failures"][0]["error"]
        manifest = json.loads(written[-1].read_text())
        assert manifest["quarantined"] == 1
        # The archived partial curve still loads (holes and all).
        assert len(load_curve(tmp_path / "CURVE_t_chen.json")) == 5


class TestBackwardCompat:
    def test_plain_mapping_executor_still_works(self, small_view, tmp_path):
        from repro.exp.executors import _execute

        class OldStyle:
            def run(self, jobs, views, instruments=None):
                return {
                    j.index: _execute(j, views[j.trace], instruments)
                    for j in jobs
                }

        plan = tiny_plan(small_view, n=3)
        clean = plan.run(SerialExecutor())
        cache = SweepCache(tmp_path / "cache")
        result = plan.run(OldStyle(), cache=cache, policy=FailurePolicy())
        assert curves_of(result) == curves_of(clean)
        # Store-after-the-fact path: the cache still filled up.
        rerun = plan.run(OldStyle(), cache=SweepCache(tmp_path / "cache"))
        assert rerun.cache.hits == 3

    def test_default_pool_has_no_chaos(self, small_view):
        plan = tiny_plan(small_view, n=3)
        clean = plan.run(SerialExecutor())
        pooled = plan.run(ProcessPoolExecutor(jobs=2))
        assert curves_of(pooled) == curves_of(clean)
