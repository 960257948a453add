"""Pluggable executors: run a plan's jobs serially or across processes.

The one contract: ``run(jobs, views, *, instruments, policy, on_result)``
takes the flat :class:`~repro.exp.plan.ReplayJob` list plus the plan's
named :class:`~repro.traces.trace.MonitorView`\\ s and returns an
:class:`~repro.exp.policy.ExecutionResult` — ``{job.index: QoSReport}``
for everything that completed, plus the
:class:`~repro.exp.policy.JobFailure` records of anything quarantined.
Completion order is irrelevant — the plan reassembles curves by index —
so :class:`ProcessPoolExecutor` is free to fan work out across every
core.  ``on_result(job, qos)`` streams each completed report home as
soon as the driver holds it (the plan uses it to persist results into
the :class:`~repro.exp.cache.SweepCache` *as they finish*, which is what
makes a killed run resumable).

The unit of execution is a *sweep group*: the pending jobs that share
``(job.trace, job.sweep)``.  Their specs differ only in the swept
parameter, so every member can reuse one
:class:`~repro.detectors.registry.PreparedStage` — the kernel work that
parameter never touches is done once per group, not once per point.
Every job runs through one body, ``_execute(job, view, instruments,
prepared)``, with its group's stage.  Results, failures and cache
entries stay per job.

Process fan-out uses the ``fork`` start method where available (Linux,
the benchmark environment): the view table travels to each worker as
pool ``initargs``, which under ``fork`` are inherited through process
memory — multi-million-sample arrival arrays are shared copy-on-write
with zero serialization.  Columnar-backed plans are cheaper still: a
:class:`~repro.traces.columnar.TraceStore` entry pickles as its *path*
and file identity (~200 bytes), so on platforms without ``fork`` — where
initargs travel by pickle — each worker re-opens its own memory mapping
of the trace file instead of unpickling megabytes of view arrays; serial
and parallel runs stay bit-identical because every mapping reads the
same on-disk bytes.  A store whose path now names another file does not
decode: each job over it fails with
:class:`~repro.errors.TraceFormatError` instead of replaying that file,
and jobs over the plan's other traces run as usual.  No parent-process
state is mutated, so concurrent ``run`` calls from different threads are
safe.

Failure handling is driven by a declarative
:class:`~repro.exp.policy.FailurePolicy`, and stays per job inside a
group:

* a job that *raises* ships its traceback home and is retried (alone)
  with jittered exponential backoff up to ``max_retries`` times;
* a job past the per-job wall-clock ``timeout`` is *hung*: the serial
  executor abandons its worker thread (timeout-guarded attempts
  therefore run without per-replay instrumentation — an abandoned
  thread must not keep mutating shared metrics), the pool executor
  kills the worker processes, respawns the pool, and re-dispatches
  every innocent in-flight job at no attempt cost;
* a pool group task that passes its deadline (``timeout`` × members) or
  dies with its worker is *split*: its members go back to the queue as
  single-job tasks at no attempt cost, and the rules above and below
  then judge them one by one;
* a *dead worker process* (``BrokenProcessPool``) marks every in-flight
  one-job task as a crash suspect and respawns the pool; a suspect that
  exhausts its retries is re-run **alone** in a fresh pool before
  judgment, so a job is only ever blamed for a crash it demonstrably causes
  (:class:`ExecutorBrokenError` carries that verified job) and innocent
  bystanders are never quarantined for sharing a pool with a poisoned
  job;
* under ``mode="continue"`` an unrecoverable job is quarantined instead
  of aborting the run — every other grid point still completes.

With no policy (or ``mode="fail_fast"``, ``max_retries=0``) behavior is
the historical one: the first failing job cancels all pending work and
surfaces as :class:`JobFailedError` with the worker's full traceback.
"""

from __future__ import annotations

import math
import os
import pickle
import queue
import threading
import time
import traceback
from collections import deque
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Mapping

from repro.detectors.registry import PreparedStage
from repro.errors import ReproError
from repro.exp.plan import ReplayJob
from repro.exp.policy import ExecutionResult, FailurePolicy, JobFailure
from repro.qos.spec import QoSReport
from repro.replay.engine import replay
from repro.traces.columnar import TraceStore
from repro.traces.trace import MonitorView

__all__ = [
    "JobFailedError",
    "ExecutorBrokenError",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "default_jobs",
]


class JobFailedError(ReproError, RuntimeError):
    """One replay job failed terminally; carries the job + last traceback.

    ``kind`` distinguishes a raised exception (``"error"``) from a job
    that exceeded the policy's wall-clock ceiling (``"timeout"``);
    ``attempts`` counts how many tries the policy allowed it.
    """

    def __init__(
        self, job: ReplayJob, tb: str, *, kind: str = "error", attempts: int = 1
    ):
        detail = tb.rstrip() if tb else f"no traceback ({kind})"
        word = "timed out" if kind == "timeout" else "failed"
        tries = f" after {attempts} attempt(s)" if attempts > 1 else ""
        super().__init__(f"{job.describe()} {word}{tries}:\n{detail}")
        self.job = job
        self.traceback = tb
        self.kind = kind
        self.attempts = attempts


class ExecutorBrokenError(ReproError, RuntimeError):
    """A worker process died (``BrokenProcessPool``), traced to its job.

    Raised instead of leaking the raw stdlib traceback.  ``job`` is the
    offending job when the crash was verified in isolation (the pool
    re-runs an exhausted crash suspect alone before judging it);
    ``suspects`` lists every job that was in flight when a pool broke.
    """

    def __init__(
        self,
        job: ReplayJob | None,
        *,
        suspects: tuple[ReplayJob, ...] = (),
        attempts: int = 1,
        reason: str | None = None,
    ):
        if job is not None:
            msg = (
                f"worker process died while running {job.describe()} "
                f"(verified in isolation, {attempts} attempt(s))"
            )
        else:
            named = ", ".join(j.describe() for j in suspects[:3])
            what = reason or f"{len(suspects)} job(s) were in flight"
            msg = (
                f"worker process died; {what}: "
                f"{named}{'…' if len(suspects) > 3 else ''}"
            )
        super().__init__(msg)
        self.job = job
        self.suspects = suspects if suspects else ((job,) if job else ())
        self.attempts = attempts


def default_jobs() -> int:
    """Worker count used when none is given: every available core."""
    return os.cpu_count() or 1


def _execute(
    job: ReplayJob,
    view: MonitorView | TraceStore,
    instruments,
    prepared: PreparedStage,
) -> QoSReport:
    """The one shared job body — both executors produce identical numbers."""
    return replay(job.spec, view, instruments=instruments, prepared=prepared).qos


def _groups(jobs: list[ReplayJob]) -> dict[tuple[str, str], list[ReplayJob]]:
    """Jobs per sweep group ``(trace, sweep)``, first-seen order throughout."""
    groups: dict[tuple[str, str], list[ReplayJob]] = {}
    for job in jobs:
        groups.setdefault((job.trace, job.sweep), []).append(job)
    return groups


def _retry_hook(instruments, kind: str, job: ReplayJob) -> None:
    if instruments is not None:
        instruments.on_job_retry(kind, job.describe())


def _quarantine_hook(instruments, failure: JobFailure) -> None:
    if instruments is not None:
        instruments.on_job_quarantined(failure.kind, failure.job.describe())


class _TimeoutRunner:
    """One reusable daemon thread that runs attempts under a deadline.

    Created once per run (not per attempt — thread spawn plus scheduler
    latency costs milliseconds per job on a busy box, which is exactly
    the kind of clean-run overhead the failure policy must not add).
    ``attempt`` hands a thunk to the worker thread and waits up to
    ``timeout`` for the answer; a miss means the thread is stuck inside
    the job, so the whole runner is *poisoned* — the caller discards it
    and builds a fresh one, leaving the daemonic thread to be orphaned.
    """

    def __init__(self) -> None:
        self._in: queue.SimpleQueue = queue.SimpleQueue()
        self._out: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(
            target=self._loop, name="repro-exp-attempt", daemon=True
        ).start()

    def _loop(self) -> None:
        while True:
            fn = self._in.get()
            try:
                self._out.put(("ok", fn(), None))
            except Exception:
                self._out.put(("err", None, traceback.format_exc()))

    def attempt(
        self, fn: Callable[[], QoSReport], timeout: float
    ) -> tuple[QoSReport | None, str | None, str | None]:
        """``(qos, kind, traceback)``; ``kind="timeout"`` poisons the runner."""
        self._in.put(fn)
        try:
            status, value, tb = self._out.get(timeout=timeout)
        except queue.Empty:
            return None, "timeout", None
        if status == "err":
            return None, "error", tb
        return value, None, None


class SerialExecutor:
    """Run jobs in order, in-process.

    The reference executor: deterministic, and the only one that can
    thread a live :class:`repro.obs.Instruments` bundle through every
    replay.  Each sweep group shares one
    :class:`~repro.detectors.registry.PreparedStage`, released once the
    group's last job succeeds or is given up; with jobs in plan order at
    most one stage is alive at a time.  The holders over one trace share
    one scope (Chen's ``EA`` for chen, bertier and sfd), cleared once the
    last job over that trace is done.  With no policy (or no
    ``timeout``) a job runs inline at zero overhead; a per-job
    ``timeout`` moves attempts onto one
    persistent worker thread (:class:`_TimeoutRunner`) so a hung replay
    can be abandoned — the thread is daemonic, it cannot be killed, only
    orphaned — and the run go on.  Because an abandoned thread is still
    *executing* the hung replay, timeout-guarded attempts run with
    ``instruments=None``: an orphan mutating the shared metrics bundle
    would race with every later job.  Driver-side failure hooks
    (retries, quarantines) still fire on the live bundle.
    """

    def __init__(self, policy: FailurePolicy | None = None):
        self.policy = policy

    # Chaos harnesses (repro.exp.chaos) override this one seam.
    def _call(
        self,
        job: ReplayJob,
        view,
        instruments,
        attempt: int,
        prepared: PreparedStage,
    ) -> QoSReport:
        return _execute(job, view, instruments, prepared)

    def run(
        self,
        jobs: list[ReplayJob],
        views: Mapping[str, MonitorView | TraceStore],
        *,
        instruments=None,
        policy: FailurePolicy | None = None,
        on_result: Callable[[ReplayJob, QoSReport], None] | None = None,
    ) -> ExecutionResult:
        pol = policy if policy is not None else (self.policy or FailurePolicy())
        reports: dict[int, QoSReport] = {}
        failures: list[JobFailure] = []
        runner: _TimeoutRunner | None = None
        groups = _groups(jobs)
        last = {members[-1].index for members in groups.values()}
        trace_last = {job.trace: job.index for job in jobs}
        scopes: dict[str, dict] = {trace: {} for trace in trace_last}
        holders = {
            key: PreparedStage((j.spec for j in members), scopes[key[0]])
            for key, members in groups.items()
        }

        def one_attempt(job: ReplayJob, attempt: int):
            nonlocal runner
            shared = holders[(job.trace, job.sweep)]
            if pol.timeout is None:
                try:
                    qos = self._call(
                        job, views[job.trace], instruments, attempt, shared
                    )
                    return qos, None, None
                except Exception:
                    return None, "error", traceback.format_exc()
            if runner is None:
                runner = _TimeoutRunner()
            # instruments=None: on timeout the runner thread is abandoned
            # *mid-replay*; it must not keep mutating shared metrics
            # concurrently with the jobs that follow.  It may keep using
            # the group's stage: a stage is a pure function of its inputs.
            # It keeps the scratch it checked out, so the next attempt
            # gets fresh buffers.
            qos, kind, tb = runner.attempt(
                lambda: self._call(job, views[job.trace], None, attempt, shared),
                pol.timeout,
            )
            if kind == "timeout":
                runner = None  # stuck inside the job — abandon the thread
            return qos, kind, tb

        for job in jobs:
            failure: JobFailure | None = None
            for attempt in range(int(pol.max_retries) + 1):
                if attempt:
                    _retry_hook(instruments, failure.kind, job)
                    time.sleep(pol.delay(job.index, attempt))
                qos, kind, tb = one_attempt(job, attempt)
                if kind is None:
                    reports[job.index] = qos
                    if on_result is not None:
                        on_result(job, qos)
                    failure = None
                    break
                failure = JobFailure(
                    job=job, kind=kind, attempts=attempt + 1, traceback=tb
                )
            if job.index in last:
                holders.pop((job.trace, job.sweep)).release()
            if job.index == trace_last[job.trace]:
                scopes.pop(job.trace).clear()
            if failure is not None:
                if pol.fail_fast:
                    raise JobFailedError(
                        job,
                        failure.traceback or "",
                        kind=failure.kind,
                        attempts=failure.attempts,
                    ) from None
                _quarantine_hook(instruments, failure)
                failures.append(failure)
        return ExecutionResult(reports=reports, failures=tuple(failures))


# ------------------------------------------------------------------ #
# process fan-out
# ------------------------------------------------------------------ #

#: Per-worker view table, set by the pool initializer in each child: a
#: view, or the exception its entry raised when decoded.  Never assigned
#: in the parent process: under ``fork`` the initargs are inherited
#: through process memory (copy-on-write, no pickling), and a
#: parent-side global would race when two plans run from different
#: threads.
_WORKER_VIEWS: Mapping[str, MonitorView | TraceStore | Exception] | None = None


def _ship(views: Mapping[str, MonitorView | TraceStore], ctx) -> Mapping:
    """The view table as a pool's initializer argument.

    A ``fork`` child inherits the table itself.  Otherwise every entry is
    pickled here on its own, and :func:`_init_worker` decodes it in the
    worker: a pool would unpickle its initializer arguments before the
    initializer runs, so an entry that fails to decode (a store whose
    file was replaced raises :class:`~repro.errors.TraceFormatError`)
    would kill every worker and break the pool.
    """
    if ctx.get_start_method() == "fork":
        return views
    return {name: pickle.dumps(view) for name, view in views.items()}


def _init_worker(views: Mapping[str, MonitorView | TraceStore | bytes]) -> None:
    global _WORKER_VIEWS
    table: dict[str, MonitorView | TraceStore | Exception] = {}
    for name, entry in views.items():
        if isinstance(entry, bytes):
            try:
                entry = pickle.loads(entry)  # pickled by _ship in the driver
            except Exception as exc:
                entry = exc  # every job over this trace raises it
        table[name] = entry
    _WORKER_VIEWS = table


def _run_job(job: ReplayJob, attempt: int, prepared: PreparedStage):
    """One job in a worker: never raises — failures travel home as tracebacks.

    A job over a trace whose table entry failed to decode raises that
    error, so it comes home as the job's traceback like any other failure.
    """
    try:
        views = _WORKER_VIEWS
        if views is None:  # pragma: no cover - initializer always runs
            raise RuntimeError("worker started without a view table")
        view = views[job.trace]
        if isinstance(view, Exception):
            raise view.with_traceback(None)
        return job.index, _execute(job, view, None, prepared), None
    except BaseException:
        return job.index, None, traceback.format_exc()


def _run_group(
    members: tuple[tuple[ReplayJob, int], ...], run_job: Callable = _run_job
) -> list[tuple]:
    """Worker task: the ``(job, attempt)`` members of one group, in order.

    Members share one :class:`~repro.detectors.registry.PreparedStage`,
    with a scope of the task's own, and each returns its own ``(index,
    qos, traceback)``.  The task stops at the first member that fails, so
    a fail-fast abort is not held up by the rest of the group; the driver
    requeues the members it never reached.
    """
    prepared = PreparedStage(job.spec for job, _attempt in members)
    results = []
    for job, attempt in members:
        results.append(run_job(job, attempt, prepared))
        if results[-1][2] is not None:
            break
    return results


def _kill_pool(pool: futures.ProcessPoolExecutor) -> None:
    """Hard-stop a pool: terminate its workers, then reap it.

    ``shutdown`` alone would wait for a hung job forever; there is no
    public per-worker kill, so this reaches for the executor's process
    table (stable across CPython 3.8–3.13) and falls back to a plain
    non-waiting shutdown where it is absent.
    """
    procs = getattr(pool, "_processes", None)
    for proc in list((procs or {}).values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    try:
        pool.shutdown(wait=procs is not None, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass


class ProcessPoolExecutor:
    """Fan sweep groups out across worker processes (one group per task).

    Parameters
    ----------
    jobs:
        Worker count; ``None``/``0`` means every available core.  ``1``
        degrades gracefully to in-process serial execution (no pool).
    policy:
        Default :class:`~repro.exp.policy.FailurePolicy`; a ``policy=``
        passed to :meth:`run` (what :meth:`ExperimentPlan.run
        <repro.exp.plan.ExperimentPlan.run>` does) overrides it.

    Notes
    -----
    * Results are keyed by job index, so curves reassemble in sweep
      order no matter which worker finishes first — parallel output is
      bit-identical to :class:`SerialExecutor`.
    * Each task is one sweep group run on one shared stage (retries and
      split members run as one-job tasks), and ``on_result`` fires when
      its task comes home — the granularity at which a killed run
      resumes.
    * At most ``jobs`` tasks are in flight at a time (refilled as they
      complete), so a submitted task is *executing*, which is what makes
      the wall-clock deadline (``timeout`` × members) and crash
      attribution meaningful.
    * ``instruments`` is not threaded into workers (per-process
      registries cannot be merged); the *driver-side* failure hooks
      (retries, timeouts, quarantines, pool respawns) do fire on it.
    * A dead worker (``BrokenProcessPool``) never leaks a raw stdlib
      traceback: suspects are retried, verified in isolation, and the
      verdict surfaces as :class:`ExecutorBrokenError` naming the job.
    """

    #: Driver poll period [s]: how often in-flight futures are checked
    #: for completion/deadlines when nothing completes on its own.
    _TICK = 0.05

    #: How many *consecutive* pool generations may die without making any
    #: progress (no job completed, no failed attempt counted — e.g. the
    #: workers die in the initializer and every submit raises
    #: ``BrokenProcessPool``) before the run gives up on respawning.
    #: Without this bound an unspawnable pool would cycle forever.
    _MAX_BARREN_RESPAWNS = 3

    def __init__(self, jobs: int | None = None, policy: FailurePolicy | None = None):
        self.jobs = int(jobs) if jobs else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.policy = policy

    # Chaos harnesses override these two seams.
    def _worker_task(self):
        """The picklable callable submitted to the pool:
        ``task(((job, attempt), ...)) -> [(index, qos, traceback), ...]``."""
        return _run_group

    def _inline_ok(self) -> bool:
        """Whether degrading to in-process serial execution is allowed."""
        return True

    def _make_pool(
        self, capacity: int, ctx, views: Mapping[str, MonitorView | TraceStore]
    ) -> futures.ProcessPoolExecutor:
        """Build one pool generation (tests override to inject broken pools)."""
        return futures.ProcessPoolExecutor(
            max_workers=capacity,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(_ship(views, ctx),),
        )

    def run(
        self,
        jobs: list[ReplayJob],
        views: Mapping[str, MonitorView | TraceStore],
        *,
        instruments=None,
        policy: FailurePolicy | None = None,
        on_result: Callable[[ReplayJob, QoSReport], None] | None = None,
    ) -> ExecutionResult:
        pol = policy if policy is not None else self.policy
        if self._inline_ok() and (self.jobs == 1 or len(jobs) <= 1):
            return SerialExecutor().run(
                jobs, views, instruments=instruments, policy=pol, on_result=on_result
            )
        pol = pol or FailurePolicy()
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()

        task = self._worker_task()
        by_index = {j.index: j for j in jobs}
        attempts: dict[int, int] = {j.index: 0 for j in jobs}  # failures so far
        not_before: dict[int, float] = {}
        # Tasks are tuples of job indices: one per sweep group to start
        # with; retries and split members run as one-job tasks.
        queue: deque[tuple[int, ...]] = deque(
            tuple(j.index for j in members) for members in _groups(jobs).values()
        )
        solo: deque[int] = deque()  # crash suspects awaiting isolated verification
        reports: dict[int, QoSReport] = {}
        failures: list[JobFailure] = []

        def give_up(failure: JobFailure) -> None:
            if pol.fail_fast:
                if failure.kind == "crash":
                    raise ExecutorBrokenError(
                        failure.job, attempts=failure.attempts
                    ) from None
                raise JobFailedError(
                    failure.job,
                    failure.traceback or "",
                    kind=failure.kind,
                    attempts=failure.attempts,
                ) from None
            _quarantine_hook(instruments, failure)
            failures.append(failure)

        def register_failure(
            index: int, kind: str, tb: str | None, *, verified: bool
        ) -> None:
            """Count one failed attempt; retry, isolate, or give up."""
            attempts[index] += 1
            failure = JobFailure(
                job=by_index[index], kind=kind, attempts=attempts[index], traceback=tb
            )
            if attempts[index] <= pol.max_retries:
                _retry_hook(instruments, kind, by_index[index])
                not_before[index] = time.monotonic() + pol.delay(
                    index, attempts[index]
                )
                queue.append((index,))
            elif kind == "crash" and not verified:
                # Exhausted, but the blame is circumstantial (the whole
                # pool died).  Re-run alone before quarantining, so a job
                # is only ever condemned for a crash it causes itself.
                solo.append(index)
            else:
                give_up(failure)

        def charge(
            source: deque, unit: tuple[int, ...], kind: str, verified: bool
        ) -> None:
            """Judge a task the pool lost: a group is split at no attempt
            cost (which member was at fault is unknown); a lone job pays."""
            if len(unit) > 1:
                source.extendleft((i,) for i in reversed(unit))
            else:
                register_failure(unit[0], kind, None, verified=verified)

        def ready_at(unit: tuple[int, ...]) -> float:
            return max(not_before.get(i, 0.0) for i in unit)

        def pop_ready(source: deque, now: float) -> tuple[int, ...] | None:
            """Next task whose backoff has elapsed, preserving order."""
            for _ in range(len(source)):
                unit = source.popleft()
                if ready_at(unit) <= now:
                    return unit
                source.append(unit)
            return None

        def run_generation(source: deque, capacity: int, verified: bool) -> str:
            """One pool lifetime; the return value says how it ended.

            ``"drained"`` — the queue emptied; ``"timeout"``/``"crash"``
            — the pool was killed and must be respawned.  A ``give_up``
            abort (fail-fast) hard-kills the pool *before* propagating:
            a graceful ``shutdown(wait=True)`` would block on whatever
            is still running — forever, if an in-flight job is hung.
            """
            pool = self._make_pool(capacity, ctx, views)
            inflight: dict[futures.Future, tuple[tuple[int, ...], float]] = {}
            killed = False
            try:
                while source or inflight:
                    now = time.monotonic()
                    while len(inflight) < capacity and source:
                        unit = pop_ready(source, now)
                        if unit is None:
                            break
                        try:
                            fut = pool.submit(
                                task, tuple((by_index[i], attempts[i]) for i in unit)
                            )
                        except BrokenProcessPool:
                            # Broke between waits: the task being submitted
                            # never started — requeue it at no cost.
                            source.appendleft(unit)
                            raise
                        deadline = (
                            now + pol.timeout * len(unit)
                            if pol.timeout is not None
                            else math.inf
                        )
                        inflight[fut] = (unit, deadline)
                    if not inflight:
                        pause = min(map(ready_at, source), default=now)
                        time.sleep(max(0.0, min(pause - now, self._TICK)) or 0.001)
                        continue
                    done, _ = futures.wait(
                        set(inflight),
                        timeout=self._TICK,
                        return_when=futures.FIRST_COMPLETED,
                    )
                    crashed = False
                    for fut in done:
                        unit, _deadline = inflight.pop(fut)
                        try:
                            results = fut.result()
                        except BrokenProcessPool:
                            crashed = True
                            charge(source, unit, "crash", verified)
                            continue
                        for index, qos, tb in results:
                            if tb is not None:
                                register_failure(index, "error", tb, verified=verified)
                            else:
                                reports[index] = qos
                                if on_result is not None:
                                    on_result(by_index[index], qos)
                        if len(results) < len(unit):
                            # The group stopped at a failed member; the
                            # members it never reached go back unchanged.
                            source.appendleft(unit[len(results):])
                    if crashed:
                        raise BrokenProcessPool("worker process died")
                    if pol.timeout is not None:
                        now = time.monotonic()
                        hung = [
                            (fut, unit)
                            for fut, (unit, deadline) in inflight.items()
                            if now > deadline
                        ]
                        if hung:
                            # Innocents go back at no attempt cost; a hung
                            # job pays one, a hung group is split.  Kill
                            # the pool *first* — there is no way to stop a
                            # single running future, and register_failure
                            # may raise (fail-fast give_up), which must
                            # never reach a shutdown that waits on the hung
                            # worker.
                            for fut, _unit in hung:
                                inflight.pop(fut)
                            for unit, _deadline in inflight.values():
                                source.appendleft(unit)
                            inflight.clear()
                            killed = True
                            _kill_pool(pool)
                            if instruments is not None:
                                instruments.on_pool_respawn("timeout")
                            for _fut, unit in hung:
                                charge(source, unit, "timeout", verified)
                            return "timeout"
                return "drained"
            except BrokenProcessPool:
                # Every task still in flight is a suspect: the worker that
                # died does not say which task it held.  Kill the pool
                # before judging the suspects — register_failure may
                # raise under fail-fast.
                killed = True
                suspects = [unit for unit, _deadline in inflight.values()]
                inflight.clear()
                _kill_pool(pool)
                if instruments is not None:
                    instruments.on_pool_respawn("crash")
                for unit in suspects:
                    charge(source, unit, "crash", verified)
                return "crash"
            except (JobFailedError, ExecutorBrokenError):
                # A fail-fast abort from give_up inside the done-futures
                # loop: hard-kill the pool so the finally clause does not
                # wait for (possibly hung) in-flight jobs to finish.
                killed = True
                raise
            finally:
                if killed:
                    _kill_pool(pool)
                else:
                    pool.shutdown(wait=True, cancel_futures=True)

        barren = 0  # consecutive pool deaths with zero progress
        while queue or solo:
            before = (len(reports), sum(attempts.values()))
            if queue:
                ended = run_generation(
                    queue, min(self.jobs, len(queue) or 1), verified=False
                )
            else:
                # Isolated verification: one suspect, one fresh pool.
                lone: deque[tuple[int, ...]] = deque([(solo.popleft(),)])
                ended = run_generation(lone, 1, verified=True)
                queue.extend(lone)  # retries scheduled during the solo run
            if ended == "crash" and (len(reports), sum(attempts.values())) == before:
                # The pool died before any job even *ran* (e.g. workers
                # crash in the initializer, so every submit raises and
                # requeues at no attempt cost), or it took only groups
                # down with it, which are split at no cost — the next
                # generation charges their members.  Bounded: an
                # environment that cannot spawn workers must not respawn
                # forever.
                barren += 1
                if barren >= self._MAX_BARREN_RESPAWNS:
                    pending = tuple(
                        by_index[i] for i in [*(i for u in queue for i in u), *solo]
                    )
                    raise ExecutorBrokenError(
                        None,
                        suspects=pending,
                        reason=(
                            f"pool died {barren} consecutive times without "
                            f"running a job; {len(pending)} job(s) pending"
                        ),
                    )
            else:
                barren = 0
        return ExecutionResult(reports=reports, failures=tuple(failures))
