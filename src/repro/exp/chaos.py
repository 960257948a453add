"""Fault injection for the experiment plane: deterministic job chaos.

:mod:`repro.runtime.faults` injects failures into *heartbeat streams*;
this module applies the same discipline one layer up, to the jobs of an
:class:`~repro.exp.plan.ExperimentPlan`.  A :class:`ChaosSchedule` maps
job indices to declared :class:`JobFault`\\ s, and the fate of one
attempt is a pure function of ``(job index, attempt number)`` — never of
wall-clock time, worker identity, or how other jobs interleave — so a
fault scenario replays identically under :class:`FlakyExecutor` (serial)
and :class:`FlakyProcessPoolExecutor` (process fan-out), which is what
makes executor-parity tests meaningful.

Three fault kinds mirror the failure modes
:class:`~repro.exp.policy.FailurePolicy` must survive:

* ``"error"`` — the attempt raises :class:`ChaosInjectedError`;
* ``"timeout"`` — the attempt stalls for :attr:`JobFault.hang` seconds
  before proceeding (a policy ``timeout`` below the hang sees a hung
  job; no policy sees a slow one);
* ``"crash"`` — the worker *process* dies mid-job (``os._exit``), which
  only the process executor can express: the serial harness rejects
  crash faults up front rather than killing the test process.

``fail_attempts`` bounds the fault to the first N attempts (a transient
failure that retries cure); ``None`` poisons the job on every attempt.
"""

from __future__ import annotations

import functools
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError, ReproError
from repro.exp.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    _run_group,
    _run_job,
)
from repro.exp.plan import ReplayJob

__all__ = [
    "JobFault",
    "ChaosSchedule",
    "ChaosInjectedError",
    "chaos_worker",
    "FlakyExecutor",
    "FlakyProcessPoolExecutor",
]

_KINDS = ("error", "timeout", "crash")


class ChaosInjectedError(ReproError, RuntimeError):
    """The failure a declared ``"error"`` fault raises inside a job."""


@dataclass(frozen=True)
class JobFault:
    """One declared fault on one job.

    ``fail_attempts`` is how many attempts (0-based, from the first) the
    fault fires on — ``1`` means only the initial attempt fails and the
    first retry succeeds; ``None`` means every attempt fails (a poisoned
    job no retry budget can save).  ``hang`` is the stall duration of a
    ``"timeout"`` fault.
    """

    kind: str
    fail_attempts: int | None = 1
    hang: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {', '.join(_KINDS)}; got {self.kind!r}"
            )
        if self.fail_attempts is not None and self.fail_attempts < 1:
            raise ConfigurationError(
                f"fail_attempts must be >= 1 or None, got {self.fail_attempts!r}"
            )
        if self.hang <= 0:
            raise ConfigurationError(f"hang must be positive, got {self.hang!r}")


@dataclass(frozen=True, eq=False)
class ChaosSchedule:
    """Deterministic fault plan: job index → :class:`JobFault`.

    Picklable (it rides into worker processes inside the submitted
    task), and consulted through one pure function:
    :meth:`fate` of ``(index, attempt)`` never changes between calls.
    """

    faults: Mapping[int, JobFault] = field(default_factory=dict)

    def fate(self, index: int, attempt: int) -> JobFault | None:
        """The fault attempt ``attempt`` (0-based) of job ``index`` suffers."""
        fault = self.faults.get(index)
        if fault is None:
            return None
        if fault.fail_attempts is None or attempt < fault.fail_attempts:
            return fault
        return None


def chaos_worker(
    job: ReplayJob, attempt: int = 0, prepared=None, *, schedule: ChaosSchedule
):
    """One job of a worker task, wrapped in chaos.

    Wraps :func:`~repro.exp.executors._run_job` with the same return
    contract — ``(index, qos, traceback)`` — so the pool driver cannot
    tell it apart from the real job body, except when a ``"crash"``
    fault hard-kills the hosting process.  Within a group task each
    member meets its own fate for its own ``(index, attempt)``.
    """
    fault = schedule.fate(job.index, attempt)
    if fault is not None:
        if fault.kind == "crash":
            os._exit(13)
        if fault.kind == "timeout":
            time.sleep(fault.hang)
        elif fault.kind == "error":
            try:
                raise ChaosInjectedError(
                    f"injected error: {job.describe()} attempt {attempt}"
                )
            except ChaosInjectedError:
                return job.index, None, traceback.format_exc()
    return _run_job(job, attempt, prepared)


class FlakyExecutor(SerialExecutor):
    """Serial executor with injected faults (the in-process harness).

    ``"error"`` faults raise, ``"timeout"`` faults stall the attempt;
    ``"crash"`` faults are rejected at :meth:`run` — killing the only
    process there is would take the test suite down with it, so crash
    scenarios belong to :class:`FlakyProcessPoolExecutor`.
    """

    def __init__(self, schedule: ChaosSchedule, policy=None):
        super().__init__(policy=policy)
        self.schedule = schedule

    def run(self, jobs, views, **kwargs):
        for job in jobs:
            fault = self.schedule.faults.get(job.index)
            if fault is not None and fault.kind == "crash":
                raise ConfigurationError(
                    "crash faults kill the hosting process; use "
                    "FlakyProcessPoolExecutor for crash scenarios"
                )
        return super().run(jobs, views, **kwargs)

    def _call(self, job, view, instruments, attempt, prepared=None):
        fault = self.schedule.fate(job.index, attempt)
        if fault is not None:
            if fault.kind == "timeout":
                time.sleep(fault.hang)
            elif fault.kind == "error":
                raise ChaosInjectedError(
                    f"injected error: {job.describe()} attempt {attempt}"
                )
        return super()._call(job, view, instruments, attempt, prepared)


class FlakyProcessPoolExecutor(ProcessPoolExecutor):
    """Process-pool executor whose workers run under a chaos schedule.

    The schedule travels inside the submitted group task (a
    :func:`functools.partial` running :func:`chaos_worker` per member),
    so worker processes need no side-channel state.  Degrading to in-process
    serial execution is disabled: a ``"crash"`` fault must land in a
    disposable worker process even for single-job plans.
    """

    def __init__(self, schedule: ChaosSchedule, jobs=None, policy=None):
        super().__init__(jobs=jobs, policy=policy)
        self.schedule = schedule

    def _worker_task(self):
        return functools.partial(
            _run_group,
            run_job=functools.partial(chaos_worker, schedule=self.schedule),
        )

    def _inline_ok(self) -> bool:
        return False
