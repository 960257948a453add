"""Declarative failure handling for experiment runs.

TFix+ (He et al., PAPERS.md) argues that timeouts must be *declared and
self-describing* rather than implicit, and Dobre et al.'s robust
detection architecture requires the evaluation plane itself to tolerate
component failures by design.  This module is that declaration layer for
:mod:`repro.exp`: a :class:`FailurePolicy` states, up front, how one run
treats a failing, hanging, or crashing replay job — how long a job may
run, how often it is retried (with jittered exponential backoff), and
whether the first unrecoverable job aborts the run (``fail_fast``) or is
*quarantined* while every other grid point completes (``continue``).

Determinism follows the :mod:`repro.runtime.faults` discipline: the
backoff jitter of one retry is a pure function of ``(seed, job index,
attempt)`` — never of global random state or of how many other jobs
happened to fail first — so a rerun under the same policy reproduces the
same schedule.

The executors return an :class:`ExecutionResult` (reports + the
:class:`JobFailure` records of quarantined jobs); the plan turns those
into a :class:`FailureReport` carried on
:class:`~repro.exp.plan.PlanResult` and persisted into curve archives.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exp.plan import ReplayJob
    from repro.qos.spec import QoSReport

__all__ = [
    "FAIL_FAST",
    "CONTINUE",
    "FailurePolicy",
    "JobFailure",
    "FailureReport",
    "ExecutionResult",
]

FAIL_FAST = "fail_fast"
CONTINUE = "continue"
_MODES = (FAIL_FAST, CONTINUE)

#: Failure kinds a job can be retried or quarantined for.
KINDS = ("error", "timeout", "crash")


@dataclass(frozen=True)
class FailurePolicy:
    """How one experiment run treats failing, hanging, or crashing jobs.

    Attributes
    ----------
    timeout:
        Per-job wall-clock ceiling in seconds (``None`` = unbounded, the
        historical behavior).  A job past its deadline is treated as
        *hung*: the serial executor abandons its worker thread, the
        process pool kills and respawns the worker pool.
    max_retries:
        Extra attempts after the first failure.  ``0`` preserves the
        historical one-shot behavior.
    backoff / backoff_factor / max_backoff:
        Jittered exponential backoff between attempts: retry ``k``
        (1-based) waits ``backoff * backoff_factor**(k-1)`` seconds,
        stretched by up to ``jitter`` of itself, capped at
        ``max_backoff``.
    jitter:
        Fraction in ``[0, 1]`` of the base delay added as deterministic
        jitter (see :meth:`delay`).
    mode:
        ``"fail_fast"`` — the first job that exhausts its retries aborts
        the run (the historical behavior).  ``"continue"`` — such a job
        is quarantined into the run's :class:`FailureReport` and every
        other job still completes.
    seed:
        Seeds the per-(job, attempt) jitter so reruns reproduce the same
        backoff schedule.
    """

    timeout: float | None = None
    max_retries: int = 0
    backoff: float = 0.1
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    jitter: float = 0.5
    mode: str = FAIL_FAST
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:
            raise ConfigurationError(
                f"timeout must be positive (or None), got {self.timeout!r}"
            )
        if int(self.max_retries) != self.max_retries or self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be a non-negative integer, got {self.max_retries!r}"
            )
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff!r}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.max_backoff < 0:
            raise ConfigurationError(
                f"max_backoff must be >= 0, got {self.max_backoff!r}"
            )
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError(
                f"jitter must lie in [0, 1], got {self.jitter!r}"
            )
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(_MODES)}; got {self.mode!r}"
            )

    @property
    def fail_fast(self) -> bool:
        return self.mode == FAIL_FAST

    def uniform(self, index: int, attempt: int) -> float:
        """Deterministic U[0, 1) draw for ``(seed, job index, attempt)``.

        Same discipline as :mod:`repro.runtime.faults`: the draw depends
        only on these three integers, never on call order, so the backoff
        schedule of one job is invariant under everything the other jobs
        do.
        """
        token = f"{self.seed}:{index}:{attempt}".encode()
        return (zlib.crc32(token) & 0xFFFFFFFF) / 2**32

    def delay(self, index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of job ``index``."""
        if attempt < 1:
            raise ConfigurationError(f"attempt is 1-based, got {attempt!r}")
        base = self.backoff * self.backoff_factor ** (attempt - 1)
        stretched = base * (1.0 + self.jitter * self.uniform(index, attempt))
        return min(stretched, self.max_backoff)


@dataclass(frozen=True)
class JobFailure:
    """One job's terminal failure record (after every allowed attempt).

    ``kind`` is ``"error"`` (the replay raised), ``"timeout"`` (the job
    exceeded the policy's wall-clock ceiling), or ``"crash"`` (the worker
    process died mid-job).  ``traceback`` carries the last attempt's
    formatted traceback when one exists (crashes and timeouts have none).
    """

    job: "ReplayJob"
    kind: str
    attempts: int
    traceback: str | None = None

    def describe(self) -> str:
        noun = {"error": "failed", "timeout": "timed out", "crash": "crashed"}
        what = noun.get(self.kind, self.kind)
        return (
            f"{self.job.describe()} {what} "
            f"(quarantined after {self.attempts} attempt(s))"
        )

    def to_dict(self) -> dict:
        """Archive-ready record (first traceback line only, not the wall)."""
        tail = None
        if self.traceback:
            lines = [ln for ln in self.traceback.strip().splitlines() if ln.strip()]
            tail = lines[-1] if lines else None
        return {
            "index": self.job.index,
            "trace": self.job.trace,
            "sweep": self.job.sweep,
            "family": self.job.family,
            "parameter": self.job.parameter,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": tail,
        }


@dataclass(frozen=True)
class FailureReport:
    """Every quarantined job of one run (empty on a clean run)."""

    failures: tuple[JobFailure, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    def __iter__(self):
        return iter(self.failures)

    def for_sweep(self, trace: str, sweep: str) -> tuple[JobFailure, ...]:
        return tuple(
            f for f in self.failures if f.job.trace == trace and f.job.sweep == sweep
        )

    def summary(self) -> str:
        if not self.failures:
            return "no quarantined jobs"
        lines = [f"{len(self.failures)} quarantined job(s):"]
        lines.extend(f"  {f.describe()}" for f in self.failures)
        return "\n".join(lines)


@dataclass(frozen=True)
class ExecutionResult:
    """What an executor hands back: completed reports + quarantined jobs."""

    reports: Mapping[int, "QoSReport"] = field(default_factory=dict)
    failures: tuple[JobFailure, ...] = ()
