"""Experiment plans: (trace × family × grid) declarations → flat job lists.

Section V's evaluation is one embarrassingly-parallel job: replay the same
trace "from a highly aggressive behavior to a very conservative one"
through every detector family under identical conditions.  The unit of
*result* is therefore *one replay of one spec over one view*, and this
module makes that unit explicit:

* an :class:`ExperimentPlan` collects named traces and sweep declarations
  (family + grid + fixed parameters, exactly the vocabulary of
  :func:`repro.analysis.sweep.sweep_curve`),
* :meth:`ExperimentPlan.jobs` expands the declarations into a flat,
  deterministically ordered list of :class:`ReplayJob`\\ s — each carrying
  a frozen, *picklable* replay spec (specs round-trip through
  ``Spec.to_dict``/``from_dict`` when crossing process boundaries),
* :meth:`ExperimentPlan.run` hands the jobs to a pluggable executor
  (:class:`~repro.exp.executors.SerialExecutor` by default,
  :class:`~repro.exp.executors.ProcessPoolExecutor` for fan-out) and
  reassembles the per-point QoS reports into
  :class:`~repro.qos.area.QoSCurve`\\ s **in sweep order**, regardless of
  completion order — which is what keeps figure outputs bit-identical
  between serial and parallel runs.

The unit of *execution* is coarser: the built-in executors run the jobs
of one sweep (same ``trace`` and ``sweep``) as a group that shares the
kernel work its swept parameter never touches.  Nothing here changes for
that — jobs, cache keys and results stay per point.

The separation of detection logic from the execution/aggregation layer
follows Dobre et al.'s architecture argument; the config-file front end
lives in :mod:`repro.exp.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, Union

from repro.detectors.registry import DetectorFamily, get as get_family
from repro.errors import ConfigurationError
from repro.exp.archive import check_archive_name
from repro.exp.policy import FailureReport
from repro.qos.area import QoSCurve
from repro.qos.spec import QoSReport
from repro.traces.columnar import TraceStore, is_columnar
from repro.traces.trace import HeartbeatTrace, MonitorView

#: What :meth:`ExperimentPlan.add_trace` accepts; stores and paths stay
#: *unopened views* — workers mmap the file instead of unpickling arrays.
TraceSource = Union[MonitorView, HeartbeatTrace, TraceStore, str, Path]

__all__ = [
    "ReplayJob",
    "SweepDecl",
    "ExperimentPlan",
    "PlanResult",
    "check_shard",
]


def check_shard(shard: tuple[int, int]) -> tuple[int, int]:
    """Validate an ``(i, n)`` shard selector; returns it normalized."""
    try:
        index, count = int(shard[0]), int(shard[1])
    except (TypeError, ValueError, IndexError):
        raise ConfigurationError(
            f"shard must be an (i, n) pair, got {shard!r}"
        ) from None
    if count < 1 or not (0 <= index < count):
        raise ConfigurationError(
            f"shard index must satisfy 0 <= i < n, got i={index}, n={count}"
        )
    return index, count


@dataclass(frozen=True)
class ReplayJob:
    """One replay of one spec over one named view — the unit of work.

    Jobs are picklable (the spec pickles through its
    ``to_dict``/``from_dict`` round-trip), carry their position in the
    plan expansion (``index``), and know which curve point they produce
    (``trace``/``sweep``/``parameter``) so executors may run them in any
    order and the plan can still reassemble curves deterministically.
    """

    index: int
    trace: str
    sweep: str
    family: str
    parameter: float
    spec: Any

    def describe(self) -> str:
        """Human-oriented job label for logs and failure reports."""
        try:
            from repro.detectors.registry import spec_string

            text = spec_string(self.spec)
        except Exception:
            text = repr(self.spec)
        return f"job[{self.index}] trace={self.trace!r} sweep={self.sweep!r} {text}"


@dataclass(frozen=True)
class SweepDecl:
    """One declared sweep: a family swept over a grid on one trace."""

    trace: str
    name: str
    family: str
    grid: tuple[float, ...]
    params: Mapping[str, Any] = field(default_factory=dict)
    base: Any = None  # optional spec template (config-file path)
    descriptor: DetectorFamily | None = None  # resolved family (spec building)


class ExperimentPlan:
    """Declarative (trace × family × grid) experiment, executor-agnostic.

    Usage::

        plan = ExperimentPlan()
        plan.add_trace("wan1", trace_or_view)
        plan.add_sweep("wan1", "chen", alphas, window=1000)
        plan.add_sweep("wan1", "sfd", sm1_list, requirements=req)
        result = plan.run(ProcessPoolExecutor(jobs=4))
        curve = result.curve("wan1", "chen")

    Declaration order is preserved everywhere: :meth:`jobs` expands
    sweeps in the order they were added and grids in the order given, and
    :class:`PlanResult` keeps that order in its curves.
    """

    def __init__(self) -> None:
        self._views: dict[str, MonitorView | TraceStore] = {}
        self._sweeps: list[SweepDecl] = []

    # -- declaration ---------------------------------------------------- #

    def add_trace(self, name: str, source: TraceSource) -> "ExperimentPlan":
        """Register a named trace source.

        A :class:`HeartbeatTrace` is reduced to its
        :class:`~repro.traces.trace.MonitorView` here; a
        :class:`~repro.traces.columnar.TraceStore` (or a path to a
        columnar file) is kept as a store, so process-pool executors ship
        the *path* to workers — each worker memory-maps the file instead
        of unpickling megabytes of view arrays.  Non-columnar paths are
        loaded eagerly.
        """
        if not name:
            raise ConfigurationError("trace name must be non-empty")
        check_archive_name(name, "trace name")
        if name in self._views:
            raise ConfigurationError(f"trace {name!r} already declared")
        if isinstance(source, (str, Path)):
            source = (
                TraceStore(source)
                if is_columnar(source)
                else HeartbeatTrace.load(source)
            )
        if isinstance(source, HeartbeatTrace):
            view: MonitorView | TraceStore = source.monitor_view()
        elif isinstance(source, (MonitorView, TraceStore)):
            view = source
        else:
            raise ConfigurationError(
                f"trace {name!r}: cannot replay over {type(source).__name__}"
            )
        self._views[name] = view
        return self

    def add_sweep(
        self,
        trace: str,
        family: Union[str, DetectorFamily],
        grid: Sequence[float] | None = None,
        *,
        name: str | None = None,
        base: Any = None,
        **params: Any,
    ) -> "ExperimentPlan":
        """Declare one sweep over an already-declared trace.

        Parameters mirror :func:`repro.analysis.sweep.sweep_curve`:
        ``grid`` defaults to the family's registered aggressive →
        conservative grid, ``**params`` are fixed spec fields applied to
        every point.  ``name`` keys the resulting curve (default: the
        family name — declare distinct names to sweep one family twice
        on the same trace).  ``base`` optionally gives a full spec
        template instead of ``**params`` (the config-file path: the
        sweep parameter is overridden per grid point via the spec's
        dict round-trip).
        """
        fam = get_family(family) if isinstance(family, str) else family
        if trace not in self._views:
            raise ConfigurationError(
                f"sweep over undeclared trace {trace!r}; "
                f"declared: {', '.join(self._views) or '(none)'}"
            )
        if base is not None and params:
            raise ConfigurationError(
                "give either a base spec or **params, not both"
            )
        key = name if name is not None else fam.name
        check_archive_name(key, "sweep name")
        if any(s.trace == trace and s.name == key for s in self._sweeps):
            raise ConfigurationError(
                f"sweep {key!r} already declared for trace {trace!r} "
                "(pass name= to distinguish)"
            )
        values = fam.default_grid if grid is None else tuple(float(v) for v in grid)
        self._sweeps.append(
            SweepDecl(
                trace=trace,
                name=key,
                family=fam.name,
                grid=values,
                params=dict(params),
                base=base,
                descriptor=fam,
            )
        )
        return self

    # -- introspection -------------------------------------------------- #

    @property
    def views(self) -> Mapping[str, MonitorView | TraceStore]:
        return dict(self._views)

    @property
    def sweeps(self) -> tuple[SweepDecl, ...]:
        return tuple(self._sweeps)

    def __len__(self) -> int:
        """Total number of replay jobs the plan expands to."""
        return sum(len(s.grid) for s in self._sweeps)

    # -- expansion ------------------------------------------------------ #

    def _point_spec(self, decl: SweepDecl, value: float):
        fam = decl.descriptor if decl.descriptor is not None else get_family(decl.family)
        if decl.base is not None:
            if fam.sweep_param is None:
                return decl.base
            data = decl.base.to_dict()
            data[fam.sweep_param] = value
            return fam.spec_from_dict(data)
        return fam.grid_spec(value, **decl.params)

    def jobs(self) -> list[ReplayJob]:
        """Expand every declaration into the flat deterministic job list."""
        out: list[ReplayJob] = []
        for decl in self._sweeps:
            for value in decl.grid:
                out.append(
                    ReplayJob(
                        index=len(out),
                        trace=decl.trace,
                        sweep=decl.name,
                        family=decl.family,
                        parameter=float(value),
                        spec=self._point_spec(decl, float(value)),
                    )
                )
        return out

    # -- execution ------------------------------------------------------ #

    def run(
        self,
        executor=None,
        *,
        instruments=None,
        cache=None,
        policy=None,
        shard: tuple[int, int] | None = None,
        progress=None,
    ) -> "PlanResult":
        """Execute every job and reassemble curves in sweep order.

        ``executor`` defaults to a fresh
        :class:`~repro.exp.executors.SerialExecutor`.  The plan always
        calls ``executor.run(jobs, views, *, instruments, policy,
        on_result)`` and reads the
        :class:`~repro.exp.policy.ExecutionResult` it returns: the
        reports plus any quarantined-job records.  Reassembly is by job
        index, so executors are free to complete jobs in any order.

        ``cache`` (a :class:`~repro.exp.cache.SweepCache`) makes the run
        incremental *and crash-safe*: jobs are partitioned into *hits* —
        whose reports are loaded from the cache with zero replay — and
        *misses*, which are handed to the executor.  Each miss is stored
        **the moment its report exists** (via the executor's
        ``on_result`` streaming callback), so a run
        killed partway leaves every completed grid point on disk and a
        rerun replays only the remainder.  Keys cover the view
        fingerprint, family, and full spec, so a cached run over
        unchanged inputs reassembles curves bit-identically to a cold
        one; per-run hit/miss counts land on :attr:`PlanResult.cache`.

        ``policy`` (a :class:`~repro.exp.policy.FailurePolicy`) is
        forwarded to the executor.  Under ``continue`` mode,
        jobs that exhaust their retries are *quarantined*: their curves
        render with explicit holes (the point is simply absent) and the
        run's :class:`~repro.exp.policy.FailureReport` lands on
        :attr:`PlanResult.failures`.

        ``shard=(i, n)`` restricts execution to every job with
        ``index % n == i`` (round-robin, so each shard samples every
        sweep).  Out-of-shard points are left as holes unless the cache
        already holds them; :func:`repro.exp.config.merge_config`
        reassembles full curves from shards sharing a cache directory.

        ``progress`` (a :class:`~repro.exp.progress.RunProgress`) turns
        the run observable: job completions stream through ``on_result``,
        retry/quarantine hooks are teed off the instruments seam, and the
        final counts are reconciled against this result before the
        heartbeat file is sealed — so its last state always matches the
        archive.
        """
        if executor is None:
            from repro.exp.executors import SerialExecutor

            executor = SerialExecutor()
        if not self._sweeps:
            raise ConfigurationError("plan declares no sweeps")
        if shard is not None:
            shard = check_shard(shard)
        jobs = self.jobs()
        mine = [
            j for j in jobs if shard is None or j.index % shard[1] == shard[0]
        ]
        reports: dict[int, QoSReport] = {}
        misses = mine
        keys: dict[int, str] = {}
        fingerprints: dict[str, str] = {}
        stats = None
        invalid_before = cache.invalid if cache is not None else 0
        if cache is not None:
            fingerprints = {
                name: view.fingerprint() for name, view in self._views.items()
            }
            misses = []
            for job in jobs:
                key = cache.key(fingerprints[job.trace], job.family, job.spec)
                keys[job.index] = key
                qos = cache.load(key)
                if qos is not None:
                    reports[job.index] = qos
                elif shard is None or job.index % shard[1] == shard[0]:
                    misses.append(job)

        def store(job: ReplayJob, qos: QoSReport) -> None:
            cache.store(
                keys[job.index],
                qos,
                meta={
                    "trace": job.trace,
                    "sweep": job.sweep,
                    "family": job.family,
                    "parameter": job.parameter,
                    "view": fingerprints[job.trace],
                },
            )

        if progress is not None:
            from repro.exp.progress import ProgressInstruments

            progress.begin(
                total=len(mine),
                cache_hits=len(mine) - len(misses),
                shard=shard,
            )
            instruments = ProgressInstruments(progress, instruments)

        callbacks = []
        if cache is not None:
            callbacks.append(store)
        if progress is not None:
            callbacks.append(lambda job, qos: progress.job_done(job, qos))
        if len(callbacks) == 1:
            on_result = callbacks[0]
        elif callbacks:
            def on_result(job: ReplayJob, qos: QoSReport) -> None:
                for fn in callbacks:
                    fn(job, qos)
        else:
            on_result = None

        failures: tuple = ()
        try:
            if misses:
                executed = executor.run(
                    misses,
                    self.views,
                    instruments=instruments,
                    policy=policy,
                    on_result=on_result,
                )
                failures = executed.failures
                if cache is not None:
                    cache.write_manifest()
                reports.update(executed.reports)
        except BaseException:
            if progress is not None:
                progress.finish("failed")
            raise
        if cache is not None:
            from repro.exp.cache import CacheStats

            stats = CacheStats(
                hits=len(mine) - len(misses),
                misses=len(misses),
                invalid=cache.invalid - invalid_before,
            )
        quarantined = {f.job.index for f in failures}
        missing = [
            j.index
            for j in mine
            if j.index not in reports and j.index not in quarantined
        ]
        if missing:
            if progress is not None:
                progress.finish("failed")
            raise ConfigurationError(
                f"executor returned no result for jobs {missing[:5]}"
                + ("…" if len(missing) > 5 else "")
            )
        if progress is not None:
            progress.finish(
                "completed",
                done=sum(1 for j in mine if j.index in reports),
                quarantined=len(quarantined),
            )
        curves: dict[str, dict[str, QoSCurve]] = {}
        cursor = 0
        for decl in self._sweeps:
            curve = QoSCurve(decl.family)
            for value in decl.grid:
                if cursor in reports:  # quarantined/out-of-shard → hole
                    curve.add(float(value), reports[cursor])
                cursor += 1
            curves.setdefault(decl.trace, {})[decl.name] = curve
        return PlanResult(
            curves=curves,
            cache=stats,
            failures=FailureReport(failures=tuple(failures)),
            shard=shard,
        )


@dataclass
class PlanResult:
    """Curves of one executed plan, keyed ``trace → sweep name``.

    ``cache`` carries this run's hit/miss accounting when the plan ran
    against a :class:`~repro.exp.cache.SweepCache`, ``None`` otherwise.
    ``failures`` records every quarantined job (empty on a clean run);
    their curve points are explicit holes.  ``shard`` is the ``(i, n)``
    selector when this result covers only one shard of the plan.
    """

    curves: dict[str, dict[str, QoSCurve]]
    cache: Any = None
    failures: FailureReport = field(default_factory=FailureReport)
    shard: tuple[int, int] | None = None

    @property
    def clean(self) -> bool:
        """True when no job was quarantined."""
        return not self.failures

    def curve(self, trace: str, name: str | None = None) -> QoSCurve:
        """One curve; ``name`` may be omitted when the trace has one sweep."""
        try:
            per_trace = self.curves[trace]
        except KeyError:
            raise ConfigurationError(
                f"no curves for trace {trace!r}; have {', '.join(self.curves)}"
            ) from None
        if name is None:
            if len(per_trace) != 1:
                raise ConfigurationError(
                    f"trace {trace!r} has {len(per_trace)} curves; name one of "
                    f"{', '.join(per_trace)}"
                )
            return next(iter(per_trace.values()))
        try:
            return per_trace[name]
        except KeyError:
            raise ConfigurationError(
                f"no curve {name!r} for trace {trace!r}; have {', '.join(per_trace)}"
            ) from None

    def trace_curves(self, trace: str) -> dict[str, QoSCurve]:
        """All curves of one trace, declaration order (for figure renders)."""
        if trace not in self.curves:
            raise ConfigurationError(
                f"no curves for trace {trace!r}; have {', '.join(self.curves)}"
            )
        return dict(self.curves[trace])

    def items(self) -> Iterable[tuple[str, str, QoSCurve]]:
        """Flat ``(trace, name, curve)`` iteration, declaration order."""
        for trace, per_trace in self.curves.items():
            for name, curve in per_trace.items():
                yield trace, name, curve

    def __len__(self) -> int:
        return sum(len(per_trace) for per_trace in self.curves.values())
