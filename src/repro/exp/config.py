"""Config-file-driven experiment runs: ``repro run experiments.toml``.

TFix+ (He et al.) argues that timeout experiments must be *declared*, not
scripted, to be reproducible; this module is that declaration layer.  A
TOML file lists traces (synthesized from a named WAN profile, or loaded
from ``.npz``/``.csv`` files) and sweeps (registry family or full spec
string + grid), and :func:`run_config` expands it through
:class:`~repro.exp.plan.ExperimentPlan`, executes it serially or across
processes, and archives every curve as JSON
(:func:`~repro.exp.archive.archive_curves`).

Schema::

    [run]                      # optional defaults
    jobs = 4                   # executor fan-out (CLI --jobs overrides)
    output = "curves"          # archive directory, relative to this file
    seed = 2012                # default synthesis seed

    [run.failures]             # optional failure policy (CLI overrides)
    timeout = 120.0            # per-job wall-clock ceiling [s]
    max_retries = 2            # extra attempts after the first failure
    backoff = 0.1              # first-retry delay [s], doubled per retry
    mode = "continue"          # or "fail_fast" (the default)

    [[trace]]
    name = "wan1"              # key sweeps refer to
    profile = "WAN-1"          # a repro.traces profile …
    n = 60000                  # heartbeats (default: scaled published count)
    seed = 7                   # per-trace override
    # … or a logged trace instead of a profile:
    # file = "wan1.npz"        # .npz (HeartbeatTrace.save), .csv, or a
    #                          # columnar store (repro trace pack) —
    #                          # stores replay zero-copy and ship to
    #                          # pool workers by path

    [[sweep]]
    trace = "wan1"             # optional when only one trace is declared
    detector = "chen"          # family, or spec string "chen:window=500"
    name = "chen-w500"         # curve key (default: family name)
    grid = [0.01, 0.1, 0.5]    # default: the family's registered grid
    params = { window = 500 }  # fixed spec fields (bare-family form only)

Every knob deliberately reuses an existing vocabulary: profiles are the
calibrated Section V cases, ``detector`` strings parse through
:func:`repro.detectors.registry.parse_spec`, grids default to each
family's aggressive → conservative registry grid.
"""

from __future__ import annotations

import sys
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.detectors.registry import get as get_family
from repro.errors import ConfigurationError
from repro.exp.archive import archive_curves
from repro.exp.cache import CacheStats, SweepCache
from repro.exp.executors import ProcessPoolExecutor, SerialExecutor
from repro.exp.plan import ExperimentPlan, PlanResult, check_shard
from repro.exp.policy import FailurePolicy, FailureReport
from repro.exp.progress import RunProgress
from repro.traces import (
    ALL_PROFILES,
    LAN_REFERENCE,
    HeartbeatTrace,
    TraceStore,
    is_columnar,
    synthesize,
)

__all__ = [
    "ExperimentConfig",
    "RunOutcome",
    "load_config",
    "run_config",
    "merge_config",
    "shard_directory",
]

_PROFILES = {p.name: p for p in (*ALL_PROFILES, LAN_REFERENCE)}

_RUN_KEYS = {"jobs", "output", "seed", "failures"}
_TRACE_KEYS = {"name", "profile", "file", "n", "seed"}
_SWEEP_KEYS = {"trace", "detector", "name", "grid", "params"}
_FAILURE_KEYS = {
    "timeout",
    "max_retries",
    "backoff",
    "backoff_factor",
    "max_backoff",
    "jitter",
    "mode",
    "seed",
}


@dataclass
class ExperimentConfig:
    """A parsed experiment declaration, plan fully materialized."""

    path: Path
    plan: ExperimentPlan
    jobs: int = 1
    output: Path | None = None
    seed: int = 2012
    traces: list[dict[str, Any]] = field(default_factory=list)
    sweeps: list[dict[str, Any]] = field(default_factory=list)
    policy: FailurePolicy | None = None


@dataclass
class RunOutcome:
    """What one config run produced: curves, archive paths, timing.

    ``cache`` is the run's hit/miss accounting
    (:class:`~repro.exp.cache.CacheStats`), or ``None`` when the run
    bypassed the cache (``use_cache=False`` / ``--no-cache``).
    ``failures`` records quarantined jobs (empty on a clean run);
    ``shard`` is the ``(i, n)`` selector of a sharded run; ``resumed``
    is set when the run was an explicit ``--resume``.
    """

    result: PlanResult
    written: list[Path]
    jobs: int
    n_jobs: int
    elapsed: float
    cache: CacheStats | None = None
    failures: FailureReport = field(default_factory=FailureReport)
    shard: tuple[int, int] | None = None
    resumed: bool = False

    @property
    def clean(self) -> bool:
        """True when no job was quarantined."""
        return not self.failures


def shard_directory(output: Path, shard: tuple[int, int]) -> Path:
    """Where shard ``(i, n)``'s partial archive lands under ``output``."""
    return output / f"shard-{shard[0]}-of-{shard[1]}"


def _tty_progress_line(progress: RunProgress) -> None:
    """Repaint one carriage-return progress line on a TTY stderr."""
    end = "\n" if progress.state != "running" else ""
    sys.stderr.write(f"\r\x1b[K{progress.line()}{end}")
    sys.stderr.flush()


def _build_policy(table: Mapping[str, Any], where: str) -> FailurePolicy:
    if not isinstance(table, Mapping):
        raise ConfigurationError(f"{where} must be a table")
    _require_keys(table, _FAILURE_KEYS, where)
    kwargs: dict[str, Any] = {}
    for key in _FAILURE_KEYS:
        if key not in table:
            continue
        value = table[key]
        if key == "mode":
            kwargs[key] = str(value).replace("-", "_")
        elif key in ("max_retries", "seed"):
            kwargs[key] = int(value)
        else:
            kwargs[key] = float(value)
    try:
        return FailurePolicy(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _require_keys(table: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _build_trace(entry: Mapping[str, Any], base: Path, default_seed: int, where: str):
    _require_keys(entry, _TRACE_KEYS, where)
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"{where}: every trace needs a non-empty name")
    has_profile = "profile" in entry
    has_file = "file" in entry
    if has_profile == has_file:
        raise ConfigurationError(
            f"{where} ({name!r}): give exactly one of profile= or file="
        )
    if has_file:
        path = base / str(entry["file"])
        if not path.exists():
            raise ConfigurationError(f"{where} ({name!r}): no such trace file {path}")
        if path.suffix == ".csv":
            return name, HeartbeatTrace.from_csv(path, name=name)
        if is_columnar(path):
            # Kept as a store: replays zero-copy off the mapping, and the
            # plan ships only the path to pool workers.
            return name, TraceStore(path)
        return name, HeartbeatTrace.load(path)
    profile_name = str(entry["profile"])
    try:
        profile = _PROFILES[profile_name]
    except KeyError:
        raise ConfigurationError(
            f"{where} ({name!r}): unknown profile {profile_name!r}; "
            f"choose from {', '.join(_PROFILES)}"
        ) from None
    if "n" in entry:
        n = int(entry["n"])
    else:
        from repro.analysis.experiments import scaled_heartbeats

        n = scaled_heartbeats(profile)
    seed = int(entry.get("seed", default_seed))
    return name, synthesize(profile, n=n, seed=seed)


def _add_sweep(
    plan: ExperimentPlan, entry: Mapping[str, Any], trace_names: list[str], where: str
) -> dict[str, Any]:
    _require_keys(entry, _SWEEP_KEYS, where)
    detector = entry.get("detector")
    if not isinstance(detector, str) or not detector.strip():
        raise ConfigurationError(f"{where}: every sweep needs detector=")
    trace = entry.get("trace")
    if trace is None:
        if len(trace_names) != 1:
            raise ConfigurationError(
                f"{where}: trace= is required when several traces are declared"
            )
        trace = trace_names[0]
    grid = entry.get("grid")
    if grid is not None:
        if not isinstance(grid, list) or not all(
            isinstance(v, (int, float)) for v in grid
        ):
            raise ConfigurationError(f"{where}: grid must be a list of numbers")
        grid = [float(v) for v in grid]
    params = entry.get("params", {})
    if not isinstance(params, Mapping):
        raise ConfigurationError(f"{where}: params must be a table")
    family_name, _, spec_params = detector.partition(":")
    family = get_family(family_name.strip())
    name = entry.get("name", family.name)
    if spec_params.strip():
        if params:
            raise ConfigurationError(
                f"{where}: give parameters either in the detector spec string "
                "or under params=, not both"
            )
        base = family.parse(spec_params)
        plan.add_sweep(str(trace), family, grid, name=str(name), base=base)
    else:
        plan.add_sweep(str(trace), family, grid, name=str(name), **dict(params))
    return {"trace": str(trace), "name": str(name), "detector": detector}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse one ``experiments.toml`` and materialize its plan.

    Traces are synthesized/loaded eagerly, so errors surface at load time
    with the config file named, not mid-run in a worker.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            data = tomllib.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid TOML: {exc}") from exc

    run = data.get("run", {})
    if not isinstance(run, Mapping):
        raise ConfigurationError(f"{path}: [run] must be a table")
    _require_keys(run, _RUN_KEYS, f"{path}: [run]")
    seed = int(run.get("seed", 2012))
    jobs = int(run.get("jobs", 1))
    if jobs < 0:
        raise ConfigurationError(f"{path}: [run] jobs must be >= 0")
    output = run.get("output")
    policy = None
    if "failures" in run:
        policy = _build_policy(run["failures"], f"{path}: [run.failures]")

    traces = data.get("trace", [])
    sweeps = data.get("sweep", [])
    if not isinstance(traces, list) or not traces:
        raise ConfigurationError(f"{path}: declare at least one [[trace]]")
    if not isinstance(sweeps, list) or not sweeps:
        raise ConfigurationError(f"{path}: declare at least one [[sweep]]")

    plan = ExperimentPlan()
    trace_meta: list[dict[str, Any]] = []
    for i, entry in enumerate(traces):
        where = f"{path}: [[trace]] #{i + 1}"
        name, trace = _build_trace(entry, path.parent, seed, where)
        plan.add_trace(name, trace)
        trace_meta.append(
            {
                "name": name,
                "source": entry.get("profile", entry.get("file")),
                "heartbeats": trace.total_sent,
            }
        )
    trace_names = [t["name"] for t in trace_meta]
    sweep_meta = [
        _add_sweep(plan, entry, trace_names, f"{path}: [[sweep]] #{i + 1}")
        for i, entry in enumerate(sweeps)
    ]
    return ExperimentConfig(
        path=path,
        plan=plan,
        jobs=jobs,
        output=(path.parent / output) if output else None,
        seed=seed,
        traces=trace_meta,
        sweeps=sweep_meta,
        policy=policy,
    )


def run_config(
    config: ExperimentConfig,
    *,
    jobs: int | None = None,
    output: str | Path | None = None,
    archive: bool = True,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    policy: FailurePolicy | None = None,
    shard: tuple[int, int] | None = None,
    resume: bool = False,
    instruments=None,
    progress: RunProgress | None = None,
) -> RunOutcome:
    """Execute a loaded config and archive its curves.

    ``jobs``/``output`` override the config's ``[run]`` table (the CLI
    flags).  ``jobs <= 1`` runs serially; anything larger fans out via
    :class:`~repro.exp.executors.ProcessPoolExecutor` (``0`` = every
    core).  Curves land under ``output`` (default: ``<config stem>_curves``
    next to the config file) unless ``archive=False``.

    Runs are incremental by default: results are cached under
    ``cache_dir`` (default: a ``cache/`` subdirectory of the archive
    directory) keyed by trace fingerprint + family + spec, and each
    completed job is persisted *as it finishes*, so a run killed partway
    leaves its work on disk.  ``use_cache=False`` (``--no-cache``)
    bypasses both reads and writes; with ``archive=False`` and no
    explicit ``cache_dir`` there is nowhere to persist, so the cache is
    skipped too.

    ``policy`` overrides the config's ``[run.failures]`` table.
    ``resume=True`` (``--resume``) asserts the crash-safe path: it
    requires the cache and reports how much prior work was reused.
    ``shard=(i, n)`` executes only every ``n``-th job (offset ``i``) and
    archives the partial curves under ``shard-<i>-of-<n>/`` inside the
    output directory, while sharing the *top-level* cache directory with
    the other shards — :func:`merge_config` reassembles the full,
    bit-identical archive once every shard has run.

    Every archiving run heartbeats a crash-safe ``RUN_PROGRESS.json``
    into its archive directory (shard directory for sharded runs) and,
    when stderr is a TTY, repaints a live progress line.  Pass your own
    :class:`~repro.exp.progress.RunProgress` to redirect or silence it.
    """
    n = config.jobs if jobs is None else int(jobs)
    pol = policy if policy is not None else config.policy
    executor = (
        ProcessPoolExecutor(jobs=n, policy=pol)
        if n != 1
        else SerialExecutor(policy=pol)
    )
    directory = (
        Path(output)
        if output is not None
        else (config.output or config.path.parent / f"{config.path.stem}_curves")
    )
    if shard is not None:
        shard = check_shard(shard)
    if resume and not use_cache:
        raise ConfigurationError(
            "--resume needs the cache (it is how completed work is found); "
            "drop --no-cache"
        )
    cache = None
    if use_cache:
        if cache_dir is not None:
            cache = SweepCache(cache_dir)
        elif archive:
            # Shards share the top-level cache, not their own subdirs —
            # that shared directory is what merge reassembles from.
            cache = SweepCache(directory / "cache")
        elif resume:
            raise ConfigurationError(
                "--resume with --no-archive needs an explicit --cache-dir"
            )
    target = directory if shard is None else shard_directory(directory, shard)
    if progress is None:
        progress = RunProgress(
            target / "RUN_PROGRESS.json" if archive else None,
            on_update=_tty_progress_line if sys.stderr.isatty() else None,
            meta={"config": str(config.path)},
        )
    t0 = time.perf_counter()
    result = config.plan.run(
        executor,
        cache=cache,
        policy=pol,
        shard=shard,
        instruments=instruments,
        progress=progress,
    )
    elapsed = time.perf_counter() - t0
    effective = getattr(executor, "jobs", 1)
    written: list[Path] = []
    if archive:
        meta: dict[str, Any] = {
            "config": str(config.path),
            "seed": config.seed,
            "jobs": effective,
            "replays": len(config.plan),
            "wall_s": elapsed,
            "traces": config.traces,
            "sweeps": config.sweeps,
        }
        if shard is not None:
            meta["shard"] = {"index": shard[0], "count": shard[1]}
        written = archive_curves(
            result.curves, target, meta=meta, failures=result.failures
        )
    return RunOutcome(
        result=result,
        written=written,
        jobs=effective,
        n_jobs=len(config.plan),
        elapsed=elapsed,
        cache=result.cache,
        failures=result.failures,
        shard=shard,
        resumed=resume,
    )


class _MergeExecutor:
    """Executor that refuses to execute: merge must be 100% cache hits.

    :func:`merge_config` runs the plan with this executor so curve
    reassembly, ordering, and archiving reuse the one battle-tested
    path; any job the cache cannot satisfy names itself here instead of
    silently re-running (a merge is a *reassembly*, never a replay).
    """

    jobs = 0  # advertised fan-out: merge replays nothing

    def run(self, jobs, views, *, instruments, policy, on_result):
        named = "; ".join(j.describe() for j in jobs[:3])
        raise ConfigurationError(
            f"merge: {len(jobs)} grid point(s) missing from the cache "
            f"({named}{'…' if len(jobs) > 3 else ''}) — run the missing "
            "shard(s) first, or re-run quarantined jobs to completion"
        )


def merge_config(
    config: ExperimentConfig,
    *,
    output: str | Path | None = None,
    cache_dir: str | Path | None = None,
) -> RunOutcome:
    """Reassemble the full curve archive from completed shards' cache.

    Every shard of a ``repro run --shard i/N`` fleet stores its reports
    into the shared content-addressed cache; once all shards have run,
    this loads every grid point from that cache — replaying nothing —
    and writes the merged archive exactly as an unsharded run would
    have.  Content addressing (view fingerprint + family + spec) is what
    makes the merged curves *bit-identical* to a clean single-process
    run.  Raises :class:`~repro.errors.ConfigurationError`, naming the
    missing jobs, if any shard has not completed.
    """
    directory = (
        Path(output)
        if output is not None
        else (config.output or config.path.parent / f"{config.path.stem}_curves")
    )
    cache = SweepCache(cache_dir if cache_dir is not None else directory / "cache")
    t0 = time.perf_counter()
    result = config.plan.run(_MergeExecutor(), cache=cache)
    elapsed = time.perf_counter() - t0
    written = archive_curves(
        result.curves,
        directory,
        meta={
            "config": str(config.path),
            "seed": config.seed,
            "jobs": 0,
            "merged": True,
            "replays": len(config.plan),
            "wall_s": elapsed,
            "traces": config.traces,
            "sweeps": config.sweeps,
        },
    )
    return RunOutcome(
        result=result,
        written=written,
        jobs=0,
        n_jobs=len(config.plan),
        elapsed=elapsed,
        cache=result.cache,
    )
