"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (DESIGN.md §4)
and both *times* the regeneration (pytest-benchmark) and *prints* the same
rows/series the paper reports, also archiving them under
``benchmarks/results/`` so EXPERIMENTS.md can quote them.

Trace sizes follow ``REPRO_SCALE`` (default 32, see
:mod:`repro.analysis.experiments`); set ``REPRO_SCALE=1`` for full-size
runs.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

from repro.analysis.experiments import ExperimentSetup, default_setup, repro_scale
from repro.core import SlotConfig
from repro.qos.spec import QoSReport
from repro.traces.wan import WANProfile

RESULTS_DIR = Path(__file__).parent / "results"

#: Seed shared by every figure regeneration (the paper replays one logged
#: trace per case; we replay one seeded synthetic trace per case).
SEED = 2012


def figure_setup(profile: WANProfile) -> ExperimentSetup:
    """The per-figure experiment setup used across the bench suite."""
    return dataclasses.replace(
        default_setup(profile, seed=SEED),
        sfd_slot=SlotConfig(100, reset_on_adjust=True, min_slots=5),
    )


def _jsonable(value):
    """Coerce benchmark payloads to strict JSON (NaN/Inf become None)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return value


def qos_dict(q: QoSReport) -> dict:
    """The key QoS numbers of one report, JSON-ready."""
    return {
        "detection_time_s": q.detection_time,
        "mistake_rate_per_s": q.mistake_rate,
        "query_accuracy": q.query_accuracy,
        "samples": q.samples,
    }


def bench_stats(benchmark) -> dict:
    """Wall-time stats of one pytest-benchmark fixture, JSON-ready."""
    st = benchmark.stats
    return {
        "mean_s": st["mean"],
        "min_s": st["min"],
        "max_s": st["max"],
        "stddev_s": st["stddev"],
        "rounds": st["rounds"],
    }


def interleaved_min(n: int, fns) -> list[float]:
    """Min-of-N CPU time per fn, reps interleaved (and the within-rep
    order alternated) so drift hits every contender equally.  CPU time
    (not wall) keeps scheduler preemption and frequency scaling on busy
    boxes out of the estimate; remaining noise is one-sided, so the
    minimum is the estimator.  Collections run between — never inside —
    the timed region, charging each path its own allocations only."""
    best = [float("inf")] * len(fns)
    order = list(enumerate(fns))
    for rep in range(n):
        for i, fn in order if rep % 2 == 0 else reversed(order):
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                fn()
                best[i] = min(best[i], time.process_time() - t0)
            finally:
                gc.enable()
    return best


def git_sha() -> str:
    """Commit the benchmark ran from, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def git_dirty(root: Path | None = None) -> bool | None:
    """Whether the code under ``src/`` or ``benchmarks/`` differs from the
    commit :func:`git_sha` names (untracked files included, bench results
    excepted), or ``None`` outside a checkout.

    Results are written from the working tree, so a bench run before its
    change is committed measures code that its ``git_sha`` lacks; the flag
    says so.
    """
    root = root if root is not None else Path(__file__).parent.parent
    try:
        out = subprocess.run(
            [
                "git",
                "status",
                "--porcelain",
                "--",
                "src",
                "benchmarks",
                ":(exclude)benchmarks/results",
            ],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def env_block() -> dict:
    """Where a number came from: commit (and whether the measured tree
    differed from it), interpreter, numpy, SciPy, cores, scale."""
    return {
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "repro_scale": repro_scale(),
    }


def gate(metric: str, value: float, bound: float, *, at_most: bool = False) -> dict:
    """One bench gate as a ``{metric, bound, value, passed}`` record.

    ``value`` passes above ``bound``, or at or below it with ``at_most``.
    A bench puts its records into the data it passes to :func:`emit` and
    only then calls :func:`assert_gates`, so a red run leaves a red record
    instead of the last green one.
    """
    passed = value <= bound if at_most else value > bound
    return {"metric": metric, "bound": bound, "value": value, "passed": bool(passed)}


def assert_gates(*records: dict) -> None:
    """Fail unless every :func:`gate` record passed."""
    failed = [record for record in records if not record["passed"]]
    assert not failed, f"gate(s) failed: {failed}"


def emit(name: str, text: str, data: dict | None = None) -> None:
    """Print a rendered table/series and archive it for EXPERIMENTS.md.

    When ``data`` is given, a machine-readable companion is written to
    ``results/BENCH_<name>.json`` so downstream tooling (dashboards,
    regression trackers) never has to re-parse the human tables.  Every
    such file carries an ``env`` block (:func:`env_block`), so a figure
    is never read without the commit and host it came from.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        payload = {"bench": name, **_jsonable(data), "env": env_block()}
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
