"""Shared pieces of the end-to-end benchmark: the outcome record, order
statistics, scratch space inside the checkout, and the environment block."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (trace stores, caches, spans) goes under here.
SCRATCH = ROOT / ".perfbench"


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end numbers and ``layers`` the per-layer
    numbers of a traced run, each as ``name -> (value, unit)``.
    ``attempted``/``failed`` count the operations the run checked;
    ``problems`` says what failed and ``notes`` carries extra readings
    (tail percentiles, span totals) that are printed but not gated on.
    """

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, what: str) -> None:
        """Record ``count`` failed operations (no-op for zero)."""
        if count:
            self.failed += count
            self.problems.append(f"{count} x {what}")


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_block() -> dict:
    """Where a number came from: commit, interpreter, numpy, cores, scale."""
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "repro_scale": os.environ.get("REPRO_SCALE", "32 (default)"),
    }


@contextmanager
def scratch_dir():
    """A fresh directory under :data:`SCRATCH`, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
