"""End-to-end benchmark of both planes of the SFD reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        [--seconds <s>] [--trace <0|1>] [--spans <path>]

Workloads (see README.md for why each exists):

* ``sweep``       offline: cold curve regeneration, kernel-bound
* ``pipeline``    offline: columnar store, cheap kernels, cold + warm cache
* ``live-steady`` live: LiveMonitor(sfd) at 10k nodes, fixed rate + bursts
* ``live-churn``  live: LiveMonitor(fixed) at 5k nodes with failures

Each run prints every metric by name with its unit, then, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics (from spans recorded around calls into each layer)
with ``--trace 1``.  ``--workload all`` runs every workload in its own
process and ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SCRATCH, SRC, Outcome, env_block  # noqa: E402

WORKLOADS = ("sweep", "pipeline", "live-steady", "live-churn")


def _workload(name: str):
    if name in ("sweep", "pipeline"):
        import offline

        return getattr(offline, name)
    import live

    return {"live-steady": live.steady, "live-churn": live.churn}[name]


def run_one(name: str, seed: int, seconds: float, trace: bool,
            spans: Path | None) -> dict:
    """Run one workload in this process; returns the result object."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    out: Outcome = _workload(name)(seed, seconds, tracer)
    if tracer is not None:
        path = spans or SCRATCH / f"spans-{name}-{seed}.json"
        tracer.write(path, workload=name, seed=seed, seconds=seconds)
        out.notes.append(f"spans written to {path}")
    metrics = out.layers if trace else out.metrics
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}")
    print("env " + json.dumps(env_block(), sort_keys=True))
    for note in out.notes:
        print(f"  {note}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:24s} {value:>16.6g} {unit}")
    print(f"  attempted {out.attempted}  failed {out.failed}")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            # A run that failed may have nothing to measure (NaN); JSON
            # has no NaN, so it reads null there.
            metric: {"value": value if math.isfinite(value) else None,
                     "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float,
        default=spec["run_seconds"],
        help="how long the measured part of a run lasts",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where --trace 1 writes its spans "
                             "(default: .perfbench/spans-<workload>-<seed>.json)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the live workloads' cleanup
    # still stops their load generator.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
