"""Experiment-engine execution: prepare-once groups, fan-out, and cache.

Section V's evaluation replays one trace through every detector family
while each family's parameter moves from aggressive to conservative.
:mod:`repro.exp` runs each such sweep as one *group* whose members share
the kernel work the swept parameter never touches (Chen's expected
arrivals, the quantile order statistics, …), and fans independent groups
out across processes.  The same :class:`~repro.exp.plan.ExperimentPlan`
runs under :class:`~repro.exp.executors.SerialExecutor` and
:class:`~repro.exp.executors.ProcessPoolExecutor` with **bit-identical**
curves.  Archived as ``BENCH_sweep.json``:

* ``serial_s`` — the single-trace plan (five sweeps over one WAN-1
  trace: five groups) run serially: what prepare-once buys.
* ``fanout_serial_s`` / ``parallel_s`` / ``speedup`` — the fan-out plan
  (the same five sweeps over four seeded WAN-1 traces: twenty
  independent groups, more than any worker count here) serially and
  across ``min(JOBS, cores)`` workers.  A group is one task, so a plan
  with fewer groups than workers — or one dominant group — cannot fan
  out; that is why the fan-out is measured on a plan whose groups
  outnumber the workers.

These three are each the minimum of ``ROUNDS`` wall times, the rounds
interleaved and their order alternated so that drift on a shared host
hits every plan alike; one draw of each read a ``speedup`` anywhere
from 0.93x to 2.13x on one 2-vCPU host.  Wall time, not CPU time: the
process clock would miss the pool workers' work.
* ``cold_s`` / ``warm_s`` / ``warm_speedup`` — the single-trace plan cold
  (every job replayed and stored in the result cache) and then warm
  (every job a cache hit, zero replays).  A warm run must be at least
  5x faster than a cold one and bit-identical to it, on any machine.

On a machine with >= 4 cores the parallel run must be at least 2x
faster; with 2-3 cores the speedup is recorded but not asserted; on a
single core there is nothing to fan out onto, so ``speedup`` is recorded
as ``null`` with the reason instead of a misleading ratio below 1.
"""

import gc
import math
import os
import tempfile
import time

from repro.analysis.experiments import scaled_heartbeats
from repro.exp import (
    ExperimentPlan,
    ProcessPoolExecutor,
    SerialExecutor,
    SweepCache,
)
from repro.qos.spec import QoSRequirements
from repro.traces import WAN_1, synthesize

from _common import SEED, bench_stats, emit

JOBS = 4
#: Seeded WAN-1 traces in the fan-out plan.
FANOUT_TRACES = 4
#: Interleaved rounds behind each min-of wall time.
ROUNDS = 3

REQ = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)


def build_plan(traces: int = 1) -> ExperimentPlan:
    """Five sweeps (24 grid points) over each of ``traces`` WAN-1 traces."""
    n = scaled_heartbeats(WAN_1, scale=16)
    plan = ExperimentPlan()
    for k in range(traces):
        name = f"wan1_{k}" if traces > 1 else "wan1"
        plan.add_trace(name, synthesize(WAN_1, n=n, seed=SEED + k))
        plan.add_sweep(
            name, "chen", [0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.9],
            window=1000,
        )
        plan.add_sweep(name, "bertier", window=1000)
        plan.add_sweep(
            name, "phi", [0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0], window=1000
        )
        plan.add_sweep(name, "quantile", [0.9, 0.99, 0.999, 1.0], window=1000)
        plan.add_sweep(
            name, "sfd", [0.005, 0.05, 0.2, 0.9], requirements=REQ, window=1000
        )
    return plan


def shape(plan: ExperimentPlan) -> dict:
    return {
        "traces": len(plan.views),
        "groups": len(plan.sweeps),
        "replay_jobs": len(plan),
        "heartbeats_per_trace": len(next(iter(plan.views.values()))),
    }


def timed(plan: ExperimentPlan, executor, **kwargs):
    t0 = time.perf_counter()
    result = plan.run(executor, **kwargs)
    return result, time.perf_counter() - t0


def interleaved_wall_min(rounds: int, runs: dict) -> tuple[dict, dict]:
    """Min-of-``rounds`` wall time per named run, as
    ``_common.interleaved_min`` takes CPU time: rounds interleaved, the
    order alternated, collections between runs.  Returns each run's last
    result and its best time."""
    results: dict = {}
    best = {name: math.inf for name in runs}
    order = list(runs.items())
    for rep in range(rounds):
        for name, fn in order if rep % 2 == 0 else reversed(order):
            gc.collect()
            t0 = time.perf_counter()
            results[name] = fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return results, best


def run():
    plan = build_plan()
    fanout = build_plan(FANOUT_TRACES)
    workers = min(JOBS, os.cpu_count() or 1)
    results, best = interleaved_wall_min(
        ROUNDS,
        {
            "serial": lambda: plan.run(SerialExecutor()),
            "fanout_serial": lambda: fanout.run(SerialExecutor()),
            "parallel": lambda: fanout.run(ProcessPoolExecutor(jobs=workers)),
        },
    )
    with tempfile.TemporaryDirectory() as d:
        cache = SweepCache(d)
        cold, cold_s = timed(plan, SerialExecutor(), cache=cache)
        warm, warm_s = timed(plan, SerialExecutor(), cache=cache)
    assert warm.cache.hits == len(plan) and warm.cache.misses == 0
    return {
        "plan": plan,
        "fanout": fanout,
        "serial": results["serial"],
        "serial_s": best["serial"],
        "fanout_serial": results["fanout_serial"],
        "fanout_serial_s": best["fanout_serial"],
        "parallel": results["parallel"],
        "parallel_s": best["parallel"],
        "cold": cold,
        "cold_s": cold_s,
        "warm": warm,
        "warm_s": warm_s,
    }


def test_parallel_sweep_speedup(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    serial, cold, warm = r["serial"], r["cold"], r["warm"]
    # The reproducibility contract: neither fan-out nor the cache may
    # change a single bit.
    assert r["parallel"].curves == r["fanout_serial"].curves
    assert r["fanout_serial"].curves["wan1_0"] == serial.curves["wan1"]
    assert cold.curves == serial.curves
    assert warm.curves == cold.curves
    warm_speedup = r["cold_s"] / r["warm_s"]
    cores = os.cpu_count() or 1
    workers = min(JOBS, cores)
    single, fanout = shape(r["plan"]), shape(r["fanout"])
    if cores < 2:
        speedup = None
        speedup_note = "not measured: one core leaves the pool nothing to fan out onto"
        speedup_line = f"  speedup   :      n/a    ({speedup_note})"
    else:
        speedup = r["fanout_serial_s"] / r["parallel_s"]
        speedup_note = None
        speedup_line = f"  speedup   : {speedup:8.2f} x"
    lines = [
        "Experiment-engine execution over WAN-1 "
        f"({single['heartbeats_per_trace']} heartbeats per trace)",
        f"  cores     : {cores}",
        f"  plan      : 1 trace, {single['groups']} sweep groups, "
        f"{single['replay_jobs']} replay jobs",
        f"  serial    : {r['serial_s']:8.2f} s  (SerialExecutor, one stage "
        f"per group; min of {ROUNDS} interleaved wall times)",
        f"  fan-out   : {fanout['traces']} traces, {fanout['groups']} sweep "
        f"groups, {fanout['replay_jobs']} replay jobs",
        f"  serial    : {r['fanout_serial_s']:8.2f} s  (SerialExecutor)",
        f"  parallel  : {r['parallel_s']:8.2f} s  (ProcessPoolExecutor, "
        f"{workers} workers)",
        speedup_line,
        f"  cold      : {r['cold_s']:8.2f} s  (one trace, cache populated, "
        f"{cold.cache.misses} misses)",
        f"  warm      : {r['warm_s']:8.2f} s  (zero replays, "
        f"{warm.cache.hits} hits)",
        f"  warm gain : {warm_speedup:8.2f} x",
        "  curves    : bit-identical",
    ]
    emit(
        "sweep",
        "\n".join(lines),
        {
            "plan": single,
            "fanout_plan": fanout,
            "replay_jobs": single["replay_jobs"],
            "curves": len(serial),
            "cores": cores,
            "workers": workers,
            "serial_s": r["serial_s"],
            "fanout_serial_s": r["fanout_serial_s"],
            "parallel_s": r["parallel_s"],
            "speedup": speedup,
            "speedup_note": speedup_note,
            "rounds": ROUNDS,
            "cold_s": r["cold_s"],
            "warm_s": r["warm_s"],
            "warm_speedup": warm_speedup,
            "bit_identical": True,
            "timing": bench_stats(benchmark),
        },
    )
    assert warm_speedup >= 5.0, (
        f"expected warm cached run >= 5x faster, got {warm_speedup:.2f}x"
    )
    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup on {cores} cores, got {speedup:.2f}x"
        )
