"""Experiment-engine fan-out: serial vs process-pool sweep execution.

Section V's evaluation is embarrassingly parallel — every grid point is
one independent replay — and ``repro.exp`` exploits that: the same
:class:`~repro.exp.plan.ExperimentPlan` runs under
:class:`~repro.exp.executors.SerialExecutor` and
:class:`~repro.exp.executors.ProcessPoolExecutor` with **bit-identical**
curves.  This bench measures what the fan-out buys: wall time for a
four-family WAN-1 sweep serially and across ``JOBS`` worker processes,
archived as ``BENCH_sweep.json`` (serial_s / parallel_s / speedup).

It also measures what the result cache (:mod:`repro.exp.cache`) buys:
the same plan cold (every job replayed and stored) and then warm (every
job a cache hit, zero replays) — ``cold_s`` / ``warm_s`` /
``warm_speedup`` in the same JSON.  A warm run must be at least 5x
faster than a cold one and bit-identical to it, on any machine.

The pool has ``min(JOBS, cores)`` workers.  On a machine with >= 4
cores the parallel run must be at least 2x faster; with 2-3 cores the
speedup is recorded but not asserted; on a single core there is nothing
to fan out onto, so ``speedup`` is recorded as ``null`` with the reason
instead of a misleading ratio below 1.
"""

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

REQ = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)


def build_plan() -> ExperimentPlan:
    n = scaled_heartbeats(WAN_1, scale=16)
    trace = synthesize(WAN_1, n=n, seed=SEED)
    plan = ExperimentPlan().add_trace("wan1", trace)
    plan.add_sweep(
        "wan1", "chen", [0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.9],
        window=1000,
    )
    plan.add_sweep("wan1", "bertier", window=1000)
    plan.add_sweep(
        "wan1", "phi", [0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0], window=1000
    )
    plan.add_sweep("wan1", "quantile", [0.9, 0.99, 0.999, 1.0], window=1000)
    plan.add_sweep(
        "wan1", "sfd", [0.005, 0.05, 0.2, 0.9], requirements=REQ, window=1000
    )
    return plan


def run():
    plan = build_plan()
    t0 = time.perf_counter()
    serial = plan.run(SerialExecutor())
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = plan.run(ProcessPoolExecutor(jobs=min(JOBS, os.cpu_count() or 1)))
    parallel_s = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as d:
        cache = SweepCache(d)
        t0 = time.perf_counter()
        cold = plan.run(SerialExecutor(), cache=cache)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = plan.run(SerialExecutor(), cache=cache)
        warm_s = time.perf_counter() - t0
    assert warm.cache.hits == len(plan) and warm.cache.misses == 0
    return (
        len(plan),
        serial,
        serial_s,
        parallel,
        parallel_s,
        cold,
        cold_s,
        warm,
        warm_s,
    )


def test_parallel_sweep_speedup(benchmark):
    (
        n_jobs,
        serial,
        serial_s,
        parallel,
        parallel_s,
        cold,
        cold_s,
        warm,
        warm_s,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)
    # The reproducibility contract: neither fan-out nor the cache may
    # change a single bit.
    assert parallel.curves == serial.curves
    assert cold.curves == serial.curves
    assert warm.curves == cold.curves
    warm_speedup = cold_s / warm_s
    cores = os.cpu_count() or 1
    workers = min(JOBS, cores)
    if cores < 2:
        speedup = None
        speedup_note = "not measured: one core leaves the pool nothing to fan out onto"
        speedup_line = f"  speedup   :      n/a    ({speedup_note})"
    else:
        speedup = serial_s / parallel_s
        speedup_note = None
        speedup_line = f"  speedup   : {speedup:8.2f} x"
    lines = [
        "Experiment-engine fan-out: one WAN-1 plan, "
        f"{n_jobs} replay jobs, {len(serial)} curves",
        f"  cores     : {cores}",
        f"  serial    : {serial_s:8.2f} s  (SerialExecutor)",
        f"  parallel  : {parallel_s:8.2f} s  (ProcessPoolExecutor, "
        f"{workers} workers)",
        speedup_line,
        f"  cold      : {cold_s:8.2f} s  (cache populated, "
        f"{cold.cache.misses} misses)",
        f"  warm      : {warm_s:8.2f} s  (zero replays, "
        f"{warm.cache.hits} hits)",
        f"  warm gain : {warm_speedup:8.2f} x",
        "  curves    : bit-identical",
    ]
    emit(
        "sweep",
        "\n".join(lines),
        {
            "replay_jobs": n_jobs,
            "curves": len(serial),
            "cores": cores,
            "workers": workers,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": speedup,
            "speedup_note": speedup_note,
            "cold_s": cold_s,
            "warm_s": warm_s,
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
