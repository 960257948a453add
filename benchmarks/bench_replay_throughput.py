"""Engineering bench — replay pipeline throughput, end to end.

Not a paper table, but the quantity that makes the paper's methodology
tractable in Python: the experiment engine must chew through
multi-million-heartbeat traces per parameter point.  Two layers are
timed here:

* **kernels in isolation** — the vectorized Chen/Bertier/φ/SFD replays
  and the quantile and ml stages on a pre-extracted in-memory view (the
  historical bench), plus the per-event streaming reference on a slice;
* **the full pipeline** — open a multi-million-heartbeat *columnar
  store* from disk, replay it, and produce a QoS report, which is what
  one sweep grid point actually costs.  The columnar format's zero-copy
  contract is what makes load + replay + QoS clear 1M heartbeats/s end
  to end; that bound is asserted (``BENCH_replay_pipeline.json``),
  along with the streaming-vs-vectorized ratio that justifies the
  vectorized engine's existence;
* **a cold plan's first touch** — ``perfbench`` ``pipeline``'s 23-point
  plan run cold over the same store: CPU, minor page faults, the
  ``tracemalloc`` peak per stage, and the CPU of each family's kernel and
  of the QoS accounting (``BENCH_replay_plan_cold.json``).

``REPRO_BENCH_PIPELINE_N`` scales the pipeline trace (default 2M
heartbeats; CI smoke runs use a reduced count).
"""

import dataclasses
import os
import resource
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import pytest

import numpy as np

from repro.core import SFD, SlotConfig
from repro.detectors import MLFD, BertierFD, ChenFD, registry
from repro.exp import ExperimentPlan, SerialExecutor
from repro.obs import Instruments
from repro.qos.spec import QoSRequirements
from repro.replay import (
    ChenSpec,
    BertierSpec,
    PhiSpec,
    SFDSpec,
    replay,
)
from repro.replay import engine
from repro.replay.engine import _account
from repro.replay.vectorized import (
    chen_expected_arrivals,
    ml_prediction_arrays,
    phi_stage,
    quantile_stage,
)
from repro.traces import TraceStore, WAN_JAIST, synthesize, synthesize_to

from _common import (
    SEED,
    assert_gates,
    bench_stats,
    emit,
    gate,
    interleaved_min,
    qos_dict,
)

N = 200_000
PIPELINE_N = int(os.environ.get("REPRO_BENCH_PIPELINE_N", "2000000"))
REQ = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)


@pytest.fixture(scope="module")
def view():
    return synthesize(WAN_JAIST, n=N, seed=SEED).monitor_view()


@pytest.fixture(scope="module")
def pipeline_store(tmp_path_factory):
    """A multi-million-heartbeat columnar store on disk (synthesized once)."""
    path = tmp_path_factory.mktemp("pipeline") / "wan_jaist.bin"
    return synthesize_to(WAN_JAIST, path, n=PIPELINE_N, seed=SEED)


def test_vectorized_chen_throughput(benchmark, view):
    res = benchmark(lambda: replay(ChenSpec(alpha=0.1, window=1000), view))
    rate = len(view) / benchmark.stats["mean"]
    emit(
        "throughput_chen",
        f"vectorized Chen replay: {rate / 1e6:.2f} M heartbeats/s "
        f"({len(view)} heartbeats)",
        data={
            "detector": "chen",
            "heartbeats": len(view),
            "heartbeats_per_s": rate,
            "timing": bench_stats(benchmark),
            "qos": qos_dict(res.qos),
        },
    )
    assert rate > 1e6
    assert res.qos.samples > 0


def test_vectorized_bertier_throughput(benchmark, view):
    benchmark(lambda: replay(BertierSpec(window=1000), view))
    assert len(view) / benchmark.stats["mean"] > 5e5


def test_vectorized_phi_throughput(benchmark, view):
    benchmark(lambda: replay(PhiSpec(threshold=4.0, window=1000), view))
    assert len(view) / benchmark.stats["mean"] > 1e6


def _wall_stats(fn, rounds: int) -> dict:
    """:func:`bench_stats`'s fields for ``rounds`` calls timed by hand."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {
        "mean_s": statistics.fmean(times),
        "min_s": min(times),
        "max_s": max(times),
        "stddev_s": statistics.stdev(times),
        "rounds": rounds,
    }


def _late_slots(tuning) -> int:
    """Slots holding a late heartbeat, from cumulative per-slot records."""
    cumulative = [0] + [rec.qos.mistakes for rec in tuning]
    return sum(1 for a, b in zip(cumulative, cumulative[1:]) if b > a)


def test_vectorized_sfd_throughput(benchmark, view):
    """SFD replay at the bench's spec, and with every slot late.

    The kernel scans a slot's arrivals only when one of them could be
    late, so its rate depends on how many slots hold a late heartbeat.
    The spec's margin tunes to where few do.  Pinning the margin at 0
    (``sm_bounds=(0, 0)``) makes every slot of this view late: the
    kernel's worst case.  The fixture times the spec, the all-late case
    is timed by hand on the same view, and both are also timed as
    interleaved min-of-5 CPU time, which is also given per slot.  So is
    the streaming ``SFD.observe`` over the 20k slice the other streaming
    references use, at ``perfbench`` ``live-steady``'s window 5.
    """
    spec = SFDSpec(
        requirements=REQ, sm1=0.1, window=1000, slot=SlotConfig(100)
    )
    all_late = dataclasses.replace(spec, sm_bounds=(0.0, 0.0))
    res = benchmark(lambda: replay(spec, view))
    rate = len(view) / benchmark.stats["mean"]
    late_res = replay(all_late, view)
    late_timing = _wall_stats(lambda: replay(all_late, view), rounds=10)
    late_rate = len(view) / late_timing["mean_s"]
    seq = view.seq[:20_000].tolist()
    arr = view.arrivals[:20_000].tolist()
    snd = view.send_times[:20_000].tolist()

    def stream():
        fd = SFD(REQ, window_size=5)
        for s, a, t in zip(seq, arr, snd):
            fd.observe(s, a, t)

    *cpu, stream_cpu = interleaved_min(
        5, (lambda: replay(spec, view), lambda: replay(all_late, view), stream)
    )
    cases = {}
    for name, result, case_rate, timing, cpu_s, bound in (
        ("spec", res, rate, bench_stats(benchmark), cpu[0], 3e6),
        # Every slot is scanned, but the loop must stay fast enough for
        # sweeps.
        ("all_late", late_res, late_rate, late_timing, cpu[1], 1e6),
    ):
        slots = len(result.tuning)
        cases[name] = {
            "heartbeats_per_s": case_rate,
            "timing": timing,
            "min_of_5_cpu_s": cpu_s,
            "min_of_5_cpu_us_per_slot": cpu_s / slots * 1e6,
            "slots": slots,
            "late_slots": _late_slots(result.tuning),
            "final_margin": result.final_margin,
            "qos": qos_dict(result.qos),
            "gate": gate("heartbeats_per_s", case_rate, bound),
        }
    stream_us = stream_cpu / len(seq) * 1e6
    emit(
        "throughput_sfd",
        f"vectorized SFD replay ({len(view)} heartbeats, window 1000, "
        "slot 100): "
        + "; ".join(
            f"{name} {c['heartbeats_per_s'] / 1e6:.2f} M heartbeats/s "
            f"({c['late_slots']} of {c['slots']} slots late, "
            f"{c['min_of_5_cpu_us_per_slot']:.1f} us CPU per slot)"
            for name, c in cases.items()
        )
        + f"; streaming SFD.observe {stream_us:.2f} us per heartbeat "
        "(window 5, slot 100)",
        data={
            "detector": "sfd",
            "heartbeats": len(view),
            "window": 1000,
            "slot": 100,
            "cases": cases,
            "streaming": {
                "heartbeats": len(seq),
                "window": 5,
                "slot": 100,
                "min_of_5_cpu_s": stream_cpu,
                "us_per_heartbeat": stream_us,
            },
        },
    )
    assert_gates(*(case["gate"] for case in cases.values()))


def test_vectorized_quantile_throughput(benchmark, view):
    """The quantile stage of a sweep group: four quantiles at window 1000.

    This is the stage that ``perfbench`` ``sweep`` spends most in.  Full
    windows take their order statistics from ``scipy.ndimage.rank_filter``
    (one C pass per distinct rank), so the rate depends on the SciPy
    version recorded in the JSON's ``env`` block.  A pure-Python sorted
    window over every gap reads below 1 M heartbeats/s here.
    """
    qs = (0.9, 0.99, 0.999, 1.0)
    stage = benchmark(lambda: quantile_stage(view, qs, window=1000))
    rate = len(view) / benchmark.stats["mean"]
    emit(
        "throughput_quantile",
        f"vectorized quantile stage: {rate / 1e6:.2f} M heartbeats/s "
        f"({len(view)} heartbeats, window 1000, q in {list(qs)})",
        data={
            "detector": "quantile",
            "heartbeats": len(view),
            "window": 1000,
            "quantiles": list(qs),
            "heartbeats_per_s": rate,
            "timing": bench_stats(benchmark),
        },
    )
    assert sorted(stage) == list(qs)
    assert rate > 2e6


def test_vectorized_ml_throughput(benchmark, view):
    """The ml stage of a sweep group: the NLMS pass at window 1000.

    The learned recursion has no closed form, so the stage is one Python
    loop over every gap (``OnlineArrivalPredictor.extend``, the loop the
    streaming detector runs too) and its rate is the interpreter's.  The
    fixture times ``perfbench`` ``sweep``'s spec, window 1000.  Windows
    16 and 1000, and the streaming ``MLFD.observe`` over the 20k slice
    the other streaming references use, are also timed as interleaved
    min-of-5 CPU time.
    """
    pred, jit = benchmark(lambda: ml_prediction_arrays(view, window=1000))
    rate = len(view) / benchmark.stats["mean"]
    seq = view.seq[:20_000]
    arr = view.arrivals[:20_000]
    snd = view.send_times[:20_000]

    def stream():
        fd = MLFD(2.0, window_size=1000)
        for s, a, t in zip(seq, arr, snd):
            fd.observe(int(s), float(a), float(t))

    windows = (16, 1000)
    *stage_cpu, stream_cpu = interleaved_min(
        5,
        [lambda w=w: ml_prediction_arrays(view, window=w) for w in windows]
        + [stream],
    )
    stage_rates = {
        f"window_{w}": len(view) / t for w, t in zip(windows, stage_cpu)
    }
    emit(
        "throughput_ml",
        f"vectorized ml stage: {rate / 1e6:.2f} M heartbeats/s "
        f"({len(view)} heartbeats, window 1000); interleaved min-of-5 CPU: "
        + ", ".join(
            f"window {w} {r / 1e6:.2f} M" for w, r in zip(windows, stage_rates.values())
        )
        + f" heartbeats/s, streaming MLFD.observe "
        f"{stream_cpu / 20_000 * 1e6:.2f} us per heartbeat (window 1000)",
        data={
            "detector": "ml",
            "heartbeats": len(view),
            "window": 1000,
            "heartbeats_per_s": rate,
            "timing": bench_stats(benchmark),
            "min_of_5_cpu_s": {
                f"window_{w}": t for w, t in zip(windows, stage_cpu)
            },
            "min_of_5_cpu_heartbeats_per_s": stage_rates,
            "streaming": {
                "heartbeats": 20_000,
                "window": 1000,
                "margin": 2.0,
                "min_of_5_cpu_s": stream_cpu,
                "us_per_heartbeat": stream_cpu / 20_000 * 1e6,
            },
        },
    )
    assert np.isfinite(pred[1:]).all() and np.isfinite(jit[1:]).all()
    assert rate > 7e5


def test_streaming_reference_for_scale(benchmark, view):
    """Streaming replay of a 20k slice — the per-event reference the
    vectorized engine is checked against (and the reason it exists).

    The benchmark fixture times Chen; the three Chen-family detectors
    (Chen, Bertier, SFD, all at window 1000) are also timed on the same
    slice, interleaved min-of-5 CPU time: the per-heartbeat cost each
    node of a live monitor pays.
    """
    seq = view.seq[:20_000]
    arr = view.arrivals[:20_000]
    snd = view.send_times[:20_000]

    def feed(fd):
        for s, a, t in zip(seq, arr, snd):
            fd.observe(int(s), float(a), float(t))
        return fd

    def run():
        return feed(ChenFD(0.1, window_size=1000))

    benchmark(run)
    streaming_rate = 20_000 / benchmark.stats["mean"]
    families = {
        "chen": lambda: ChenFD(0.1, window_size=1000),
        "bertier": lambda: BertierFD(window_size=1000),
        "sfd": lambda: SFD(REQ, sm1=0.1, window_size=1000, slot=SlotConfig(100)),
    }
    best = interleaved_min(
        5, [lambda build=build: feed(build()) for build in families.values()]
    )
    family_rates = {name: 20_000 / t for name, t in zip(families, best)}
    emit(
        "throughput_streaming",
        f"streaming Chen reference: {streaming_rate / 1e3:.0f} k heartbeats/s; "
        "interleaved min-of-5 CPU at window 1000: "
        + ", ".join(
            f"{name} {rate / 1e3:.0f} k" for name, rate in family_rates.items()
        )
        + " heartbeats/s",
        data={
            "detector": "chen-streaming",
            "heartbeats": 20_000,
            "heartbeats_per_s": streaming_rate,
            "timing": bench_stats(benchmark),
            "window": 1000,
            "min_of_5_cpu_heartbeats_per_s": family_rates,
        },
    )
    assert streaming_rate > 2e4


def _min_of(n: int, fn) -> float:
    """Min-of-N wall time: the least-noise estimator for short runs."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_pipeline_end_to_end(benchmark, pipeline_store):
    """Full pipeline on a columnar store: open → mmap → replay → QoS.

    Every round re-opens the store from its path — the cost a pool
    worker pays per trace — so the measured rate covers header/meta
    parsing, memory mapping, the vectorized Chen kernel, and the fused
    freshness → QoS accounting.  The acceptance bound is the ROADMAP's
    ≥1M heartbeats/s for the *whole* path, not just the kernel.
    """
    path = str(pipeline_store.path)
    spec = ChenSpec(alpha=0.1, window=1000)

    def run():
        store = TraceStore(path)
        return store, replay(spec, store)

    store, res = benchmark(run)
    heartbeats = len(store.view())
    rate = heartbeats / benchmark.stats["mean"]

    # Streaming reference on a 20k slice of the same store, min-of-3:
    # the ratio is the justification for the vectorized engine.
    view = store.view()
    seq, arr, snd = view.seq[:20_000], view.arrivals[:20_000], view.send_times[:20_000]

    def stream():
        fd = ChenFD(0.1, window_size=1000)
        for s, a, t in zip(seq, arr, snd):
            fd.observe(int(s), float(a), float(t))

    streaming_rate = 20_000 / _min_of(3, stream)
    ratio = rate / streaming_rate
    emit(
        "replay_pipeline",
        f"columnar pipeline (load -> replay -> QoS): {rate / 1e6:.2f} M "
        f"heartbeats/s over {heartbeats} heartbeats "
        f"({pipeline_store.path.stat().st_size / 1e6:.1f} MB store); "
        f"{ratio:.0f}x the streaming reference "
        f"({streaming_rate / 1e3:.0f} k heartbeats/s)",
        data={
            "detector": "chen",
            "pipeline": "TraceStore -> replay -> QoSReport",
            "heartbeats": heartbeats,
            "total_sent": pipeline_store.total_sent,
            "store_bytes": pipeline_store.path.stat().st_size,
            "heartbeats_per_s": rate,
            "streaming_heartbeats_per_s": streaming_rate,
            "vectorized_vs_streaming_ratio": ratio,
            "timing": bench_stats(benchmark),
            "qos": qos_dict(res.qos),
        },
    )
    # The ROADMAP acceptance bound: ≥1M hb/s for the full pipeline.
    assert rate > 1e6
    assert res.qos.samples > 0


#: ``perfbench`` ``pipeline``'s plan: (family, grid), all at window 1000.
COLD_PLAN = (
    ("chen", (0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.9)),
    ("phi", (0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0)),
    ("fixed", (0.1, 0.2, 0.5, 1.0)),
    ("sfd", (0.005, 0.05, 0.2, 0.9)),
)
#: Gate on the cold plan's tracemalloc peak, in view-length float64 arrays.
COLD_PLAN_PEAK_ARRAYS = 6.0


def _cold_plan(store) -> ExperimentPlan:
    plan = ExperimentPlan().add_trace("trace", store)
    for family, grid in COLD_PLAN:
        params = {} if family == "fixed" else {"window": 1000}
        if family == "sfd":
            params["requirements"] = REQ
        plan.add_sweep("trace", family, grid, **params)
    return plan


def _traced_peak(fn) -> int:
    """Bytes ``fn`` allocated at its peak, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@contextmanager
def _stage_cpu(totals: dict):
    """While active, add each registry kernel's CPU time to
    ``totals["kernel.<family>"]`` and the QoS accounting's to
    ``totals["account"]``: wrapped from outside the program, as
    ``perfbench``'s traced runs wrap the kernels.  A kernel's time
    includes the shared stages it builds (chen's includes the ``EA`` that
    sfd then reads)."""
    families = registry.families()
    account = engine._account

    def clocked(name, fn):
        def call(*args):
            c0 = time.process_time()
            try:
                return fn(*args)
            finally:
                totals[name] = totals.get(name, 0.0) + time.process_time() - c0

        return call

    for fam in families:
        registry.register(
            dataclasses.replace(
                fam, kernel=clocked(f"kernel.{fam.name}", fam.kernel)
            ),
            replace=True,
        )
    engine._account = clocked("account", account)
    try:
        yield totals
    finally:
        engine._account = account
        for fam in families:
            registry.register(fam, replace=True)


def test_cold_plan_first_touch(pipeline_store):
    """A cold plan run of ``perfbench`` ``pipeline``'s shape: CPU and first touch.

    chen×8, phi×7, fixed×4 and sfd×4 at window 1000 over the bench's
    columnar store, each run on a freshly opened store with no result
    cache, on the serial executor.  Recorded: the min-of-3 cold CPU time,
    the minor page faults (``ru_minflt``) of each cold run — the pages it
    first-touches, ~4 KiB each — and ``tracemalloc`` peaks in view-length
    float64 arrays (``8·n`` bytes): the whole run, Chen's ``EA`` build,
    φ's stage build, and one grouped point's accounting on the scratch its
    group lends and the rising-arrival mask its trace's scope holds.
    Three more cold runs are clocked per stage (:func:`_stage_cpu`), and
    the fastest of them gives the CPU time of the accounting, of each
    family's kernel and of the rest of the run (store open, plan and
    executor).

    The gate is the whole run's peak alone: a count of bytes the code
    allocates, the same on every host, where CPU and faults depend on the
    host's allocator and load.  Its bound of 6 arrays follows from the
    stages.  The peak falls in the φ group: Chen's ``EA`` (1, kept in the
    trace's scope for sfd), the view's rising-arrival mask (⅛ bool, kept
    in the scope for every point's accounting), φ's stage (2), one
    point's freshness array (1) and the group's accounting scratch (1
    float64 plus ⅛ bool) make 5.25.  The accounting's late indices and
    gathered lateness add twice a point's late share (under 0.2 at φ's
    most aggressive point), and the feedback loop's per-slot rows add
    under 0.5 at slot 100, so 6 leaves a quarter of an array of slack.
    Before the stages ran in place on group-owned buffers, the same run
    peaked at ~15.
    """
    path = str(pipeline_store.path)
    view = TraceStore(path).view()
    n = len(view)
    unit = 8.0 * n
    jobs = len(_cold_plan(pipeline_store))

    def cold():
        result = _cold_plan(TraceStore(path)).run(SerialExecutor())
        assert not result.failures
        return result

    cold()  # imports and page cache warm, as in every later plan run
    cpu, faults = [], []
    for _ in range(3):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        c0 = time.process_time()
        cold()
        cpu.append(time.process_time() - c0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    clocked = []
    for _ in range(3):
        with _stage_cpu({}) as totals:
            c0 = time.process_time()
            cold()
            run_cpu = time.process_time() - c0
        totals["other"] = run_cpu - sum(totals.values())
        clocked.append((run_cpu, totals))
    stage_run_cpu, stage_cpu = min(clocked, key=lambda pair: pair[0])
    plan_peak = _traced_peak(cold) / unit
    ea_peak = _traced_peak(lambda: chen_expected_arrivals(view, 1000)) / unit
    phi_peak = _traced_peak(lambda: phi_stage(view, 1000)) / unit
    spec = ChenSpec(alpha=0.1, window=1000)
    holder = registry.PreparedStage((spec, spec))
    fp = replay(spec, view, prepared=holder).freshness

    def account():
        with holder.scratch(n - 999) as scratch:
            _account(view, fp, 999, scratch, holder.scope["rising"])

    account_peak = _traced_peak(account) / unit
    best = min(cpu)
    peak_gate = gate(
        "tracemalloc_peak_arrays.plan_run",
        plan_peak,
        COLD_PLAN_PEAK_ARRAYS,
        at_most=True,
    )
    emit(
        "replay_plan_cold",
        f"cold 23-point plan (chen x8, phi x7, fixed x4, sfd x4, window "
        f"1000) over {n} heartbeats: min-of-3 CPU {best * 1e3:.0f} ms "
        f"({best / (jobs * n) * 1e6:.4f} us per heartbeat replayed), "
        f"{statistics.median(faults) / 1e3:.1f}k minor faults per cold run; "
        f"stage CPU of the fastest of 3 clocked runs "
        f"({stage_run_cpu * 1e3:.0f} ms): "
        + ", ".join(
            f"{name} {seconds * 1e3:.1f} ms"
            for name, seconds in sorted(stage_cpu.items())
        )
        + f"; tracemalloc peak {plan_peak:.2f} arrays (gate "
        f"{COLD_PLAN_PEAK_ARRAYS:g}): EA {ea_peak:.2f}, phi stage "
        f"{phi_peak:.2f}, accounting per grouped point {account_peak:.3f}",
        data={
            "plan": {name: list(grid) for name, grid in COLD_PLAN},
            "window": 1000,
            "jobs": jobs,
            "heartbeats": n,
            "store_bytes": pipeline_store.path.stat().st_size,
            "cold_cpu_s": cpu,
            "min_of_3_cpu_s": best,
            "min_of_3_cpu_us_per_hb": best / (jobs * n) * 1e6,
            "minflt_per_cold_run": faults,
            "stage_cpu_s": {"run": stage_run_cpu, **stage_cpu},
            "tracemalloc_peak_arrays": {
                "plan_run": plan_peak,
                "chen_ea": ea_peak,
                "phi_stage": phi_peak,
                "accounting_per_point": account_peak,
            },
            "array_bytes": int(unit),
            "gate": peak_gate,
        },
    )
    assert_gates(peak_gate)


def test_instrumentation_overhead(view):
    """Replay instrumentation must cost < 5% vs a no-op registry.

    The hot path is untouched (metrics are recorded once per replay, not
    per heartbeat); this guards that property against regressions.

    Measurement: interleaved min-of-N CPU time (see
    ``_common.interleaved_min``), best of 3 rounds.  The fused QoS path
    made a 200k-heartbeat replay a ~12 ms operation, so back-to-back
    wall-clock minima no longer resolve a 5% bound on a noisy box — the
    noise floor alone exceeds it.
    """
    spec = ChenSpec(alpha=0.1, window=1000)
    live = Instruments()
    null = Instruments.null()
    for warm in range(2):  # touch both paths before timing
        replay(spec, view, instruments=live)
        replay(spec, view, instruments=null)
    overhead, base, instrumented = float("inf"), 0.0, 0.0
    for _ in range(3):
        b, lv = interleaved_min(
            11,
            (
                lambda: replay(spec, view, instruments=null),
                lambda: replay(spec, view, instruments=live),
            ),
        )
        if lv / b - 1.0 < overhead:
            overhead, base, instrumented = lv / b - 1.0, b, lv
        if overhead < 0.05:
            break
    emit(
        "throughput_obs_overhead",
        f"replay instrumentation overhead: {overhead * 100:+.2f}% "
        f"(null {len(view) / base / 1e6:.2f} M hb/s, "
        f"instrumented {len(view) / instrumented / 1e6:.2f} M hb/s)",
        data={
            "heartbeats": len(view),
            "null_registry_s": base,
            "instrumented_s": instrumented,
            "overhead_fraction": overhead,
        },
    )
    assert overhead < 0.05
