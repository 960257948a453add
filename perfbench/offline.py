"""Offline-plane workloads: ``traces → replay → qos → exp``.

``sweep`` regenerates a set of the paper's QoS curves from an in-memory
WAN-1 trace: every cold run replays 28 grid points through the serial
executor into a fresh result cache.  Quantile and ml kernels own most of
its time, so it is the workload a faster kernel must move.

``pipeline`` replays a long WAN-JAIST trace from an on-disk columnar
store through cheap kernels only (chen, phi, fixed, sfd), cold into a
fresh cache and then warm five times against that cache.  Store open,
fingerprinting, QoS accounting and cache reads sit on its critical path,
and the kernels that dominate ``sweep`` do not run at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.detectors import registry
from repro.exp import ExperimentPlan, SerialExecutor, SweepCache
from repro.exp.archive import qos_to_dict
from repro.obs import Instruments
from repro.qos.spec import QoSRequirements
from repro.traces import WAN_1, WAN_JAIST, MonitorView, TraceStore
from repro.traces import synthesize, synthesize_to

from common import Outcome, median, peak_rss_mb, scratch_dir
from tracing import Tracer

REQ = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)

CHEN_GRID = (0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.9)
PHI_GRID = (0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0)
SFD_GRID = (0.005, 0.05, 0.2, 0.9)

#: (family, grid) in declaration order; ``None`` is the family's own grid.
SWEEP_PLAN = (
    ("chen", CHEN_GRID),
    ("bertier", None),
    ("phi", PHI_GRID),
    ("quantile", (0.9, 0.99, 0.999, 1.0)),
    ("sfd", SFD_GRID),
    ("ml", (0.5, 2.0, 8.0, 32.0)),
)
PIPELINE_PLAN = (
    ("chen", CHEN_GRID),
    ("phi", PHI_GRID),
    ("fixed", (0.1, 0.2, 0.5, 1.0)),
    ("sfd", SFD_GRID),
)

#: Set-up is repeated this many times per run and its median reported.
SETUPS = 9
#: Warm reruns after each cold pipeline run.
WARM_RERUNS = 5


@dataclass(frozen=True)
class OfflineSize:
    """Trace length (heartbeats sent) and estimator window of a workload."""

    heartbeats: int
    window: int


#: Sized so one cold sweep or one pipeline iteration takes about a second
#: on a 2-vCPU Xeon VM: a run then holds a dozen or more iterations, and
#: the fastest of them is rarely one that host noise slowed.  20k is the
#: repo's minimum trace length (``MIN_HEARTBEATS``).
SWEEP_SIZE = OfflineSize(heartbeats=20_000, window=1000)
PIPELINE_SIZE = OfflineSize(heartbeats=500_000, window=1000)

#: Curve digests pinned for the default sizes at this seed.
PINNED_SEED = 2012
DIGESTS = Path(__file__).with_name("digests.json")


def build_plan(source, plan_spec, window: int) -> ExperimentPlan:
    plan = ExperimentPlan().add_trace("trace", source)
    for family, grid in plan_spec:
        params = {} if family == "fixed" else {"window": window}
        if family == "sfd":
            params["requirements"] = REQ
        plan.add_sweep("trace", family, grid, **params)
    return plan


def curve_digest(result) -> str:
    """sha256 over every curve point's parameter and full QoS report."""
    rows = [
        [trace, name, point.parameter, qos_to_dict(point.qos)]
        for trace, name, curve in result.items()
        for point in curve
    ]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _check_cold(out: Outcome, result, digest: str, first: str,
                pinned: str | None) -> None:
    """Count the failures of one cold plan run."""
    out.fail(len(result.failures), "job quarantined")
    out.fail(
        sum(
            1
            for _, _, curve in result.items()
            for p in curve
            if not all(
                math.isfinite(v)
                for v in (p.detection_time, p.mistake_rate, p.query_accuracy)
            )
        ),
        "non-finite QoS point",
    )
    out.fail(int(digest != first), "curves differ between cold runs")
    if pinned is not None:
        out.fail(int(digest != pinned), "curves differ from the pinned digest")


def pinned_digest(workload: str, seed: int, size: OfflineSize, default: OfflineSize):
    if seed != PINNED_SEED or size != default:
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


@contextmanager
def traced_layers(tracer: Tracer):
    """Route registry kernels and view fingerprinting through spans."""
    families = registry.families()
    fingerprint = MonitorView.fingerprint
    for fam in families:
        registry.register(
            dataclasses.replace(
                fam, kernel=tracer.wrap(f"replay.kernel.{fam.name}", fam.kernel)
            ),
            replace=True,
        )
    MonitorView.fingerprint = tracer.wrap("traces.fingerprint", fingerprint)
    try:
        yield
    finally:
        MonitorView.fingerprint = fingerprint
        for fam in families:
            registry.register(fam, replace=True)


class _Run:
    """Per-iteration readings of one offline workload run.

    With a tracer, odd iterations run traced and even ones untraced: the
    end-to-end numbers come from the untraced ones, the per-layer numbers
    from the traced ones, and the difference between the fastest of each
    is the tracing overhead.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.instruments = Instruments() if tracer is not None else None
        self.plain: list[dict] = []
        self.traced: list[dict] = []

    def is_traced(self, i: int) -> bool:
        return self.tracer is not None and i % 2 == 1

    def layers_for(self, traced: bool):
        return traced_layers(self.tracer) if traced else nullcontext()

    def cache(self, directory: Path, traced: bool) -> SweepCache:
        cache = SweepCache(directory)
        if traced:
            cache.load = self.tracer.wrap("exp.cache.load", cache.load)
            cache.store = self.tracer.wrap("exp.cache.store", cache.store)
        return cache

    def open_store(self, path: Path, traced: bool) -> TraceStore:
        if traced:
            return self.tracer.wrap("traces.store_open", TraceStore)(path)
        return TraceStore(path)

    def execute(self, plan: ExperimentPlan, cache: SweepCache, traced: bool):
        run = self.tracer.wrap("exp.plan.run", plan.run) if traced else plan.run
        return run(
            SerialExecutor(),
            cache=cache,
            instruments=self.instruments if traced else None,
        )

    def add(self, traced: bool, **reading) -> None:
        (self.traced if traced else self.plain).append(reading)

    def more(self, started: float, seconds: float) -> bool:
        """Whether another iteration fits in the ``seconds`` budget (a
        traced run needs one untraced and one traced iteration)."""
        done = self.plain + self.traced
        if len(done) < (2 if self.tracer is not None else 1):
            return True
        typical = median(r["iter_wall_s"] for r in done)
        return time.perf_counter() - started + typical <= seconds

    def cold_cpu_us_per_hb(self) -> float:
        """CPU per heartbeat replayed of the fastest untraced cold run.
        The fastest, not the median: interference from other tenants of a
        shared host only ever slows an iteration, so the minimum is the
        reading it moves least (as ``interleaved_min`` in the benchmark
        suite argues)."""
        return min(r["cpu_s"] / r["hb"] for r in self.plain) * 1e6

    def layers(self, out: Outcome) -> None:
        tr = self.tracer
        kernels = [n for n in tr.calls if n.startswith("replay.kernel.")]
        detect = sum(tr.self_s[n] for n in kernels)
        replay_total = sum(
            self.instruments.replay_seconds.labels(fam).sum
            for fam in registry.names()
        )
        account = replay_total - sum(tr.total_s[n] for n in kernels)
        query = sum(
            tr.self_s[n]
            for n in ("traces.fingerprint", "exp.cache.load", "exp.cache.store")
        )
        # The offline plane is CPU-bound and never idle, so its busy time
        # is wall time, the clock the spans read.
        busy = sum(r["iter_wall_s"] for r in self.traced)
        hb = sum(r["hb"] for r in self.traced)
        plain = min(r["iter_cpu_s"] / r["hb"] for r in self.plain)
        traced = min(r["iter_cpu_s"] / r["hb"] for r in self.traced)
        iters = len(self.traced)
        per_hb = 1e6 / hb
        out.layers.update(
            {
                "detect.us_per_hb": (detect * per_hb, "us"),
                "account.us_per_hb": (account * per_hb, "us"),
                "query.us_per_hb": (query * per_hb, "us"),
                "glue.us_per_hb": ((busy - detect - account - query) * per_hb, "us"),
                "tracing.overhead_pct": ((traced / plain - 1.0) * 100.0, "%"),
                "exp.cache_hits": (sum(r["hits"] for r in self.traced) / iters,
                                   "count"),
                "exp.cache_misses": (sum(r["misses"] for r in self.traced) / iters,
                                     "count"),
                "cluster.batch_calls": (0, "count"),
            }
        )
        for name in sorted(tr.calls):
            out.notes.append(
                f"span {name}: {tr.calls[name] / iters:.0f} calls/iter, "
                f"self {tr.self_s[name] / iters * 1e3:.2f} ms/iter"
            )


def sweep(seed: int, seconds: float, tracer: Tracer | None = None,
          size: OfflineSize = SWEEP_SIZE) -> Outcome:
    """Repeated cold regenerations of 28 WAN-1 curve points."""
    out = Outcome()
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        view = synthesize(WAN_1, n=size.heartbeats, seed=seed).monitor_view()
        setups.append(time.perf_counter() - t0)
    plan = build_plan(view, SWEEP_PLAN, size.window)
    jobs = len(plan)
    hb = jobs * len(view)
    pinned = pinned_digest("sweep", seed, size, SWEEP_SIZE)
    run = _Run(tracer)
    first_digest = None
    with scratch_dir() as tmp:
        started = time.perf_counter()
        i = 0
        while run.more(started, seconds):
            traced = run.is_traced(i)
            cache_dir = tmp / f"cache{i}"
            cache = run.cache(cache_dir, traced)
            with run.layers_for(traced):
                t0 = time.perf_counter()
                c0 = time.process_time()
                result = run.execute(plan, cache, traced)
                cpu = time.process_time() - c0
                wall = time.perf_counter() - t0
            shutil.rmtree(cache_dir, ignore_errors=True)
            run.add(traced, wall_s=wall, cpu_s=cpu, hb=hb, iter_cpu_s=cpu,
                    iter_wall_s=wall, hits=result.cache.hits,
                    misses=result.cache.misses)
            out.attempted += jobs
            digest = curve_digest(result)
            first_digest = first_digest or digest
            _check_cold(out, result, digest, first_digest, pinned)
            i += 1
    walls = [r["wall_s"] for r in run.plain]
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_ms": (min(walls) * 1e3, "ms"),
        "cpu_us_per_hb": (run.cold_cpu_us_per_hb(), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.notes.append(
        f"{len(walls)} untraced cold runs of {jobs} jobs over {len(view)} "
        f"heartbeats: fastest {min(walls):.3f} s, median {median(walls):.3f} s; "
        f"curve digest {first_digest}"
    )
    if tracer is not None:
        run.layers(out)
    return out


def pipeline(seed: int, seconds: float, tracer: Tracer | None = None,
             size: OfflineSize = PIPELINE_SIZE) -> Outcome:
    """Cold then warm plan runs over an on-disk columnar WAN-JAIST store."""
    out = Outcome()
    pinned = pinned_digest("pipeline", seed, size, PIPELINE_SIZE)
    run = _Run(tracer)
    warm_walls: list[float] = []
    first_digest = None
    with scratch_dir() as tmp:
        path = tmp / "wan_jaist.bin"
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            synthesize_to(WAN_JAIST, path, n=size.heartbeats, seed=seed)
            setups.append(time.perf_counter() - t0)
        started = time.perf_counter()
        i = 0
        while run.more(started, seconds):
            traced = run.is_traced(i)
            cache_dir = tmp / f"cache{i}"
            cache = run.cache(cache_dir, traced)
            with run.layers_for(traced):
                t0 = time.perf_counter()
                c0 = time.process_time()
                store = run.open_store(path, traced)
                plan = build_plan(store, PIPELINE_PLAN, size.window)
                cold = run.execute(plan, cache, traced)
                cpu = time.process_time() - c0
                wall = time.perf_counter() - t0
                hb = len(plan) * len(store.view())
                digest = curve_digest(cold)
                first_digest = first_digest or digest
                hits = cold.cache.hits
                misses = cold.cache.misses
                for _ in range(WARM_RERUNS):
                    w0 = time.perf_counter()
                    store = run.open_store(path, traced)
                    plan = build_plan(store, PIPELINE_PLAN, size.window)
                    warm = run.execute(plan, cache, traced)
                    if not traced:
                        warm_walls.append(time.perf_counter() - w0)
                    out.attempted += len(plan)
                    hits += warm.cache.hits
                    misses += warm.cache.misses
                    out.fail(warm.cache.misses, "warm job missed the cache")
                    out.fail(int(curve_digest(warm) != digest),
                             "warm curves differ from cold")
                iter_cpu = time.process_time() - c0
                iter_wall = time.perf_counter() - t0
            shutil.rmtree(cache_dir, ignore_errors=True)
            run.add(traced, wall_s=wall, cpu_s=cpu, hb=hb, iter_cpu_s=iter_cpu,
                    iter_wall_s=iter_wall, hits=hits, misses=misses)
            out.attempted += len(plan)
            _check_cold(out, cold, digest, first_digest, pinned)
            i += 1
    colds = [r["wall_s"] for r in run.plain]
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_ms": (min(warm_walls) * 1e3, "ms"),
        "cpu_us_per_hb": (run.cold_cpu_us_per_hb(), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.notes.append(
        f"{len(colds)} untraced iterations of 1 cold + {WARM_RERUNS} warm runs "
        f"of {len(plan)} jobs over {len(store.view())} heartbeats: cold fastest "
        f"{min(colds):.3f} s, median {median(colds):.3f} s; warm fastest "
        f"{min(warm_walls) * 1e3:.2f} ms, median {median(warm_walls) * 1e3:.2f} ms; "
        f"curve digest {first_digest}"
    )
    if tracer is not None:
        run.layers(out)
    return out
