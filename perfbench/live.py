"""Live-plane workloads: ``runtime.udp → LiveMonitor → cluster.sharded →
detectors``.

This process is the monitor; ``loadgen.py`` runs in one child process as
the open-loop generator, so the two are the only processes.  Both follow
one timeline of shared CLOCK_MONOTONIC times (``t0`` = start):

    warm-up | main phase | pause | burst cycles | pause

The warm-up fills every node's detector window and counts towards
``setup_s``.  In the main phase the generator sends at a fixed rate;
``live-steady`` reads ``summary()`` every 100 ms, ``live-churn`` fails
nodes on a seeded schedule and polls ``select(SUSPECT)`` every 1 ms.  The
pause lets queued datagrams drain, so counts do not bleed across phases.

Capacity is measured in burst cycles.  Each cycle the monitor blocks its
event loop while the generator queues a burst of heartbeats in the
monitor's socket, then releases it and times how long it takes to apply
the whole burst.  The monitor works through a full backlog as it would
under sustained overload, but the generator is idle while it does: a
sender flooding the other core made the applied rate swing by half from
run to run, through contention rather than through the monitor.

With a tracer, the first half of the main phase runs untraced, and the
second half and the burst cycles run traced.  Spans come from wrappers on
the membership table's public methods and on the detector class's
``observe``.  They are installed and removed at the phase boundaries.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cluster.membership import NodeStatus
from repro.detectors import registry
from repro.runtime.monitor import LiveMonitor

from common import SRC, Outcome, median, peak_rss_mb
from tracing import Tracer

LOADGEN = Path(__file__).with_name("loadgen.py")
#: Pause between phases (seconds) for in-flight datagrams to drain.
PAUSE_S = 0.5
SUMMARY_EVERY_S = 0.1
POLL_EVERY_S = 0.001
#: One failure episode in this many ends in a restart (sequence reset).
RESTART_EVERY = 4
#: A failure must be seen within this long after its ground-truth time.
DETECT_WITHIN_S = 0.5
#: Burst cycles: heartbeats per burst (well under the ~2.5k datagrams the
#: listener's 2 MiB Linux socket buffer holds), cycle length, how long the
#: monitor holds its loop, and when in the hold the generator starts.
BURST = 1024
BURST_PERIOD_S = 0.2
BURST_HOLD_S = 0.03
BURST_LEAD_S = 0.005
#: Table methods wrapped in a traced run.
TABLE_SPANS = ("heartbeat", "heartbeat_batch", "advance", "select", "summary")


@dataclass(frozen=True)
class LiveShape:
    """Size and behaviour of one live workload."""

    spec: str
    nodes: int
    rate_hz: float
    warmup_s: float
    #: Share of ``--seconds`` given to the main phase (rest: bursts).
    main_share: float
    #: Failure episodes started per second of the main phase (0: none),
    #: and how long a failed node stays silent.
    failures_per_s: float = 0.0
    silence_s: float = 1.6


#: SFD with a 5-heartbeat window at 1 Hz: ready after 5 heartbeats.
STEADY = LiveShape(
    spec="sfd:window=5", nodes=10_000, rate_hz=1.0, warmup_s=5.5,
    main_share=0.6,
)
#: Fixed 1 s timeout at 3 Hz; >= 12 heartbeats per node before the first
#: failure, so a sequence reset is past the reorder window (restart).
#: 5k nodes keep the rate at 15k/s: the listener's socket buffer then
#: rides out a 160 ms stall of the monitor, where at 30k/s a
#: garbage-collection pause on a busy host dropped datagrams.
CHURN = LiveShape(
    spec="fixed:timeout=1.0", nodes=5_000, rate_hz=3.0, warmup_s=4.0,
    main_share=0.65, failures_per_s=80.0,
)


class _Monitor(LiveMonitor):
    """LiveMonitor with two benchmark hooks on each drained batch.

    While ``recording`` it notes the batch's completion time, size and
    the due stamps of its heartbeats, so ingest lag can be computed
    afterwards (plain arrays of doubles: retaining the batches would grow
    the garbage collector's work).  With ``drain_target`` set it stamps
    ``drain_done`` once that many heartbeats have been applied.
    """

    recording = False
    drain_target: int | None = None
    drain_done: float | None = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.done = array("d")
        self.sizes = array("q")
        self.dues = array("d")

    def _on_batch(self, batch):
        super()._on_batch(batch)
        if self.recording:
            self.done.append(self.clock())
            self.sizes.append(len(batch))
            self.dues.extend([item[3] for item in batch])
        if self.drain_target is not None and self.received >= self.drain_target:
            self.drain_done = self.clock()
            self.drain_target = None

    def ingest_lags(self, begin: float, end: float) -> np.ndarray:
        """Due-to-applied lag of every heartbeat due in ``[begin, end)``."""
        dues = np.frombuffer(self.dues, dtype=np.float64)
        done = np.repeat(np.frombuffer(self.done, dtype=np.float64),
                         np.frombuffer(self.sizes, dtype=np.int64))
        keep = (dues >= begin) & (dues < end)
        return done[keep] - dues[keep]


def _install(tracer: Tracer, table, detector_cls: type) -> None:
    """Wrap the table's public methods (on the instance) and ``observe``
    (on the detector class, one patch for every node)."""
    for name in TABLE_SPANS:
        setattr(table, name, tracer.wrap(f"cluster.{name}", getattr(table, name)))
    detector_cls.observe = tracer.wrap("detectors.observe", detector_cls.observe)


def _uninstall(table, detector_cls: type, observe) -> None:
    """Undo :func:`_install` (idempotent); ``observe`` is the detector
    class's own attribute before it, ``None`` if it inherited one."""
    for name in TABLE_SPANS:
        vars(table).pop(name, None)
    if observe is not None:
        detector_cls.observe = observe
    elif "observe" in vars(detector_cls):
        del detector_cls.observe


async def _until(deadline: float) -> float:
    delay = deadline - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
    return time.monotonic()


async def _every(start: float, end: float, period: float):
    """Yield at ``start + k * period`` until ``end``, skipping ticks the
    loop was too busy to keep, so the period does not drift with load."""
    k = 0
    while (tick := start + k * period) < end:
        yield await _until(tick)
        k = max(k + 1, int((time.monotonic() - start) / period) + 1)


def _pin() -> tuple[set[int] | None, int | None]:
    """Pin this process to one CPU and name another for the generator,
    so the scheduler cannot stack the two on one core; returns the
    affinity to restore and the generator's CPU."""
    affinity = os.sched_getaffinity(0)
    cpus = sorted(affinity)
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return affinity, cpus[1]


def _reading(monitor: LiveMonitor) -> tuple[int, float]:
    """Heartbeats applied so far and this process's CPU seconds."""
    return monitor.received, time.process_time()


def _cpu_per_hb(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Monitor CPU seconds per heartbeat applied between two readings."""
    return (after[1] - before[1]) / max(after[0] - before[0], 1)


async def _summaries(monitor: LiveMonitor, start: float, end: float) -> None:
    async for _ in _every(start, end, SUMMARY_EVERY_S):
        monitor.summary()


async def _poll_suspects(monitor: LiveMonitor, start: float, end: float,
                         period: float, starts: list) -> None:
    """Record every node newly seen SUSPECT, with the time it was seen."""
    select = monitor.table.select
    clock = monitor.clock
    suspect = NodeStatus.SUSPECT
    before: set[str] = set()
    async for now in _every(start, end, period):
        current = set(select(now, suspect))
        seen = clock()
        for node in current - before:
            starts.append((node, seen))
        before = current


async def _burst_cycles(monitor: _Monitor, start: float,
                        count: int) -> list[tuple[float, float, float | None]]:
    """``(hold start, release, drained)`` of each burst cycle; ``drained``
    is ``None`` when the burst was not applied within its cycle."""
    cycles = []
    for k in range(count):
        await _until(start + k * BURST_PERIOD_S)
        held = monitor.clock()
        monitor.drain_done = None
        monitor.drain_target = monitor.received + BURST
        # Blocking on purpose: the loop stops, so the burst queues up in
        # the socket and the monitor then applies it as one backlog.
        time.sleep(BURST_HOLD_S)
        released = monitor.clock()
        await _until(start + (k + 1) * BURST_PERIOD_S)
        cycles.append((held, released, monitor.drain_done))
    monitor.drain_target = None
    return cycles


def schedule_episodes(shape: LiveShape, seed: int, begin: float,
                      end: float) -> list[list]:
    """Seeded failure episodes ``[node, start, end, reset]`` (relative to
    ``t0``), each on a distinct node, all resolved before ``end``."""
    rng = np.random.default_rng(seed)
    first = begin + 0.3
    last = end - shape.silence_s - DETECT_WITHIN_S
    count = min(int(shape.failures_per_s * (last - first)), shape.nodes)
    if count <= 0:
        return []
    nodes = rng.permutation(shape.nodes)[:count]
    starts = np.sort(rng.uniform(first, last, count))
    return [
        [int(node), float(s), float(s) + shape.silence_s,
         i % RESTART_EVERY == 0]
        for i, (node, s) in enumerate(zip(nodes, starts))
    ]


def _check_churn(out: Outcome, timeout: float, episodes: list,
                 starts: list) -> list[float]:
    """Match suspicions to episodes; returns the detection lags (s)."""
    by_node: dict[str, list[float]] = defaultdict(list)
    for node, seen in starts:
        by_node[node].append(seen)
    lags = []
    missed = 0
    explained = 0
    for node, last, back in episodes:
        if last is None or back is None:
            missed += 1
            continue
        due = last + timeout
        hits = [t for t in by_node.get(f"n{node:05d}", ()) if due <= t <= back]
        if not hits or hits[0] - due > DETECT_WITHIN_S:
            missed += 1
            continue
        explained += 1
        lags.append(hits[0] - due)
    out.fail(missed, f"failure not seen within {DETECT_WITHIN_S} s")
    out.fail(len(starts) - explained, "suspicion outside a failure episode")
    return lags


def _drain_times(out: Outcome, cycles: list, bursts: list) -> list[float]:
    """Seconds to apply each burst that was queued whole inside its hold."""
    drains = []
    late = 0
    for (held, released, drained), (began, ended) in zip(cycles, bursts):
        if not held <= began <= ended <= released:
            late += 1
        elif drained is None:
            out.fail(1, "burst not applied within its cycle")
        else:
            drains.append(drained - released)
    if late > len(cycles) / 2 or not drains:
        out.fail(1, f"invalid run: {late} of {len(cycles)} bursts were not "
                    "queued whole while the monitor held")
    return drains


def steady(seed: int, seconds: float, tracer: Tracer | None = None,
           shape: LiveShape = STEADY) -> Outcome:
    return asyncio.run(_run(shape, seed, seconds, tracer))


def churn(seed: int, seconds: float, tracer: Tracer | None = None,
          shape: LiveShape = CHURN) -> Outcome:
    return asyncio.run(_run(shape, seed, seconds, tracer))


async def _run(shape: LiveShape, seed: int, seconds: float,
               tracer: Tracer | None) -> Outcome:
    out = Outcome()
    started = time.perf_counter()
    churning = shape.failures_per_s > 0
    main_s = seconds * shape.main_share
    main_end = shape.warmup_s + main_s
    bursts_at = main_end + PAUSE_S
    cycles_n = max(int((seconds - main_s - 2 * PAUSE_S) / BURST_PERIOD_S), 1)
    episodes = (
        schedule_episodes(shape, seed, shape.warmup_s, main_end)
        if churning else []
    )
    affinity, generator_cpu = _pin()
    monitor = _Monitor(shape.spec)
    table = monitor.table
    spec = registry.parse_spec(shape.spec)
    detector_cls = registry.get_for_spec(spec).streaming_cls
    observe = vars(detector_cls).get("observe")
    await monitor.start()
    plan = {
        "src": str(SRC),
        "cpu": generator_cpu,
        "target": list(monitor.address),
        "nodes": shape.nodes,
        "rate": shape.rate_hz,
        "stream_end": main_end,
        "episodes": episodes,
        "bursts": {"start": bursts_at + BURST_LEAD_S, "period": BURST_PERIOD_S,
                   "size": BURST, "count": cycles_n},
    }
    gen = subprocess.Popen(
        [sys.executable, str(LOADGEN), json.dumps(plan)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        started_ok = select.select([gen.stdout], [], [], 60)[0]
        if not started_ok or gen.stdout.readline().strip() != "ready":
            raise RuntimeError("load generator did not start")
        t0 = time.monotonic() + 0.05
        gen.stdin.write(f"{t0!r}\n")
        gen.stdin.flush()

        await _until(t0 + shape.warmup_s)
        ready = monitor.summary()[NodeStatus.ACTIVE]
        setup_s = time.perf_counter() - started
        out.fail(shape.nodes - ready, "node not ACTIVE after warm-up")

        begin = t0 + shape.warmup_s
        end = t0 + main_end
        monitor.recording = not churning
        starts: list = []
        side = asyncio.create_task(
            _poll_suspects(monitor, begin, end, POLL_EVERY_S, starts)
            if churning else _summaries(monitor, begin, end)
        )
        main0 = mid = _reading(monitor)
        if tracer is not None:
            await _until(begin + main_s / 2)
            mid = _reading(monitor)
            _install(tracer, table, detector_cls)
        await _until(end)
        if not churning:
            active = monitor.summary()[NodeStatus.ACTIVE]
            out.fail(shape.nodes - active,
                     "node not ACTIVE at the end of the main phase")
        monitor.recording = False
        await side
        await _until(end + PAUSE_S)
        main1 = _reading(monitor)

        cycles = await _burst_cycles(monitor, t0 + bursts_at, cycles_n)
        bursts1 = _reading(monitor)
        if tracer is not None:
            _uninstall(table, detector_cls, observe)
        await _until(t0 + bursts_at + cycles_n * BURST_PERIOD_S + PAUSE_S)
        report_text, _ = gen.communicate(timeout=30)
    finally:
        if tracer is not None:
            _uninstall(table, detector_cls, observe)
        if gen.poll() is None:
            gen.kill()
        gen.wait()
        await monitor.stop()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
    report = json.loads(report_text.strip().splitlines()[-1])

    sent = report["sent"]
    out.attempted = sent
    out.fail(max(sent - main1[0], 0), "datagram lost before the burst cycles")
    out.fail(report["send_errors"] + report["burst_errors"],
             "generator send error")
    late = report["late_over_5ms"]
    if late > 0.01 * sent:
        out.fail(1, f"invalid run: {late} of {sent} sends over 5 ms late")
    drains = _drain_times(out, cycles, report["bursts"]) or [np.nan]

    if churning:
        out.attempted += len(episodes)
        if not episodes:
            out.fail(1, "main phase too short to fit a failure episode")
        lags = np.asarray(
            _check_churn(out, spec.timeout, report["episodes"], starts),
            dtype=np.float64,
        )
        resets = sum(1 for *_, reset in episodes if reset)
        out.fail(abs(table.restarts - resets), "restart not adopted")
        lag_name = "detection lag"
    else:
        lags = monitor.ingest_lags(begin, end)
        lag_name = "ingest lag (due -> applied)"
    if lags.size == 0:
        lags = np.asarray([np.nan])
    # Totals over a phase, so a garbage collection or a host hiccup is
    # charged its share.
    untraced = mid if tracer is not None else main1
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "latency_ms": (median(lags) * 1e3, "ms"),
        "cpu_us_per_hb": (_cpu_per_hb(main0, untraced) * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.notes += [
        f"{shape.nodes} nodes, {shape.spec!r}, {shape.rate_hz:g} Hz per node; "
        f"main phase {main_s:.2f} s, {cycles_n} burst cycles of {BURST}",
        f"{lag_name}: p50 {np.percentile(lags, 50) * 1e3:.3f} ms, "
        f"p90 {np.percentile(lags, 90) * 1e3:.3f} ms, "
        f"p99 {np.percentile(lags, 99) * 1e3:.3f} ms over {lags.size} samples",
        f"generator: {sent} scheduled sends, max {report['late_max_ms']:.2f} ms "
        f"late, {report['late_over_1ms']} over 1 ms",
        f"capacity: {BURST * len(drains) / sum(drains):.0f} heartbeats/s over "
        f"{len(drains)} of {cycles_n} burst drains "
        f"({BURST / max(drains):.0f}/s to {BURST / min(drains):.0f}/s each)",
    ]
    if churning:
        out.notes.append(
            f"{len(episodes)} failure episodes ({resets} with restart), "
            f"{table.restarts} restarts adopted"
        )
    if tracer is not None:
        _layers(out, tracer,
                cpu=bursts1[1] - mid[1],
                hb=bursts1[0] - mid[0],
                plain=_cpu_per_hb(main0, mid),
                traced=_cpu_per_hb(mid, main1))
    return out


def _layers(out: Outcome, tracer: Tracer, *, cpu: float, hb: int,
            plain: float, traced: float) -> None:
    self_s = tracer.self_s
    calls = tracer.calls
    detect = self_s["detectors.observe"]
    account = self_s["cluster.heartbeat"] + self_s["cluster.heartbeat_batch"]
    query = (
        self_s["cluster.advance"] + self_s["cluster.select"]
        + self_s["cluster.summary"]
    )
    per_hb = 1e6 / max(hb, 1)
    out.layers.update(
        {
            "detect.us_per_hb": (detect * per_hb, "us"),
            "account.us_per_hb": (account * per_hb, "us"),
            "query.us_per_hb": (query * per_hb, "us"),
            # The monitor idles between datagrams, so its busy time is
            # process CPU time rather than wall time.
            "glue.us_per_hb": ((cpu - detect - account - query) * per_hb, "us"),
            "tracing.overhead_pct": ((traced / plain - 1.0) * 100.0, "%"),
            "exp.cache_hits": (0, "count"),
            "exp.cache_misses": (0, "count"),
            "cluster.batch_calls": (calls["cluster.heartbeat_batch"], "count"),
        }
    )
    for name in sorted(calls):
        out.notes.append(
            f"span {name}: {calls[name]} calls, "
            f"self {self_s[name] * per_hb:.3f} us/hb"
        )
