"""The stack's instrument panel: one bundle wired through every layer.

:class:`Instruments` owns a :class:`~repro.obs.registry.MetricsRegistry`
and an :class:`~repro.obs.events.EventLog` and pre-registers every metric
family the runtime knows how to emit (the catalog is documented in
``docs/observability.md``).  Components accept an optional ``instruments``
argument and call the ``on_*`` hooks below; passing ``None`` keeps today's
zero-overhead behavior, and :meth:`Instruments.null` yields a bundle whose
every instrument is a no-op — the baseline the <5 % overhead budget of
``bench_replay_throughput`` is measured against.

Two accounting styles coexist deliberately:

* **push** — hot-path counters/histograms updated inline (heartbeats,
  datagrams, faults, crashes): O(1) each, no locks (asyncio thread model);
* **pull** — gauges that are *views* of live state (node status, suspicion
  level, SFD safety margin, QoS vs targets) refreshed by a scrape-time
  collector registered via :meth:`bind_monitor`, so their cost is paid per
  scrape, not per heartbeat.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.cluster.membership import NodeStatus
from repro.obs.audit import QoSAuditor
from repro.obs.events import EventLog
from repro.obs.registry import (
    MetricsRegistry,
    NullRegistry,
    heartbeat_fast_path,
    log_buckets,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.feedback import TuningRecord
    from repro.detectors.base import FailureDetector
    from repro.qos.spec import QoSReport
    from repro.runtime.monitor import LiveMonitor

__all__ = ["Instruments", "STATUS_CODES"]

#: Stable numeric encoding of :class:`NodeStatus` for the
#: ``repro_node_status`` gauge (dashboards need ordinals, not strings).
STATUS_CODES: dict[NodeStatus, int] = {
    NodeStatus.UNKNOWN: 0,
    NodeStatus.ACTIVE: 1,
    NodeStatus.SLOW: 2,
    NodeStatus.SUSPECT: 3,
    NodeStatus.DEAD: 4,
}

_INTERARRIVAL_BUCKETS = log_buckets(1e-3, 100.0, per_decade=3)
_BACKOFF_BUCKETS = log_buckets(1e-2, 60.0, per_decade=3)
_MARGIN_BUCKETS = log_buckets(1e-4, 60.0, per_decade=3)
_REPLAY_BUCKETS = log_buckets(1e-3, 1000.0, per_decade=3)


class Instruments:
    """Metrics + events bundle for the live stack and the replay engine.

    Parameters
    ----------
    registry:
        Backing registry (fresh :class:`MetricsRegistry` by default; pass a
        :class:`~repro.obs.registry.NullRegistry` for a no-op bundle).
    events:
        Event ring buffer (fresh 1024-slot log by default).
    trace_heartbeats:
        Emit one ``heartbeat`` event per received heartbeat carrying the
        full send→arrival→freshness-point→verdict context.  Off by default
        because the verdict costs one suspicion query per heartbeat.
    audit:
        The QoS audit plane (:class:`~repro.obs.audit.QoSAuditor`).  One
        is built over this bundle's registry/events by default; pass your
        own to customize its horizon or default requirements.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        events: EventLog | None = None,
        *,
        trace_heartbeats: bool = False,
        audit: QoSAuditor | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.trace_heartbeats = bool(trace_heartbeats)
        r = self.registry
        self.audit = (
            audit
            if audit is not None
            else QoSAuditor(r, events=self.events)
        )

        # -- transport (UDP listener / sender) -------------------------- #
        self.datagrams = r.counter(
            "repro_listener_datagrams_total", "Datagrams received by the listener"
        )
        self.malformed = r.counter(
            "repro_listener_malformed_total",
            "Datagrams rejected by the heartbeat codec (individually accounted)",
        )
        self.malformed_suppressed = r.counter(
            "repro_listener_malformed_suppressed_total",
            "Malformed datagrams beyond the per-second accounting limit",
        )
        self.callback_errors = r.counter(
            "repro_listener_callback_errors_total",
            "Exceptions swallowed from the heartbeat consumer",
        )
        self.ingest_batch = r.histogram(
            "repro_ingest_batch_size",
            "Valid heartbeats handed over per socket drain batch",
            buckets=log_buckets(1.0, 1024.0, per_decade=3),
        )
        self.advance_sweeps = r.counter(
            "repro_membership_advance_total",
            "advance() sweeps of the membership deadline wheel",
        )
        self.advance_popped = r.counter(
            "repro_membership_advance_popped_total",
            "Due nodes re-checked by membership advance() sweeps",
        )
        self.advance_transitions = r.counter(
            "repro_membership_advance_transitions_total",
            "Status changes emitted by membership advance() sweeps",
        )
        self.sent = r.counter(
            "repro_sender_heartbeats_sent_total",
            "Heartbeats emitted by local senders",
            labels=("node",),
        )
        self.send_errors = r.counter(
            "repro_sender_errors_total",
            "Socket errors on the heartbeat send path",
            labels=("node",),
        )
        self.reopens = r.counter(
            "repro_sender_reopens_total",
            "Datagram endpoints re-established after a socket fault",
            labels=("node",),
        )

        # -- heartbeat lifecycle ---------------------------------------- #
        self.heartbeats = r.counter(
            "repro_heartbeats_received_total",
            "Valid heartbeats fed to the membership table",
            labels=("node",),
        )
        self.interarrival = r.histogram(
            "repro_heartbeat_interarrival_seconds",
            "Observed gap between consecutive heartbeats of one node",
            labels=("node",),
            buckets=_INTERARRIVAL_BUCKETS,
        )
        self.stale = r.counter(
            "repro_heartbeats_stale_total",
            "Heartbeats dropped as reordered/stale by the membership table",
            labels=("node",),
        )
        self.transitions = r.counter(
            "repro_node_transitions_total",
            "Node status edges observed (trusted<->suspected lifecycle)",
            labels=("node", "from", "to"),
        )
        self.restarts = r.counter(
            "repro_node_restarts_total",
            "Sender restarts recognized via sequence regression",
            labels=("node",),
        )

        # -- pull gauges (refreshed by the bind_monitor collector) ------ #
        self.monitor_nodes = r.gauge(
            "repro_monitor_nodes", "Nodes currently in the membership table"
        )
        self.nodes_by_status = r.gauge(
            "repro_nodes_by_status",
            "Node count per current status",
            labels=("status",),
        )
        self.node_status = r.gauge(
            "repro_node_status",
            "Per-node status code (0 unknown, 1 active, 2 slow, 3 suspect, 4 dead)",
            labels=("node",),
        )
        self.node_suspicion = r.gauge(
            "repro_node_suspicion",
            "Current suspicion level on the detector's own scale",
            labels=("node",),
        )
        self.monitor_received = r.gauge(
            "repro_monitor_received_total",
            "Heartbeats the monitor accepted over its lifetime",
        )

        # -- SFD feedback loop (Section IV-B) --------------------------- #
        self.sfd_margin = r.gauge(
            "repro_sfd_safety_margin_seconds",
            "Current tuned safety margin SM(k)",
            labels=("node",),
        )
        self.sfd_margin_hist = r.histogram(
            "repro_sfd_safety_margin_trajectory_seconds",
            "Distribution of SM(k) across feedback slots (the tuning trajectory)",
            labels=("node",),
            buckets=_MARGIN_BUCKETS,
        )
        self.sfd_slots = r.counter(
            "repro_sfd_slots_total",
            "Feedback slots completed (margin adjustments of Eq. 12)",
            labels=("node",),
        )
        self.sfd_decisions = r.counter(
            "repro_sfd_decisions_total",
            "Sat_k decisions taken per slot (Algorithm 1)",
            labels=("node", "decision"),
        )
        self.sfd_td = r.gauge(
            "repro_sfd_detection_time_seconds",
            "Measured output TD at the last feedback slot",
            labels=("node",),
        )
        self.sfd_mr = r.gauge(
            "repro_sfd_mistake_rate",
            "Measured output MR at the last feedback slot (1/s)",
            labels=("node",),
        )
        self.sfd_qap = r.gauge(
            "repro_sfd_query_accuracy",
            "Measured output QAP at the last feedback slot",
            labels=("node",),
        )
        self.sfd_target_td = r.gauge(
            "repro_sfd_target_detection_time_seconds",
            "Required upper bound on TD",
            labels=("node",),
        )
        self.sfd_target_mr = r.gauge(
            "repro_sfd_target_mistake_rate",
            "Required upper bound on MR (1/s)",
            labels=("node",),
        )
        self.sfd_target_qap = r.gauge(
            "repro_sfd_target_query_accuracy",
            "Required lower bound on QAP",
            labels=("node",),
        )

        # -- supervisor / fault injector -------------------------------- #
        self.supervisor_crashes = r.counter(
            "repro_supervisor_crashes_total",
            "Unhandled exceptions caught by the supervisor",
            labels=("task",),
        )
        self.supervisor_giveups = r.counter(
            "repro_supervisor_giveups_total",
            "Tasks abandoned after exhausting max_restarts",
            labels=("task",),
        )
        self.supervisor_backoff = r.histogram(
            "repro_supervisor_backoff_seconds",
            "Backoff delays waited before restarts",
            labels=("task",),
            buckets=_BACKOFF_BUCKETS,
        )
        self.faults = r.counter(
            "repro_faults_injected_total",
            "Faults applied by the chaos injector, by kind",
            labels=("kind",),
        )
        self.injector_datagrams = r.counter(
            "repro_injector_datagrams_total",
            "Datagrams through the fault injector, by outcome",
            labels=("outcome",),
        )

        # -- replay engine ---------------------------------------------- #
        self.replay_heartbeats = r.counter(
            "repro_replay_heartbeats_total",
            "Heartbeats replayed through the vectorized engine",
            labels=("detector",),
        )
        self.replay_seconds = r.histogram(
            "repro_replay_seconds",
            "Wall time of replay-engine runs",
            labels=("detector",),
            buckets=_REPLAY_BUCKETS,
        )
        self.replay_rate = r.gauge(
            "repro_replay_rate_hz",
            "Heartbeats/second of the most recent replay run",
            labels=("detector",),
        )

        # -- experiment engine (failure policy) -------------------------- #
        self.exp_retries = r.counter(
            "repro_exp_retries_total",
            "Experiment job retries scheduled, by failure kind",
            labels=("kind",),
        )
        self.exp_quarantined = r.counter(
            "repro_exp_quarantined_total",
            "Experiment jobs quarantined after exhausting retries, by kind",
            labels=("kind",),
        )
        self.exp_timeouts = r.counter(
            "repro_exp_job_timeouts_total",
            "Experiment jobs that exceeded the per-job wall-clock ceiling",
        )
        self.exp_respawns = r.counter(
            "repro_exp_pool_respawns_total",
            "Worker-pool respawns forced by crashes or hung jobs, by reason",
            labels=("reason",),
        )

        # -- trace ring health ------------------------------------------- #
        self.trace_dropped = r.counter(
            "repro_trace_dropped_total",
            "Trace events evicted from the ring buffer before being read",
        )
        # The ring drops silently on the emit hot path; reconcile the
        # counter at scrape time instead of pricing every emit.
        self._dropped_synced = 0
        r.add_collector(self._sync_trace_dropped)

        self._prev_arrival: dict[str, float] = {}
        # Per-node fused beat closures for the per-heartbeat hot path: one
        # dict lookup and one call instead of the labels() tuple-key
        # machinery per beat.  Safe to cache: child series are never
        # evicted while a node is monitored.
        self._hb_fast: dict[str, Callable[[float | None], None]] = {}

    def _sync_trace_dropped(self) -> None:
        delta = self.events.dropped - self._dropped_synced
        if delta > 0:
            self._dropped_synced = self.events.dropped
            self.trace_dropped.inc(delta)

    @classmethod
    def null(cls) -> "Instruments":
        """A bundle whose every instrument is a no-op (overhead baseline)."""
        return cls(registry=NullRegistry(), events=EventLog(0))

    # ------------------------------------------------------------------ #
    # transport hooks
    # ------------------------------------------------------------------ #

    def on_datagram(self) -> None:
        self.datagrams.inc()

    def on_datagrams(self, count: int) -> None:
        """Batch-granularity datagram accounting: one inc per drain."""
        self.datagrams.inc(count)

    def on_ingest_batch(self, size: int) -> None:
        """One socket drain handed ``size`` valid heartbeats downstream."""
        self.ingest_batch.observe(size)

    def on_malformed(self, suppressed: bool) -> None:
        (self.malformed_suppressed if suppressed else self.malformed).inc()

    def on_malformed_batch(self, accounted: int, suppressed: int) -> None:
        """Bulk malformed accounting for one drained batch."""
        if accounted:
            self.malformed.inc(accounted)
        if suppressed:
            self.malformed_suppressed.inc(suppressed)

    def on_membership_advance(self, popped: int, changed: int) -> None:
        """One deadline-wheel sweep re-checked ``popped`` due nodes, of
        which ``changed`` transitioned."""
        self.advance_sweeps.inc()
        if popped:
            self.advance_popped.inc(popped)
        if changed:
            self.advance_transitions.inc(changed)

    def on_callback_error(self) -> None:
        self.callback_errors.inc()

    def on_sent(self, node: str) -> None:
        self.sent.labels(node).inc()

    def on_send_error(self, node: str) -> None:
        self.send_errors.labels(node).inc()

    def on_reopen(self, node: str) -> None:
        self.reopens.labels(node).inc()
        self.events.emit("sender_reopen", node=node)

    # ------------------------------------------------------------------ #
    # heartbeat lifecycle hooks
    # ------------------------------------------------------------------ #

    def record_heartbeat(
        self,
        node: str,
        seq: int,
        send_time: float | None,
        arrival: float,
        detector: "FailureDetector | None" = None,
    ) -> None:
        """Per-heartbeat hot path: counter + inter-arrival histogram, plus
        the full trace event when ``trace_heartbeats`` is on."""
        beat = self._hb_fast.get(node)
        if beat is None:
            beat = heartbeat_fast_path(
                self.heartbeats.labels(node), self.interarrival.labels(node)
            )
            self._hb_fast[node] = beat
        prev = self._prev_arrival.get(node)
        self._prev_arrival[node] = arrival
        beat(arrival - prev if prev is not None and arrival > prev else None)
        if self.trace_heartbeats:
            # None (JSON null), not NaN: the event stream must stay valid
            # strict JSON for downstream consumers.
            freshness = None
            suspicion = None
            verdict = NodeStatus.UNKNOWN
            if detector is not None and detector.ready:
                fp = getattr(detector, "freshness_point", None)
                if fp is not None:
                    freshness = fp()
                suspicion = detector.suspicion(arrival)
                threshold = detector.binary_threshold()
                verdict = (
                    NodeStatus.SUSPECT
                    if suspicion > threshold
                    else NodeStatus.ACTIVE
                )
            self.events.emit(
                "heartbeat",
                node=node,
                seq=seq,
                send_time=send_time,
                arrival=arrival,
                freshness=freshness,
                suspicion=suspicion,
                verdict=verdict.value,
            )

    def on_stale(self, node: str, seq: int, newest: int) -> None:
        self.stale.labels(node).inc()

    def on_transition(
        self, node: str, old: NodeStatus, new: NodeStatus, at: float
    ) -> None:
        self.transitions.labels(node, old.value, new.value).inc()
        self.events.emit(
            "transition", node=node, **{"from": old.value, "to": new.value}, at=at
        )
        self.audit.on_transition(
            node, old, new, at, last_arrival=self._prev_arrival.get(node)
        )

    def on_restart(self, node: str, restarts: int) -> None:
        self.restarts.labels(node).inc()
        self.events.emit("restart", node=node, restarts=restarts)
        self.audit.on_restart(node, restarts)

    # ------------------------------------------------------------------ #
    # SFD feedback hooks
    # ------------------------------------------------------------------ #

    def on_tuning_record(self, node: str, rec: "TuningRecord") -> None:
        """One feedback step of Eq. (12): the single intake shared by the
        SFD metric families, the trace ring, and the audit plane — every
        consumer sees the *full* record, including the controller's
        life-cycle status (so infeasibility verdicts are never lost to a
        partial view)."""
        q: QoSReport = rec.qos
        self.sfd_margin.labels(node).set(rec.sm_after)
        self.sfd_margin_hist.labels(node).observe(rec.sm_after)
        self.sfd_slots.labels(node).inc()
        self.sfd_decisions.labels(node, rec.decision.name.lower()).inc()
        self.sfd_td.labels(node).set(q.detection_time)
        self.sfd_mr.labels(node).set(q.mistake_rate)
        self.sfd_qap.labels(node).set(q.query_accuracy)
        self.events.emit(
            "sfd_slot",
            node=node,
            slot=rec.slot,
            sm_before=rec.sm_before,
            sm_after=rec.sm_after,
            decision=rec.decision.name.lower(),
            status=rec.status.value,
            td=q.detection_time,
            mr=q.mistake_rate,
            qap=q.query_accuracy,
        )
        self.audit.on_tuning_record(node, rec)

    def sfd_slot_hook(self, node: str) -> Callable:
        """Per-node ``on_slot`` callback for :class:`repro.core.sfd.SFD`."""

        def hook(rec: "TuningRecord") -> None:
            self.on_tuning_record(node, rec)

        return hook

    def wrap_detector_factory(
        self, factory: Callable[[str], "FailureDetector"]
    ) -> Callable[[str], "FailureDetector"]:
        """Wrap a per-node detector factory so self-tuning detectors report
        their feedback loop (SM trajectory, decisions, QoS vs targets) and
        the audit plane grades each node against its own requirement."""

        def build(node_id: str) -> "FailureDetector":
            det = factory(node_id)
            if hasattr(det, "on_slot"):
                det.on_slot = self.sfd_slot_hook(node_id)
            req = getattr(det, "requirements", None)
            if req is not None:
                self.sfd_target_td.labels(node_id).set(req.max_detection_time)
                self.sfd_target_mr.labels(node_id).set(req.max_mistake_rate)
                self.sfd_target_qap.labels(node_id).set(req.min_query_accuracy)
            self.audit.watch(node_id, requirements=req)
            return det

        return build

    # ------------------------------------------------------------------ #
    # supervisor / injector / replay hooks
    # ------------------------------------------------------------------ #

    def on_supervisor_crash(self, task: str, error: str, backoff: float) -> None:
        self.supervisor_crashes.labels(task).inc()
        self.supervisor_backoff.labels(task).observe(backoff)
        self.events.emit("task_crash", task=task, error=error, backoff=backoff)

    def on_supervisor_giveup(self, task: str) -> None:
        self.supervisor_giveups.labels(task).inc()
        self.events.emit("task_giveup", task=task)

    def on_fault(self, fate: str) -> None:
        """One injector decision: ``deliver`` / ``drop`` / ``burst-drop`` /
        ``truncate+corrupt``-style fate strings."""
        if fate in ("drop", "burst-drop"):
            self.injector_datagrams.labels("dropped").inc()
            self.faults.labels(fate).inc()
            return
        self.injector_datagrams.labels("forwarded").inc()
        if fate != "deliver":
            for kind in fate.split("+"):
                self.faults.labels(kind).inc()

    # ------------------------------------------------------------------ #
    # experiment failure-policy hooks
    # ------------------------------------------------------------------ #

    def on_job_retry(self, kind: str, job: str) -> None:
        """One failed attempt got a retry scheduled (kind per KINDS)."""
        self.exp_retries.labels(kind).inc()
        if kind == "timeout":
            self.exp_timeouts.inc()
        self.events.emit("exp_retry", failure=kind, job=job)

    def on_job_quarantined(self, kind: str, job: str) -> None:
        """One job exhausted its retries and was quarantined."""
        self.exp_quarantined.labels(kind).inc()
        if kind == "timeout":
            self.exp_timeouts.inc()
        self.events.emit("exp_quarantine", failure=kind, job=job)

    def on_pool_respawn(self, reason: str) -> None:
        """The process pool was killed and respawned (crash/timeout)."""
        self.exp_respawns.labels(reason).inc()
        self.events.emit("exp_pool_respawn", reason=reason)

    def record_replay(
        self, detector: str, heartbeats: int, seconds: float, qos=None
    ) -> None:
        self.replay_heartbeats.labels(detector).inc(heartbeats)
        self.replay_seconds.labels(detector).observe(seconds)
        rate = heartbeats / seconds if seconds > 0 else math.inf
        self.replay_rate.labels(detector).set(rate)
        fields = {"detector": detector, "heartbeats": heartbeats,
                  "seconds": seconds, "rate": rate}
        if qos is not None:
            fields.update(td=qos.detection_time, mr=qos.mistake_rate,
                          qap=qos.query_accuracy)
        self.events.emit("replay", **fields)

    # ------------------------------------------------------------------ #
    # pull-side: scrape-time collector over a live monitor
    # ------------------------------------------------------------------ #

    def bind_monitor(self, monitor: "LiveMonitor") -> None:
        """Register a scrape-time collector over ``monitor``'s table.

        Refreshes the status/suspicion/safety-margin gauges from live
        detector state — the cost lands on the scraper, not on the
        heartbeat path.  Status classification goes through the table's
        snapshot path (``statuses`` — an O(changed) deadline-wheel
        sweep), so TRUSTED↔SUSPECTED transitions are detected (and
        counted) on every scrape even if nobody else queries, and
        per-node detector reads are *epoch-gated*: the
        expensive gauges (suspicion level, SFD margin) are recomputed
        only for nodes whose status changed since the previous scrape,
        so a dashboard scrape cannot perturb hot-path timing at 10k
        nodes.
        """
        dirty: set[str] = set()
        seen: set[str] = set()
        monitor.table.add_transition_listener(
            lambda node_id, old, new, at: dirty.add(node_id)
        )

        def collect() -> None:
            now = monitor.clock()
            table = monitor.table
            statuses = table.statuses(now)
            stale_ids = set(dirty)
            dirty.clear()
            counts = dict.fromkeys(NodeStatus, 0)
            for node_id, status in statuses.items():
                counts[status] += 1
                if node_id not in seen:
                    stale_ids.add(node_id)
            seen.intersection_update(statuses)  # drop expired nodes
            for node_id in stale_ids:
                status = statuses.get(node_id)
                if status is None:
                    continue  # transitioned, then expired before the scrape
                seen.add(node_id)
                self.node_status.labels(node_id).set(STATUS_CODES[status])
                det = table.node(node_id).detector
                level = det.suspicion(now) if det.ready else 0.0
                self.node_suspicion.labels(node_id).set(level)
                sm = getattr(det, "safety_margin", None)
                if sm is not None:
                    self.sfd_margin.labels(node_id).set(sm)
            for status, n in counts.items():
                self.nodes_by_status.labels(status.value).set(n)
            self.monitor_nodes.set(len(table))
            self.monitor_received.set(monitor.received)
            self.audit.collect(now)

        self.registry.add_collector(collect)
