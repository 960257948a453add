"""One-monitors-multiple: a membership table of per-node detectors.

A monitor hosting ``N`` independent detector instances — one per monitored
node — is the paper's "one monitors multiple" case ("based on the parallel
theory", Section VI): detector state is per-sender, so the extension is a
table, and SFD's small-window friendliness (Section V-C: "it is able to
get acceptable performance with very small window size, and it can save
valuable memory resources") is exactly what makes the table affordable at
PlanetLab scale.

At that scale queries arrive continuously and almost no node changes
status between them, so the table's evaluation cost tracks the number of
status *changes*, not the number of nodes (the shape of Dobre et al.'s
large-scale architecture, PAPERS.md: local detection units whose verdicts
aggregate upward):

* Every accepted heartbeat classifies its node at arrival and schedules
  the node's **next status boundary** on a deadline wheel — the absolute
  time at which the detector's suspicion level first reaches the next
  rung of the classification ladder, obtained from
  :meth:`~repro.detectors.base.FailureDetector.suspicion_eta`.
* :meth:`MembershipTable.advance` pops only the *due* wheel buckets and
  re-classifies exactly those nodes with :meth:`NodeState.status`.
* ``statuses()`` / ``summary()`` / ``select()`` then read a maintained
  snapshot (insertion-ordered status dict, per-status counts, per-status
  index sets) instead of touching any detector.
* ``expire()`` pops a lazy min-heap keyed by last arrival instead of
  scanning the table.

Correctness of the wheel does not depend on ``suspicion_eta`` being
exact, only on it never being *later* than the true crossing: scheduled
nodes are re-classified with the canonical ladder at pop time, so an
early deadline merely costs one extra re-check.  Detectors that cannot
invert their suspicion curve return ``-inf`` and join an "always
re-check" set, which costs a per-node classification on every advance
for those nodes only.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    ConfigurationError,
    InfeasibleQoSError,
    NotWarmedUpError,
    UnknownNodeError,
)
from repro.detectors.base import FailureDetector, TimeoutFailureDetector
from repro.qos.metrics import MistakeAccumulator, account_arrival
from repro.qos.spec import QoSReport

__all__ = ["NodeStatus", "NodeState", "DeadlineWheel", "MembershipTable"]


class NodeStatus(enum.Enum):
    """Four-way node classification from the introduction's PlanetLab list."""

    #: Heartbeats arriving on schedule.
    ACTIVE = "active"
    #: Overdue but below the suspicion threshold (busy / heavily loaded).
    SLOW = "slow"
    #: Suspicion threshold crossed.
    SUSPECT = "suspect"
    #: Far past the threshold (2x) — near-certain crash ("offline or dead").
    DEAD = "dead"
    #: Still warming up — no verdict yet.
    UNKNOWN = "unknown"


@dataclass
class NodeState:
    """Bookkeeping for one monitored node."""

    node_id: str
    detector: FailureDetector
    heartbeats: int = 0
    last_seq: int = -1
    last_arrival: float = math.nan
    stale_dropped: int = 0
    restarts: int = 0
    #: Last status reported through the table's classification paths —
    #: the memory that lets the table emit TRUSTED↔SUSPECTED transition
    #: edges to an observer instead of only point-in-time snapshots.
    last_status: NodeStatus = NodeStatus.UNKNOWN
    #: Table-wide transition counter value at this node's last status
    #: change.  Consumers (quorum aggregation, dashboards) cache derived
    #: verdicts keyed by this epoch and recompute only when it moves,
    #: instead of re-reading every detector on every query.
    status_epoch: int = 0
    #: Live QoS accounting (wrong suspicions + TD samples), started when
    #: the detector warms up; ``None`` when the table was built with
    #: ``account_qos=False``.
    accounting: MistakeAccumulator | None = field(default=None, repr=False)

    def qos(self, now: float) -> QoSReport:
        """Measured output QoS of this node's detector since warm-up.

        The live counterpart of the DES MonitorProcess report, by the same
        rule (:func:`~repro.qos.metrics.account_arrival`): every late
        heartbeat counted as one wrong suspicion, every freshness point as
        a detection-time sample ``FP − σ``.  The table uses the sender
        stamp ``σ`` whenever the heartbeat gives one; only a caller that
        passes ``send_time=None`` — :class:`~repro.runtime.monitor.LiveMonitor`,
        whose live clocks carry no comparable stamp — gets the ``FP − A``
        proxy.
        """
        if self.accounting is None:
            raise NotWarmedUpError(
                f"node {self.node_id!r}: QoS accounting disabled or the "
                "detector has not warmed up yet"
            )
        return self.accounting.snapshot(now)

    def status(self, now: float) -> NodeStatus:
        """Classify via the detector's suspicion level vs its threshold."""
        if not self.detector.ready:
            return NodeStatus.UNKNOWN
        level = self.detector.suspicion(now)
        threshold = self.detector.binary_threshold()
        if threshold <= 0.0:
            # Binary timeout detector: level is overdue seconds.
            if level == 0.0:
                return NodeStatus.ACTIVE
            return NodeStatus.SUSPECT
        if level < 0.5 * threshold:
            return NodeStatus.ACTIVE
        if level <= threshold:
            return NodeStatus.SLOW
        if level < 2.0 * threshold:
            return NodeStatus.SUSPECT
        return NodeStatus.DEAD


#: Statuses that are terminal until the next heartbeat: no future time can
#: change them, so they carry no wheel deadline.
_TERMINAL = frozenset({NodeStatus.DEAD})

#: Detector classes whose classification outputs are the *unmodified*
#: linear-overdue ones of :class:`TimeoutFailureDetector` (suspicion is
#: ``max(0, now − FP)``, binary threshold 0, boundary = FP cached by
#: ``observe``).  For them the batch fast path can classify and re-arm
#: from the cached freshness point alone; any override of those methods
#: drops the class back to the generic path.
_LINEAR_TIMEOUT: dict[type, bool] = {}


def _is_linear_timeout(cls: type) -> bool:
    return (
        issubclass(cls, TimeoutFailureDetector)
        and cls.observe is TimeoutFailureDetector.observe
        and cls.suspicion is TimeoutFailureDetector.suspicion
        and cls.suspicion_eta is TimeoutFailureDetector.suspicion_eta
        and cls.binary_threshold is FailureDetector.binary_threshold
    )


class DeadlineWheel:
    """Hashed timing wheel over absolute deadlines.

    Buckets are ``granularity``-wide half-open intervals addressed by
    integer key ``floor(due / granularity)``; a min-heap over bucket keys
    yields due buckets in order.  A node lives in at most one bucket
    (:meth:`schedule` moves it), so :meth:`due` pops each node at most
    once per call and the heap never accumulates stale per-node entries.

    Scheduling a node into a bucket whose start has already passed is
    legal — it simply pops on the *next* :meth:`due` call, which is what
    makes the conservative-early re-check loop terminate.
    """

    __slots__ = ("granularity", "_buckets", "_heap", "_pos")

    def __init__(self, granularity: float = 0.05):
        if not (granularity > 0.0) or not math.isfinite(granularity):
            raise ConfigurationError(
                f"granularity must be a positive finite number, "
                f"got {granularity!r}"
            )
        self.granularity = float(granularity)
        self._buckets: dict[int, set[str]] = {}
        self._heap: list[int] = []
        self._pos: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._pos

    def schedule(self, node_id: str, due: float) -> None:
        """(Re)place ``node_id`` in the bucket covering ``due``.

        ``due == inf`` cancels the entry (the status is unreachable
        without a heartbeat, which reschedules on arrival anyway).
        """
        if due == math.inf:
            self.cancel(node_id)
            return
        key = math.floor(due / self.granularity)
        old = self._pos.get(node_id)
        if old == key:
            return
        if old is not None:
            self._buckets[old].discard(node_id)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = set()
            heapq.heappush(self._heap, key)
        bucket.add(node_id)
        self._pos[node_id] = key

    def cancel(self, node_id: str) -> None:
        key = self._pos.pop(node_id, None)
        if key is not None:
            self._buckets[key].discard(node_id)

    def due(self, now: float) -> list[str]:
        """Pop every node in a bucket whose start is at or before ``now``.

        Popped nodes are unscheduled; callers re-:meth:`schedule` the
        ones that still have a future boundary.  Because a bucket's start
        is never later than any deadline it holds, a node is always
        popped by the first call with ``now`` past its true deadline.
        """
        limit = math.floor(now / self.granularity)
        out: list[str] = []
        heap = self._heap
        while heap and heap[0] <= limit:
            key = heapq.heappop(heap)
            bucket = self._buckets.pop(key, None)
            if not bucket:
                continue  # emptied by moves, or a duplicate heap key
            pos = self._pos
            for nid in bucket:
                if pos.get(nid) == key:
                    del pos[nid]
                    out.append(nid)
        return out


class MembershipTable:
    """Registry of monitored nodes, each with its own detector instance.

    Query clocks must be non-decreasing (a monotonic wall clock or
    simulation time both qualify).  ``statuses()``, ``summary()`` and
    ``select()`` advance the wheel to ``now`` and read the snapshot, so a
    query at a time *earlier* than a previous one answers with the
    snapshot as of the latest advance (a node already seen SUSPECT stays
    SUSPECT).  ``status_of(node, now)`` always classifies that node at
    ``now``.

    Parameters
    ----------
    detector_factory:
        Called as ``detector_factory(node_id)`` to build a fresh detector
        when a node is registered (or first heard from, when
        ``auto_register`` is set).  A registry spec string
        (``"phi:threshold=4.0,window=10"``) or replay spec object is also
        accepted and resolved via :mod:`repro.detectors.registry`.
    auto_register:
        Accept heartbeats from unknown nodes by registering them on the
        fly (how a PlanetLab-style open monitor behaves).
    account_qos:
        Keep live QoS accounting per node (see :meth:`NodeState.qos`).
        Every node's detector must then have ``freshness_point()``;
        registering one without it raises
        :class:`~repro.errors.ConfigurationError`.
    reorder_window:
        Sequence regressions up to this many numbers behind the newest are
        treated as transport reordering and dropped; regressions *beyond*
        it mean the sender restarted with a fresh counter, so its detector
        is reset instead (a crashed-and-restarted node must be re-adopted,
        not ignored forever).
    granularity:
        Deadline-wheel bucket width in seconds.  Smaller buckets mean
        fewer early re-checks near a boundary; larger buckets mean fewer
        heap operations.  ~5% of the heartbeat interval is a good default.
    on_transition:
        Optional observer ``(node_id, old, new, now)`` fired whenever a
        node's classified status changes — at heartbeat arrival (recovery
        edges), in :meth:`advance` (suspicion edges) and in
        :meth:`status_of`.
    on_restart:
        Optional observer ``(node_id, restarts)`` fired when a sequence
        regression past the reorder window re-adopts a node.
    on_stale:
        Optional observer ``(node_id, seq, newest)`` fired when a
        reordered/stale heartbeat is dropped.
    on_advance:
        Optional hook ``(popped, changed)`` fired after every
        :meth:`advance` — the observability layer's batch-granularity
        counter feed.
    """

    def __init__(
        self,
        detector_factory: Callable[[str], FailureDetector] | str,
        *,
        auto_register: bool = True,
        account_qos: bool = False,
        reorder_window: int = 8,
        granularity: float = 0.05,
        on_transition: Callable[[str, NodeStatus, NodeStatus, float], None]
        | None = None,
        on_restart: Callable[[str, int], None] | None = None,
        on_stale: Callable[[str, int, int], None] | None = None,
        on_advance: Callable[[int, int], None] | None = None,
    ):
        if reorder_window < 0:
            raise ConfigurationError(
                f"reorder_window must be >= 0, got {reorder_window!r}"
            )
        if not callable(detector_factory):
            # Spec string (or spec object): resolve through the registry so
            # configs can say `"phi:threshold=4.0,window=10"` directly.
            from repro.detectors import registry

            detector_factory = registry.as_factory(detector_factory)
        self._factory = detector_factory
        self._auto = auto_register
        self._account = account_qos
        self._reorder_window = int(reorder_window)
        self._on_transition = on_transition
        self._on_restart = on_restart
        self._on_stale = on_stale
        self._on_advance = on_advance
        self._transition_listeners: list[
            Callable[[str, NodeStatus, NodeStatus, float], None]
        ] = []
        self._epoch = 0
        self._roster_epoch = 0
        self._nodes: dict[str, NodeState] = {}
        self._wheel = DeadlineWheel(granularity)
        #: Nodes whose detector cannot invert its suspicion curve
        #: (``suspicion_eta`` is ``-inf``): re-checked on every advance.
        self._always: set[str] = set()
        #: Min-heap of ``(last_arrival_at_push, node_id)``; at most one
        #: live entry per node (``_expiry_la`` holds its key), refreshed
        #: lazily when popped with an out-of-date arrival.
        self._expiry: list[tuple[float, str]] = []
        self._expiry_la: dict[str, float] = {}
        # Maintained snapshot.  `_statuses` preserves registration order.
        self._statuses: dict[str, NodeStatus] = {}
        self._counts: dict[NodeStatus, int] = {s: 0 for s in NodeStatus}
        self._by_status: dict[NodeStatus, dict[str, None]] = {
            s: {} for s in NodeStatus
        }

    def add_transition_listener(
        self, listener: Callable[[str, NodeStatus, NodeStatus, float], None]
    ) -> None:
        """Subscribe an additional ``(node_id, old, new, now)`` observer.

        Unlike the constructor's ``on_transition`` (which stays the primary
        hook, e.g. the instruments bundle), any number of listeners can be
        attached after construction — quorum aggregators use this to
        invalidate their per-node verdict caches on exactly the nodes that
        changed.
        """
        self._transition_listeners.append(listener)

    @property
    def epoch(self) -> int:
        """Table-wide status-transition counter (see ``status_epoch``)."""
        return self._epoch

    @property
    def roster_epoch(self) -> int:
        """Counter of node registrations and removals.  Consumers caching
        per-node derived state compare it to see membership changes that
        no status transition announces (an expiry plus a registration
        leave the node count unchanged)."""
        return self._roster_epoch

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def register(self, node_id: str) -> NodeState:
        """Add a node explicitly; idempotent."""
        state = self._nodes.get(node_id)
        if state is None:
            state = NodeState(node_id=node_id, detector=self._build(node_id))
            self._nodes[node_id] = state
            self._statuses[node_id] = NodeStatus.UNKNOWN
            self._counts[NodeStatus.UNKNOWN] += 1
            self._by_status[NodeStatus.UNKNOWN][node_id] = None
            self._roster_epoch += 1
        return state

    def _build(self, node_id: str) -> FailureDetector:
        detector = self._factory(node_id)
        if self._account and not hasattr(detector, "freshness_point"):
            # The accounting rule checks arrivals against freshness points;
            # without them there is nothing to measure.
            raise ConfigurationError(
                f"account_qos=True needs a detector with freshness_point(); "
                f"{type(detector).__name__} has none"
            )
        return detector

    def remove(self, node_id: str) -> None:
        if self._nodes.pop(node_id, None) is None:
            return
        self._wheel.cancel(node_id)
        self._always.discard(node_id)
        self._expiry_la.pop(node_id, None)  # heap entry goes stale; see expire()
        status = self._statuses.pop(node_id)
        self._counts[status] -= 1
        del self._by_status[status][node_id]
        self._roster_epoch += 1

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def heartbeat(
        self, node_id: str, seq: int, arrival: float, send_time: float | None = None
    ) -> NodeState:
        """Feed one heartbeat from ``node_id``.

        Small sequence regressions (within the reorder window) are dropped
        as stale; large ones re-adopt the node as freshly restarted.

        A self-tuning detector whose feedback loop gives up raises
        :class:`~repro.errors.InfeasibleQoSError` at its slot close, after
        it consumed the heartbeat.  The table books that heartbeat like
        any accepted one (sequence, count, QoS accounting, status), so a
        duplicate of it is dropped as stale, and then re-raises the error.
        """
        state = self._nodes.get(node_id)
        if state is None:
            if not self._auto:
                raise UnknownNodeError(node_id)
            state = self.register(node_id)
        if seq <= state.last_seq:
            if state.last_seq - seq <= self._reorder_window:
                state.stale_dropped += 1
                if self._on_stale is not None:
                    self._on_stale(node_id, seq, state.last_seq)
                return state
            self._mark_restarted(state)
        det = state.detector
        try:
            det.observe(seq, arrival, send_time)
            failure = None
        except InfeasibleQoSError as exc:
            failure = exc
        state.last_seq = seq
        state.last_arrival = arrival
        state.heartbeats += 1
        if self._account and det.ready:
            state.accounting = account_arrival(
                state.accounting,
                arrival,
                det.freshness_point(),  # type: ignore[attr-defined]
                arrival if send_time is None else send_time,
            )
        # Classify at arrival: recovery edges (SUSPECT -> ACTIVE) surface
        # immediately, and the wheel is re-armed at the next boundary.
        self._classify(state, arrival)
        if node_id not in self._expiry_la:
            heapq.heappush(self._expiry, (arrival, node_id))
            self._expiry_la[node_id] = arrival
        if failure is not None:
            raise failure
        return state

    def heartbeat_batch(
        self, batch: list[tuple[str, int, float, float | None]]
    ) -> int:
        """Feed a drained batch of ``(node_id, seq, arrival, send_time)``
        tuples; returns the number of accepted (non-stale) heartbeats.

        Semantically one :meth:`heartbeat` per tuple.  The common case at
        cluster scale — a known node sending the next in-order sequence
        and staying ACTIVE — touches no snapshot structure and emits no
        transition, so the layered ``heartbeat`` → ``_classify`` →
        ``_reschedule`` call chain is pure overhead for it.  This lane
        fuses those layers for exactly that case (same state updates,
        same wheel re-arm, same expiry-heap entry) and routes everything
        else — unknown nodes, stale/restart sequences, non-ACTIVE nodes,
        QoS accounting — through :meth:`heartbeat` (proven by the
        batched parity tests).
        """
        accepted = 0
        account = self._account
        nodes = self._nodes
        slow = self.heartbeat
        active = NodeStatus.ACTIVE
        neg_inf = -math.inf
        push = heapq.heappush
        lin_cache = _LINEAR_TIMEOUT
        wheel = self._wheel
        expiry, expiry_la, always = self._expiry, self._expiry_la, self._always
        for node_id, seq, arrival, send_time in batch:
            state = nodes.get(node_id)
            if (
                account
                or state is None
                or seq <= state.last_seq
                or state.last_status is not active
            ):
                before = state.heartbeats if state is not None else 0
                if slow(node_id, seq, arrival, send_time).heartbeats != before:
                    accepted += 1
                continue
            det = state.detector
            state.last_seq = seq
            state.last_arrival = arrival
            state.heartbeats += 1
            accepted += 1
            cls = det.__class__
            linear = lin_cache.get(cls)
            if linear is None:
                linear = lin_cache[cls] = _is_linear_timeout(cls)
            if linear:
                # Pure timeout detector, already warmed up (it was
                # ACTIVE): inline the base-class observe — the class
                # check above guarantees this is the code that would run
                # — and reuse the freshness point as the ACTIVE→SUSPECT
                # boundary.  No further detector calls needed.
                off = det.freshness_offset
                if off is not None:
                    # Constant-interval contract: _ingest is a no-op and
                    # FP is plain arithmetic — zero detector calls.
                    det._observed += 1
                    det._last_arrival = arrival
                    det._freshness = fp = arrival + off
                else:
                    # Base observe order: estimators may read the
                    # previous arrival inside _ingest.
                    det._ingest(seq, arrival, send_time)
                    det._observed += 1
                    det._last_arrival = arrival
                    det._freshness = fp = det._next_freshness()
                if arrival > fp:
                    # Already overdue at its own arrival (rare).
                    self._classify(state, arrival)
                    continue
                if fp >= 0.0:
                    # Inlined wheel.schedule (same bucket arithmetic) —
                    # but only when the deadline moved *earlier*.  An
                    # entry in an earlier bucket than the true deadline
                    # is conservative: `advance` pops it, re-checks, and
                    # re-arms at the real boundary.  Skipping the
                    # no-earlier case turns a per-heartbeat re-bucket
                    # into one early pop per timeout period.
                    key = int(fp / wheel.granularity)
                    pos = wheel._pos
                    old = pos.get(node_id)
                    if old is None or key < old:
                        buckets = wheel._buckets
                        if old is not None:
                            buckets[old].discard(node_id)
                        bucket = buckets.get(key)
                        if bucket is None:
                            bucket = buckets[key] = set()
                            push(wheel._heap, key)
                        bucket.add(node_id)
                        pos[node_id] = key
                else:  # pragma: no cover - negative clocks
                    wheel.schedule(node_id, fp)
                if node_id not in expiry_la:
                    push(expiry, (arrival, node_id))
                    expiry_la[node_id] = arrival
                continue
            # Generic path: classify at arrival, fused with the
            # next-boundary lookup.
            det.observe(seq, arrival, send_time)
            threshold = det.binary_threshold()
            level = det.suspicion(arrival)
            if (
                level != 0.0
                if threshold <= 0.0
                else level >= 0.5 * threshold
            ):
                # Leaving ACTIVE right at arrival (rare): the canonical
                # choke point handles snapshot, observers, and re-arming.
                self._classify(state, arrival)
                continue
            try:
                due = det.suspicion_eta(
                    0.0 if threshold <= 0.0 else 0.5 * threshold
                )
            except (NotWarmedUpError, NotImplementedError):
                due = neg_inf
            if due == neg_inf:
                wheel.cancel(node_id)
                always.add(node_id)
            else:
                if always:
                    always.discard(node_id)
                wheel.schedule(node_id, due)
            if node_id not in expiry_la:
                push(expiry, (arrival, node_id))
                expiry_la[node_id] = arrival
        return accepted

    def _mark_restarted(self, state: NodeState) -> None:
        """Re-adopt a node whose sequence counter regressed past the
        reorder window: the peer crashed and came back with a fresh
        counter, so its detector history (inter-arrival statistics from
        the previous incarnation, plus the crash gap) is meaningless."""
        state.restarts += 1
        try:
            state.detector.reset()
        except NotImplementedError:
            state.detector = self._build(state.node_id)
        state.last_seq = -1
        state.last_arrival = math.nan
        state.accounting = None
        if self._on_restart is not None:
            self._on_restart(state.node_id, state.restarts)

    @property
    def restarts(self) -> int:
        """Total node restarts recognized across the table."""
        return sum(st.restarts for st in self._nodes.values())

    def node(self, node_id: str) -> NodeState:
        state = self._nodes.get(node_id)
        if state is None:
            raise UnknownNodeError(node_id)
        return state

    def nodes(self) -> tuple[NodeState, ...]:
        return tuple(self._nodes.values())

    # ------------------------------------------------------------------ #
    # classification choke point: observers, snapshot, rescheduling
    # ------------------------------------------------------------------ #

    def _classify(self, state: NodeState, now: float) -> NodeStatus:
        """Compute a node's status, surfacing the edge to the observers
        and keeping the snapshot and the wheel in step."""
        old = state.last_status
        status = state.status(now)
        if status is not old:
            node_id = state.node_id
            self._epoch += 1
            state.status_epoch = self._epoch
            if self._on_transition is not None:
                self._on_transition(node_id, old, status, now)
            for listener in self._transition_listeners:
                listener(node_id, old, status, now)
            state.last_status = status
            self._counts[old] -= 1
            self._counts[status] += 1
            self._statuses[node_id] = status
            del self._by_status[old][node_id]
            self._by_status[status][node_id] = None
        self._reschedule(state)
        return status

    def _boundary(self, state: NodeState) -> float:
        """Absolute time of the node's next status change (``inf`` if
        unreachable without a heartbeat, ``-inf`` if not computable)."""
        det = state.detector
        if not det.ready or state.last_status in _TERMINAL:
            return math.inf
        threshold = det.binary_threshold()
        status = state.last_status
        try:
            if threshold <= 0.0:
                # Binary ladder: ACTIVE until just past the freshness
                # point, then SUSPECT terminally (until a heartbeat).
                if status is NodeStatus.SUSPECT:
                    return math.inf
                return det.suspicion_eta(0.0)
            if status is NodeStatus.SLOW:
                return det.suspicion_eta(threshold)
            if status is NodeStatus.SUSPECT:
                return det.suspicion_eta(2.0 * threshold)
            # ACTIVE — or UNKNOWN on the ready-but-unclassified edge.
            return det.suspicion_eta(0.5 * threshold)
        except (NotWarmedUpError, NotImplementedError):
            return -math.inf

    def _reschedule(self, state: NodeState) -> None:
        node_id = state.node_id
        due = self._boundary(state)
        if due == -math.inf:
            # Can't invert the suspicion curve: per-query classification
            # for this node only.
            self._wheel.cancel(node_id)
            self._always.add(node_id)
            return
        self._always.discard(node_id)
        self._wheel.schedule(node_id, due)

    # ------------------------------------------------------------------ #
    # the O(changed) pump
    # ------------------------------------------------------------------ #

    def advance(self, now: float) -> int:
        """Re-classify exactly the nodes whose deadline has passed.

        Emits the same transitions (same node, edge, timestamp) as
        classifying every node at ``now``; everything else is untouched.
        Returns the number of status changes.
        """
        now = float(now)
        popped = 0
        changed = 0
        nodes = self._nodes
        active = NodeStatus.ACTIVE
        lin_cache = _LINEAR_TIMEOUT
        wheel = self._wheel
        due = wheel.due(now)
        n_wheel = len(due)
        if self._always:
            due.extend(self._always)
        for i, nid in enumerate(due):
            state = nodes.get(nid)
            if state is None:  # pragma: no cover - removed mid-batch
                continue
            popped += 1
            if i < n_wheel and state.last_status is active:
                # Early pop of a live pure-timeout node whose deadline
                # moved later since it was bucketed (the batched fast path
                # re-buckets lazily): it stays ACTIVE until its cached
                # freshness point, so re-arm there without a
                # re-classification.
                det = state.detector
                cls = det.__class__
                linear = lin_cache.get(cls)
                if linear is None:
                    linear = lin_cache[cls] = _is_linear_timeout(cls)
                if linear:
                    fp = det._freshness
                    if fp is not None and fp > now:
                        wheel.schedule(nid, fp)
                        continue
            before = state.last_status
            # _classify updates the snapshot and re-arms the wheel;
            # re-arming into an already-popped bucket lands on the *next*
            # advance, so this loop cannot spin.
            if self._classify(state, now) is not before:
                changed += 1
        if self._on_advance is not None:
            self._on_advance(popped, changed)
        return changed

    # ------------------------------------------------------------------ #
    # queries read the snapshot
    # ------------------------------------------------------------------ #

    def status_of(self, node_id: str, now: float) -> NodeStatus:
        """One node's status at ``now`` (:class:`NodeStatus.UNKNOWN` for
        ids never seen — query paths never raise, matching the open
        auto-registering monitor's semantics).  Classifies that node
        alone, with no global advance, so a point query stays O(1)."""
        state = self._nodes.get(node_id)
        if state is None:
            return NodeStatus.UNKNOWN
        return self._classify(state, now)

    def statuses(self, now: float) -> dict[str, NodeStatus]:
        """Snapshot every node's status at ``now``, in registration order."""
        self.advance(now)
        return dict(self._statuses)

    def summary(self, now: float) -> dict[NodeStatus, int]:
        """Counts per status — the "guidance" the intro asks for."""
        self.advance(now)
        return dict(self._counts)

    def select(self, now: float, status: NodeStatus) -> list[str]:
        """Node ids currently in ``status`` (e.g. the ACTIVE servers a
        cloud user should be routed to).

        Read from the per-status index set, so the cost is the size of
        the answer.  Order follows transition recency, not registration
        order; callers that need an order should sort.
        """
        self.advance(now)
        return list(self._by_status[status])

    def expire(self, now: float, *, silent_for: float) -> list[str]:
        """Evict nodes whose last heartbeat is older than ``silent_for``.

        Long-dead entries would otherwise accumulate forever in an
        auto-registering table (churny clusters like PlanetLab register
        nodes that never come back).  Pops the lazy expiry heap instead of
        scanning: an entry whose pushed arrival is out of date is
        refreshed and re-pushed, so each node is examined only when its
        *oldest known* arrival is past the horizon.  Nodes that have not
        yet heartbeat at all are never expired here.  Returns the evicted
        ids (sorted).
        """
        if silent_for <= 0:
            raise ConfigurationError(
                f"silent_for must be > 0, got {silent_for!r}"
            )
        stale: list[str] = []
        nodes = self._nodes
        heap = self._expiry
        live = self._expiry_la
        while heap and now - heap[0][0] > silent_for:
            la, nid = heapq.heappop(heap)
            if live.get(nid) != la:
                continue  # superseded entry of a removed/re-added node
            del live[nid]
            state = nodes.get(nid)
            if state is None:  # pragma: no cover - removed externally
                continue
            if now - state.last_arrival > silent_for:
                stale.append(nid)
                self.remove(nid)
            else:
                heapq.heappush(heap, (state.last_arrival, nid))
                live[nid] = state.last_arrival
        stale.sort()
        return stale
