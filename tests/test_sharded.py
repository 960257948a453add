"""Membership-table parity, the deadline wheel, and batched ingest.

The :class:`~repro.cluster.membership.MembershipTable` contract is
*bit-for-bit equivalence* with the flat oracle in ``flat_membership.py``,
which re-classifies every node on every query — same statuses (and
iteration order), same transition edges at the same timestamps, same
restart/stale accounting, same QoS reports, same expiries — while doing
O(changed) work per query.  These tests prove the equivalence under
chaos-style heartbeat schedules (reorders, restarts, stale duplicates,
interleaved queries) for every detector family, pin the one deliberate
difference (query clocks that step back), and cover the batch ingest
path end to end.
"""

import asyncio
import math
import random

import pytest

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.core import SFD
from repro.qos.spec import QoSRequirements
from repro.cluster import DeadlineWheel, MembershipTable, MonitorGroup, NodeStatus
from repro.detectors import (
    BertierFD,
    ChenFD,
    FixedTimeoutFD,
    MLFD,
    PhiFD,
    QuantileFD,
)
from repro.runtime import UDPHeartbeatListener, pack_heartbeat

from flat_membership import FlatMembershipTable

# --------------------------------------------------------------------- #
# DeadlineWheel
# --------------------------------------------------------------------- #


class TestDeadlineWheel:
    def test_due_pops_in_order_and_unschedules(self):
        w = DeadlineWheel(0.1)
        w.schedule("a", 0.35)
        w.schedule("b", 0.05)
        w.schedule("c", 9.0)
        assert len(w) == 3 and "a" in w
        assert sorted(w.due(0.4)) == ["a", "b"]
        assert len(w) == 1 and "a" not in w and "c" in w
        assert w.due(0.4) == []

    def test_reschedule_moves_single_position(self):
        w = DeadlineWheel(0.1)
        w.schedule("a", 0.15)
        w.schedule("a", 5.0)  # moved: must NOT pop at the old deadline
        assert w.due(1.0) == []
        assert w.due(5.0) == ["a"]
        assert len(w) == 0

    def test_infinite_due_cancels(self):
        w = DeadlineWheel(0.1)
        w.schedule("a", 0.15)
        w.schedule("a", math.inf)
        assert "a" not in w
        assert w.due(100.0) == []

    def test_cancel_unknown_is_noop(self):
        w = DeadlineWheel(0.1)
        w.cancel("ghost")
        assert len(w) == 0

    def test_past_due_schedules_pop_on_next_call(self):
        w = DeadlineWheel(0.1)
        w.schedule("a", 3.0)
        assert w.due(10.0) == ["a"]
        w.schedule("a", 3.0)  # bucket start long past "now"
        assert w.due(10.0) == ["a"]

    def test_bucket_start_never_later_than_deadline(self):
        # A node must be popped by the first call past its true deadline,
        # even when the deadline sits at the very end of a bucket.
        w = DeadlineWheel(0.05)
        w.schedule("a", 0.0999999)
        assert w.due(0.1) == ["a"]

    def test_granularity_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                DeadlineWheel(bad)


# --------------------------------------------------------------------- #
# flat-oracle parity under chaos schedules
# --------------------------------------------------------------------- #

FACTORIES = {
    "chen": lambda nid: ChenFD(0.1, window_size=8),
    "phi": lambda nid: PhiFD(2.0, window_size=8),
    "fixed": lambda nid: FixedTimeoutFD(0.3),
    "bertier": lambda nid: BertierFD(window_size=8),
    "quantile": lambda nid: QuantileFD(0.99, window_size=8),
    "ml": lambda nid: MLFD(2.0, window_size=8),
    "sfd": lambda nid: SFD(QoSRequirements(0.3, 2.0, 0.98), window_size=8),
}


def chaos_events(seed: int, *, nodes: int = 10, steps: int = 2500):
    """One time-ordered stream of heartbeats (with restarts, stale
    duplicates, silent spells) and interleaved queries."""
    rng = random.Random(seed)
    ids = [f"n{i:02d}" for i in range(nodes)]
    seqs = {nid: 0 for nid in ids}
    silent_until = {nid: 0.0 for nid in ids}
    t = 0.0
    events = []
    for _ in range(steps):
        t += rng.uniform(0.002, 0.02)
        nid = rng.choice(ids)
        r = rng.random()
        if r < 0.015:
            silent_until[nid] = t + rng.uniform(0.5, 2.0)  # crash spell
        elif r < 0.03:
            seqs[nid] = rng.randint(0, 2)  # restart: sequence far back
        if t >= silent_until[nid]:
            if rng.random() < 0.05 and seqs[nid] > 0:
                # stale / reordered duplicate
                events.append(
                    ("hb", nid, max(seqs[nid] - rng.randint(1, 6), 0), t)
                )
            else:
                events.append(("hb", nid, seqs[nid], t))
                seqs[nid] += 1
        if rng.random() < 0.06:
            kind = rng.choice(
                ["statuses", "summary", "select", "status_of", "expire"]
            )
            events.append(("query", kind, rng.choice(ids), t))
    return events


def run_parity(factory, seed: int, *, steps: int = 2500, batched: bool = False):
    """Feed the same chaos stream to both tables and compare everything.

    ``batched=True`` routes the table through ``heartbeat_batch`` (QoS
    accounting off, so its steady-state fast path engages) and flushes
    pending heartbeats before every query.
    """
    account = not batched
    flat_tr, table_tr = [], []
    flat = FlatMembershipTable(
        factory,
        account_qos=account,
        on_transition=lambda nid, old, new, at: flat_tr.append(
            (nid, old.value, new.value, at)
        ),
    )
    table = MembershipTable(
        factory,
        account_qos=account,
        granularity=0.01,
        on_transition=lambda nid, old, new, at: table_tr.append(
            (nid, old.value, new.value, at)
        ),
    )
    pending: list[tuple[str, int, float, None]] = []

    def flush():
        if pending:
            assert flat.heartbeat_batch(pending) == table.heartbeat_batch(pending)
            pending.clear()

    t = 0.0
    for ev in chaos_events(seed, steps=steps):
        if ev[0] == "hb":
            _, nid, seq, t = ev
            if batched:
                pending.append((nid, seq, t, None))
                continue
            a = flat.heartbeat(nid, seq, t)
            b = table.heartbeat(nid, seq, t)
            assert (a.heartbeats, a.restarts, a.stale_dropped) == (
                b.heartbeats,
                b.restarts,
                b.stale_dropped,
            )
        else:
            flush()
            _, kind, nid, t = ev
            if kind == "statuses":
                fa, tb = flat.statuses(t), table.statuses(t)
                assert fa == tb
                assert list(fa) == list(tb)  # iteration order too
            elif kind == "summary":
                assert flat.summary(t) == table.summary(t)
            elif kind == "select":
                for status in NodeStatus:
                    assert sorted(flat.select(t, status)) == sorted(
                        table.select(t, status)
                    )
            elif kind == "status_of":
                assert flat.status_of(nid, t) == table.status_of(nid, t)
                assert flat.status_of("ghost", t) is NodeStatus.UNKNOWN
                assert table.status_of("ghost", t) is NodeStatus.UNKNOWN
            else:  # expire
                assert flat.expire(t, silent_for=5.0) == table.expire(
                    t, silent_for=5.0
                )
    # Final full-state comparison.
    flush()
    end = t + 0.5
    assert flat.statuses(end) == table.statuses(end)
    assert flat.restarts == table.restarts
    for state in flat.nodes():
        twin = table.node(state.node_id)
        assert (
            state.heartbeats,
            state.last_seq,
            state.restarts,
            state.stale_dropped,
        ) == (twin.heartbeats, twin.last_seq, twin.restarts, twin.stale_dropped)
    # Same transitions at the same timestamps (ordering may differ across
    # nodes popped in the same advance).
    assert sorted(flat_tr) == sorted(table_tr)
    for state in flat.nodes():
        twin = table.node(state.node_id)
        try:
            fq = state.qos(end)
        except NotWarmedUpError:
            with pytest.raises(NotWarmedUpError):
                twin.qos(end)
            continue
        sq = twin.qos(end)
        assert (fq.detection_time, fq.mistake_rate, fq.query_accuracy) == (
            sq.detection_time,
            sq.mistake_rate,
            sq.query_accuracy,
        )


class TestFlatShardedParity:
    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_chaos_schedule_parity(self, family):
        run_parity(FACTORIES[family], seed=hash(family) % 1000)

    @pytest.mark.parametrize("seed", [7, 21])
    def test_parity_across_seeds(self, seed):
        run_parity(FACTORIES["phi"], seed=seed)

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_batched_fast_path_parity(self, family):
        """`heartbeat_batch` with QoS accounting off engages the fused
        steady-state fast path (inline linear-timeout lane for fixed /
        chen / bertier / quantile / ml — the learned detector overrides
        no suspicion hooks, so it qualifies — generic lane for phi /
        sfd); the table must still match the per-item flat oracle verdict
        under the same chaos schedule."""
        run_parity(FACTORIES[family], seed=1 + hash(family) % 997, batched=True)

    def test_query_clock_stepping_back_reads_latest_snapshot(self):
        """The one deliberate difference: snapshot queries at a time
        earlier than a previous query answer as of the latest advance,
        where the flat oracle re-classifies at the earlier time.  Point
        queries classify at the given time on both tables."""
        flat = FlatMembershipTable(FACTORIES["fixed"])
        table = MembershipTable(FACTORIES["fixed"])
        for tbl in (flat, table):
            for seq in range(4):
                tbl.heartbeat("a", seq, 0.1 * seq)  # FP = 0.3 + 0.3
            assert tbl.statuses(0.45) == {"a": NodeStatus.ACTIVE}
            assert tbl.statuses(5.0) == {"a": NodeStatus.SUSPECT}
        assert flat.statuses(0.45) == {"a": NodeStatus.ACTIVE}
        assert table.statuses(0.45) == {"a": NodeStatus.SUSPECT}
        assert table.summary(0.45)[NodeStatus.SUSPECT] == 1
        assert table.select(0.45, NodeStatus.SUSPECT) == ["a"]
        assert flat.status_of("a", 0.45) is NodeStatus.ACTIVE
        assert table.status_of("a", 0.45) is NodeStatus.ACTIVE


# --------------------------------------------------------------------- #
# wheel, snapshot and expiry-heap behaviour
# --------------------------------------------------------------------- #


class TestShardedTable:
    def test_advance_counts_and_hook(self):
        calls = []
        table = MembershipTable(
            lambda nid: FixedTimeoutFD(0.1),
            granularity=0.01,
            on_advance=lambda popped, changed: calls.append((popped, changed)),
        )
        for seq in range(3):
            table.heartbeat("a", seq, 0.1 * seq)
        assert table.statuses(0.25)["a"] is NodeStatus.ACTIVE
        # Past the freshness point: exactly one transition pops.
        changed = table.advance(1.0)
        assert changed == 1
        assert table.statuses(1.0)["a"] is NodeStatus.SUSPECT
        assert any(c == (1, 1) for c in calls)
        # SUSPECT is terminal for a binary detector: nothing left to pop.
        assert table.advance(2.0) == 0

    def test_heartbeat_batch_counts_accepted_only(self):
        table = MembershipTable(lambda nid: FixedTimeoutFD(0.1))
        batch = [
            ("a", 0, 0.0, None),
            ("a", 1, 0.1, None),
            ("b", 0, 0.1, None),
            ("a", 1, 0.15, None),  # duplicate: stale, not accepted
        ]
        assert table.heartbeat_batch(batch) == 3
        assert table.node("a").stale_dropped == 1

    def test_select_reads_index_sets(self):
        table = MembershipTable(lambda nid: FixedTimeoutFD(0.1))
        for nid in ("a", "b", "c"):
            for seq in range(3):
                table.heartbeat(nid, seq, 0.1 * seq)
        assert sorted(table.select(0.25, NodeStatus.ACTIVE)) == ["a", "b", "c"]
        table.heartbeat("c", 3, 5.0)  # a and b are long overdue now
        assert sorted(table.select(5.05, NodeStatus.SUSPECT)) == ["a", "b"]
        assert table.select(5.05, NodeStatus.ACTIVE) == ["c"]

    def test_remove_cleans_all_structures(self):
        table = MembershipTable(lambda nid: FixedTimeoutFD(0.1))
        for seq in range(3):
            table.heartbeat("a", seq, 0.1 * seq)
        table.remove("a")
        assert "a" not in table
        assert table.statuses(1.0) == {}
        assert table.summary(1.0)[NodeStatus.ACTIVE] == 0
        assert table.expire(100.0, silent_for=1.0) == []
        table.remove("a")  # idempotent

    def test_expire_refreshes_stale_heap_entries(self):
        table = MembershipTable(lambda nid: FixedTimeoutFD(0.1))
        table.heartbeat("a", 0, 0.0)  # heap entry pushed at arrival 0.0
        table.heartbeat("a", 1, 4.0)  # entry now out of date
        # Horizon past the *pushed* arrival but not the latest one: the
        # entry is refreshed, not evicted.
        assert table.expire(5.0, silent_for=2.0) == []
        assert "a" in table
        assert table.expire(10.0, silent_for=2.0) == ["a"]

    def test_expire_never_heartbeat_nodes_kept(self):
        table = MembershipTable(
            lambda nid: FixedTimeoutFD(0.1), auto_register=False
        )
        table.register("quiet")
        assert table.expire(100.0, silent_for=1.0) == []
        with pytest.raises(ConfigurationError):
            table.expire(1.0, silent_for=0.0)

    def test_transition_listeners_and_epoch(self):
        seen = []
        table = MembershipTable(lambda nid: FixedTimeoutFD(0.1))
        table.add_transition_listener(
            lambda nid, old, new, at: seen.append((nid, old, new))
        )
        e0 = table.epoch
        for seq in range(3):
            table.heartbeat("a", seq, 0.1 * seq)
        table.advance(5.0)
        assert ("a", NodeStatus.UNKNOWN, NodeStatus.ACTIVE) in seen
        assert ("a", NodeStatus.ACTIVE, NodeStatus.SUSPECT) in seen
        assert table.epoch > e0
        assert table.node("a").status_epoch == table.epoch

    def test_not_warmed_up_detectors_fall_back_to_always_set(self):
        # SFD cannot invert its curve until the slot logic warms up; the
        # node must still classify correctly on every query (flat cost).
        table = MembershipTable(
            lambda nid: SFD(QoSRequirements(0.3, 2.0, 0.98), window_size=8)
        )
        flat = FlatMembershipTable(
            lambda nid: SFD(QoSRequirements(0.3, 2.0, 0.98), window_size=8)
        )
        t = 0.0
        for seq in range(4):  # below window: not ready yet
            t = 0.1 * seq
            table.heartbeat("a", seq, t)
            flat.heartbeat("a", seq, t)
        assert table.statuses(t + 0.05) == flat.statuses(t + 0.05)


# --------------------------------------------------------------------- #
# batched listener
# --------------------------------------------------------------------- #


@pytest.fixture()
def run():
    def _run(coro):
        return asyncio.run(coro)

    return _run


async def _blast(address, payloads):
    loop = asyncio.get_running_loop()
    transport, _ = await loop.create_datagram_endpoint(
        asyncio.DatagramProtocol, remote_addr=address
    )
    for p in payloads:
        transport.sendto(p)
    await asyncio.sleep(0.1)
    transport.close()


class TestBatchedListener:
    def test_exactly_one_callback_required(self):
        with pytest.raises(TypeError):
            UDPHeartbeatListener()
        with pytest.raises(ConfigurationError):
            UDPHeartbeatListener(lambda batch: None, max_batch=0)

    def test_batch_path_delivers_all_with_per_datagram_stamps(self, run):
        async def main():
            batches = []
            listener = UDPHeartbeatListener(on_batch=batches.append)
            await listener.start()
            await _blast(
                listener.address,
                [pack_heartbeat("peer", seq, 100.0 + seq) for seq in range(20)],
            )
            await listener.stop()
            return batches

        batches = run(main())
        flat = [item for b in batches for item in b]
        assert [(nid, seq) for nid, seq, _, _ in flat] == [
            ("peer", s) for s in range(20)
        ]
        arrivals = [arr for _, _, arr, _ in flat]
        assert arrivals == sorted(arrivals)
        assert [st for _, _, _, st in flat] == [100.0 + s for s in range(20)]

    def test_malformed_flood_bulk_accounting(self, run):
        async def main():
            listener = UDPHeartbeatListener(
                on_batch=lambda b: None, malformed_limit=10
            )
            await listener.start()
            await _blast(listener.address, [b"garbage"] * 40)
            out = (listener.malformed, listener.malformed_suppressed)
            await listener.stop()
            return out

        malformed, suppressed = run(main())
        assert malformed == 10
        assert suppressed == 30

    def test_batch_callback_error_counted_once_per_batch(self, run):
        async def main():
            def boom(batch):
                raise RuntimeError("consumer bug")

            listener = UDPHeartbeatListener(on_batch=boom)
            await listener.start()
            await _blast(
                listener.address,
                [pack_heartbeat("peer", s, 0.0) for s in range(5)],
            )
            errors = listener.callback_errors
            await listener.stop()
            return errors

        errors = run(main())
        assert 1 <= errors <= 5  # once per drain, never once per datagram


# --------------------------------------------------------------------- #
# MonitorGroup epoch cache
# --------------------------------------------------------------------- #


def _fed_table(heartbeats_until: float, *, nodes=("a", "b")):
    table = MembershipTable(lambda nid: FixedTimeoutFD(0.1))
    t, seq = 0.0, 0
    while t <= heartbeats_until:
        for nid in nodes:
            table.heartbeat(nid, seq, t)
        seq += 1
        t += 0.1
    return table


class TestMonitorGroupCache:
    def test_cached_verdict_matches_fresh_aggregation(self):
        group = MonitorGroup()
        group.add_monitor("m1", _fed_table(1.0))
        group.add_monitor("m2", _fed_table(0.4))  # m2 stops hearing early
        v = group.verdict("a", now=1.05)
        assert v.observing == 2
        assert v.suspecting == 1  # only m2 timed out
        assert not v.crashed
        v2 = group.verdict("a", now=1.08)
        assert v2 is v  # cache hit: no epoch moved between the queries

    def test_transition_invalidates_cache(self):
        group = MonitorGroup()
        group.add_monitor("m1", _fed_table(1.0))
        group.add_monitor("m2", _fed_table(1.0))
        assert not group.verdict("a", now=1.05).crashed
        # Both monitors time out -> both transition -> cache must miss.
        v = group.verdict("a", now=3.0)
        assert v.crashed
        assert v.suspecting == 2

    def test_crashed_nodes_incremental_dirty_path(self):
        t1 = _fed_table(1.0, nodes=("a", "b", "c"))
        t2 = _fed_table(1.0, nodes=("a", "b", "c"))
        group = MonitorGroup()
        group.add_monitor("m1", t1)
        group.add_monitor("m2", t2)
        assert group.crashed_nodes(1.05) == []
        # Only "a" keeps beating; b and c go silent and cross the timeout.
        t, seq = 1.2, 20
        while t <= 3.2:
            t1.heartbeat("a", seq, t)
            t2.heartbeat("a", seq, t)
            seq += 1
            t += 0.1
        assert group.crashed_nodes(3.0) == ["b", "c"]
        # Next call re-judges only the dirty set (empty now) — roster kept.
        assert group.crashed_nodes(3.05) == ["b", "c"]

    def test_membership_shape_change_rebuilds_roster(self):
        t1 = _fed_table(1.0)
        group = MonitorGroup()
        group.add_monitor("m1", t1)
        assert group.crashed_nodes(3.0) == ["a", "b"]
        # A new silent-then-dead node registers without any transition the
        # dirty set could see... until its first classification.
        t2, seq = 3.1, 40
        while t2 <= 3.6:
            t1.heartbeat("late", seq, t2)
            seq += 1
            t2 += 0.1
        assert group.crashed_nodes(3.55) == ["a", "b"]
        assert group.crashed_nodes(9.0) == ["a", "b", "late"]

    def test_expiry_plus_registration_rebuilds_roster(self):
        """One expiry plus one registration keep every member's node
        count, so the roster must be rebuilt on membership changes, not
        on count changes."""
        table = MembershipTable(lambda nid: FixedTimeoutFD(0.1))
        for seq in range(5):
            table.heartbeat("x", seq, 0.1 * seq)
        group = MonitorGroup()
        group.add_monitor("m", table)
        assert group.crashed_nodes(2.0) == ["x"]
        assert table.expire(10.0, silent_for=5.0) == ["x"]
        table.heartbeat("y", 0, 10.0)
        v = group.verdict("x", 10.01)
        assert (v.observing, v.crashed) == (0, False)
        assert group.crashed_nodes(10.01) == []
