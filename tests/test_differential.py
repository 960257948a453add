"""Differential harness: streaming detectors vs. vectorized kernels, in QoS.

The sweep cache (:mod:`repro.exp.cache`) stores *QoS reports* produced by
the vectorized replay kernels and serves them in place of re-execution —
so its correctness rests on the kernels computing the same QoS a real
streaming monitor would.  The per-family replay tests check freshness
arrays; this module closes the loop at the level that is actually cached:
for **every** registered detector family, seeded synthetic traces are
replayed both ways —

* streaming: the family's real :class:`FailureDetector` fed heartbeat by
  heartbeat (:func:`conftest.stream_freshness`), its freshness points run
  through the engine's own accounting (:func:`repro.replay.engine._account`),
* vectorized: :func:`repro.replay.replay` over the same view —

and the two :class:`~repro.qos.spec.QoSReport`\\ s must agree point for
point at every grid value: identical mistake/sample counts, and float
fields equal to within accumulation noise (``inf``/``nan`` must match
exactly — the φ cutoff region is part of the contract).

A completeness guard fails when a new family is registered without a
differential case, so the harness stays exhaustive by construction.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from repro.cluster import MembershipTable
from repro.detectors import registry
from repro.qos.spec import QoSRequirements
from repro.replay import replay
from repro.replay.engine import _account
from repro.sim.engine import Simulator
from repro.sim.process import Heartbeat, MonitorProcess
from repro.traces.columnar import TraceStore, write_columnar

from conftest import stream_freshness  # noqa: E402

REQ = QoSRequirements(
    max_detection_time=0.8, max_mistake_rate=0.3, min_query_accuracy=0.98
)

# One case per registered family: (grid values, fixed spec params).
# Grids deliberately span aggressive → conservative, including φ's
# infinite-detection cutoff region (threshold 18).  The parametrization
# below iterates ``registry.names()`` — NOT this dict's keys — so a newly
# registered family is pulled into the harness automatically and fails
# loudly (via :func:`differential_case`) until it gets a case here.
DIFFERENTIAL_CASES = {
    "chen": ((0.01, 0.1, 0.5), {"window": 100}),
    "bertier": ((0.0,), {"window": 100}),
    "phi": ((1.0, 4.0, 18.0), {"window": 100}),
    "quantile": ((0.9, 0.99), {"window": 100}),
    "fixed": ((0.1, 0.5), {}),
    "ml": ((0.0, 2.0, 8.0), {"window": 16}),
    "sfd": ((0.01, 0.1, 0.9), {"requirements": REQ, "window": 100}),
}

FAMILIES = sorted(registry.names())


def differential_case(family: str):
    """Grid + params for a family; a registered family without a case is
    a harness hole, reported as a failure (not a KeyError)."""
    try:
        return DIFFERENTIAL_CASES[family]
    except KeyError:
        pytest.fail(
            f"registered family {family!r} has no DIFFERENTIAL_CASES entry; "
            "the streaming-vs-vectorized harness must stay exhaustive"
        )

# Two different seeded workloads: the small noisy cross-check trace and a
# calibrated WAN profile (losses, jitter, reordering).
VIEWS = [("jittered", 3000, 42), ("WAN-JAIST", 4000, 7)]


def assert_qos_equivalent(streamed, vectorized, family: str):
    """Point-for-point equivalence of two QoS reports.

    Counts must be identical; float fields agree to accumulation noise,
    with non-finite values (φ's cutoff) required to match exactly.
    """
    assert streamed.mistakes == vectorized.mistakes, family
    assert streamed.samples == vectorized.samples, family
    for field in (
        "detection_time",
        "mistake_rate",
        "query_accuracy",
        "mistake_time",
        "accounted_time",
    ):
        a = getattr(streamed, field)
        b = getattr(vectorized, field)
        if math.isnan(a) or math.isnan(b):
            assert math.isnan(a) and math.isnan(b), (family, field)
        elif math.isinf(a) or math.isinf(b):
            assert a == b, (family, field)
        else:
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9), (family, field)


def test_every_registered_family_has_a_case():
    # New families must add a differential case or this harness is no
    # longer the exhaustive equivalence check the cache relies on.  Both
    # directions matter: a missing case is a hole, a stale case is a
    # family that was renamed or removed without cleaning up here.
    assert set(registry.names()) == set(DIFFERENTIAL_CASES)


@pytest.mark.parametrize("kind,n,seed", VIEWS, ids=[v[0] for v in VIEWS])
@pytest.mark.parametrize("family", FAMILIES)
def test_streaming_and_vectorized_qos_agree(
    view_factory, family, kind, n, seed
):
    view = view_factory(kind, n=n, seed=seed)
    fam = registry.get(family)
    grid, params = differential_case(family)
    for value in grid:
        spec = fam.grid_spec(float(value), **params)
        r0 = max(spec.window, 2) - 1

        fp = stream_freshness(fam.build(spec), view)
        # The engine's warm-up convention: the streaming detector must be
        # ready from received index window − 1 on (fixed: index 1).
        assert not np.isnan(fp[r0:]).any(), (family, value)
        streamed = _account(view, fp, r0)

        vectorized = replay(spec, view).qos
        assert_qos_equivalent(streamed, vectorized, f"{family}@{value}")


# --------------------------------------------------------------------- #
# cross-plane: every streaming host's self-accounting ≡ replay
# --------------------------------------------------------------------- #
#
# SFD tunes against QoS it measures itself, while the paper's figures come
# from replay().  Every streaming host accounts through one rule
# (repro.qos.metrics.account_arrival); these cases pin that rule, as each
# host runs it, to the offline accounting — φ's infinite freshness points
# included.


def _host_reports(build, view) -> list:
    """One view through every streaming host that self-accounts; each
    host's report is taken at the last arrival."""
    rows = list(
        zip(
            view.seq.tolist(),
            view.arrivals.tolist(),
            view.send_times.tolist(),
        )
    )
    last = rows[-1][1]
    reports = []

    table = MembershipTable(lambda _node: build(), account_qos=True)
    for seq, arrival, send in rows:
        table.heartbeat("n", seq, arrival, send)
    reports.append(table.node("n").qos(last))

    batched = MembershipTable(lambda _node: build(), account_qos=True)
    batched.heartbeat_batch([("n", seq, a, s) for seq, a, s in rows])
    reports.append(batched.node("n").qos(last))

    sim = Simulator()
    monitor = MonitorProcess(sim, build())
    for seq, arrival, send in rows:
        sim.schedule_at(arrival, partial(monitor.deliver, Heartbeat(seq, send)))
    sim.run()
    reports.append(monitor.finish().qos)

    own = build()
    if hasattr(own, "qos_snapshot"):
        for seq, arrival, send in rows:
            own.observe(seq, arrival, send)
        reports.append(own.qos_snapshot(last))
    return reports


@pytest.mark.parametrize("kind,n,seed", VIEWS, ids=[v[0] for v in VIEWS])
@pytest.mark.parametrize("family", FAMILIES)
def test_streaming_hosts_account_like_replay(
    view_factory, family, kind, n, seed
):
    view = view_factory(kind, n=n, seed=seed)
    fam = registry.get(family)
    grid, params = differential_case(family)
    for value in grid:
        spec = fam.grid_spec(float(value), **params)
        reports = _host_reports(partial(fam.build, spec), view)
        # The hosts run the same rule on the same floats: equal, not close.
        assert all(r == reports[0] for r in reports), (family, value)
        assert_qos_equivalent(
            reports[0], replay(spec, view).qos, f"{family}@{value}"
        )


# --------------------------------------------------------------------- #
# columnar ↔ npz round-trip equivalence
# --------------------------------------------------------------------- #
#
# The columnar store claims its memory-mapped MonitorView is *the same
# view* the in-memory path produces — same arrays, same fingerprint, and
# therefore the same cached QoS.  These tests pin that claim differential
# style, over both seeded workloads and every registered family.


@pytest.mark.parametrize("kind,n,seed", VIEWS, ids=[v[0] for v in VIEWS])
def test_columnar_roundtrip_view_and_fingerprint(
    trace_factory, tmp_path, kind, n, seed
):
    trace = trace_factory(kind, n=n, seed=seed)
    direct = trace.monitor_view()

    npz_path = tmp_path / "t.npz"
    bin_path = tmp_path / "t.bin"
    trace.save(npz_path)
    write_columnar(trace, bin_path)

    store = TraceStore(bin_path)
    mapped = store.view()
    for field in ("seq", "arrivals", "send_times"):
        a = getattr(direct, field)
        b = getattr(mapped, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert direct.dropped_stale == mapped.dropped_stale

    # Fingerprint stability is the cache-migration guarantee: warm
    # SweepCache entries keyed on the npz-era fingerprint must stay warm
    # after `repro trace pack`.
    assert direct.fingerprint() == mapped.fingerprint() == store.fingerprint()

    from repro.traces.trace import HeartbeatTrace

    via_npz = HeartbeatTrace.load(npz_path).monitor_view()
    assert via_npz.fingerprint() == mapped.fingerprint()


@pytest.mark.parametrize("kind,n,seed", VIEWS, ids=[v[0] for v in VIEWS])
@pytest.mark.parametrize("family", FAMILIES)
def test_columnar_qos_bit_identical_to_npz(
    trace_factory, tmp_path, family, kind, n, seed
):
    trace = trace_factory(kind, n=n, seed=seed)
    bin_path = tmp_path / "t.bin"
    write_columnar(trace, bin_path)
    store = TraceStore(bin_path)

    fam = registry.get(family)
    grid, params = differential_case(family)
    for value in grid:
        spec = fam.grid_spec(float(value), **params)
        in_memory = replay(spec, trace.monitor_view()).qos
        mapped = replay(spec, store).qos
        # Bit-identical, not approx: both paths run the same kernel over
        # byte-identical arrays.
        assert in_memory == mapped, (family, value)
