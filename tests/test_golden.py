"""Golden determinism regression: pinned QoS for every family, bit-exact.

``tests/data/golden_wan1.bin`` is a committed columnar trace (WAN-1,
n=4000, seed=2012; ~152 KB, under the repo-hygiene 1 MB cap) and
``golden_qos.json`` pins the exact QoS report of one representative spec
per registered detector family replayed over it (``qos``), and the QoS the
live plane measures for the same spec (``live_qos``: a membership table
with ``account_qos=True`` fed per heartbeat with sender stamps, snapshot
at the last arrival).  Equality here is
``==`` on every float field — not approx — so *any* numeric drift in a
kernel, the accounting, the synthesizer, or the columnar codec fails
tier-1 loudly instead of silently shifting the bench figures.

Intentional changes regenerate the pins with
``python tests/data/make_golden.py``; the JSON diff is the reviewable
blast radius.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import MembershipTable
from repro.detectors import registry
from repro.replay import replay
from repro.traces.columnar import TraceStore
from repro.traces.synth import synthesize
from repro.traces.wan import WAN_1

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = json.loads((DATA / "golden_qos.json").read_text())

QOS_FIELDS = (
    "detection_time",
    "mistake_rate",
    "query_accuracy",
    "mistakes",
    "mistake_time",
    "accounted_time",
    "samples",
)


@pytest.fixture(scope="module")
def golden_store() -> TraceStore:
    return TraceStore(DATA / GOLDEN["trace"])


def test_every_registered_family_is_pinned():
    # A new family must get a golden pin (rerun make_golden.py) so its
    # kernel is under the determinism regression from day one.
    assert set(GOLDEN["qos"]) == set(registry.names())


def test_every_registered_family_has_a_live_pin():
    # Same rule for the live plane: a new family's self-accounting is
    # pinned from day one.
    assert set(GOLDEN["live_qos"]) == set(registry.names())


def test_fixture_fingerprint_is_pinned(golden_store):
    # The committed bytes themselves: if the columnar file or the
    # fingerprint algorithm changes, every QoS pin below is suspect.
    assert golden_store.fingerprint() == GOLDEN["fingerprint"]


def test_synthesizer_still_reproduces_the_fixture(golden_store):
    # seed → trace determinism: re-synthesizing with the recorded
    # profile/n/seed must give back the committed arrays exactly.
    regen = synthesize(WAN_1, n=GOLDEN["n"], seed=GOLDEN["seed"])
    assert regen.monitor_view().fingerprint() == GOLDEN["fingerprint"]


@pytest.mark.parametrize("family", sorted(GOLDEN["qos"]))
def test_replayed_qos_matches_pin_exactly(golden_store, family):
    pin = GOLDEN["qos"][family]
    report = replay(registry.parse_spec(pin["spec"]), golden_store).qos
    for field in QOS_FIELDS:
        # Bit-exact: JSON round-trips float64 exactly (repr-based), so
        # `==` is the honest comparison.
        assert getattr(report, field) == pin[field], (family, field)


@pytest.mark.parametrize("family", sorted(GOLDEN["live_qos"]))
def test_table_accounted_qos_matches_pin_exactly(golden_store, family):
    pin = GOLDEN["live_qos"][family]
    view = golden_store.view()
    table = MembershipTable(pin["spec"], account_qos=True)
    for seq, arrival, send in zip(
        view.seq.tolist(), view.arrivals.tolist(), view.send_times.tolist()
    ):
        table.heartbeat("golden", seq, arrival, send)
    report = table.node("golden").qos(float(view.arrivals[-1]))
    for field in QOS_FIELDS:
        assert getattr(report, field) == pin[field], (family, field)
