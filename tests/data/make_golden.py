"""Regenerate the golden determinism fixture (`python tests/data/make_golden.py`).

Writes, next to this script:

* ``golden_wan1.bin`` — a small columnar trace (WAN-1 profile, n=4000,
  seed=2012, well under the 1 MB hygiene cap), and
* ``golden_qos.json`` — the exact QoS report of one representative spec
  per registered detector family replayed over it (``qos``), and the QoS
  the live plane measures for the same spec (``live_qos``): a
  :class:`~repro.cluster.MembershipTable` with ``account_qos=True`` fed
  the trace one heartbeat at a time with sender stamps, snapshot at the
  last arrival.

``tests/test_golden.py`` asserts byte/bit equality against these files,
so any numeric drift in a kernel, the synthesizer, or the columnar codec
fails tier-1 loudly.  Only rerun this script when such a change is
*intentional* — the diff in the JSON is then the reviewable blast radius.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.cluster import MembershipTable  # noqa: E402
from repro.detectors import registry  # noqa: E402
from repro.replay import replay  # noqa: E402
from repro.traces.columnar import TraceStore, write_columnar  # noqa: E402
from repro.traces.synth import synthesize  # noqa: E402
from repro.traces.wan import WAN_1  # noqa: E402

N = 4000
SEED = 2012  # the paper's year — as good a seed as any

# One representative spec per family.  Windows are small so warm-up costs
# little of the 4000-heartbeat trace; values sit mid-grid (neither the
# most aggressive nor the most conservative corner).
GOLDEN_SPECS = {
    "chen": "chen:alpha=0.1,window=100",
    "bertier": "bertier:window=100",
    "phi": "phi:threshold=4.0,window=100",
    "quantile": "quantile:quantile=0.99,window=100",
    "fixed": "fixed:timeout=0.5",
    "ml": "ml:margin=2.0,lr=0.05,window=16,decay=0.1",
    "sfd": "sfd:td=0.9,mr=0.35,qap=0.99,slot=100,sm1=0.1,window=100",
}

QOS_FIELDS = (
    "detection_time",
    "mistake_rate",
    "query_accuracy",
    "mistakes",
    "mistake_time",
    "accounted_time",
    "samples",
)


def table_qos(spec: str, store: TraceStore):
    """The table-accounted (live-plane) QoS of ``spec`` over ``store``."""
    view = store.view()
    table = MembershipTable(spec, account_qos=True)
    for seq, arrival, send in zip(
        view.seq.tolist(), view.arrivals.tolist(), view.send_times.tolist()
    ):
        table.heartbeat("golden", seq, arrival, send)
    return table.node("golden").qos(float(view.arrivals[-1]))


def main() -> None:
    missing = set(registry.names()) - set(GOLDEN_SPECS)
    if missing:
        raise SystemExit(f"no golden spec for families: {sorted(missing)}")

    trace = synthesize(WAN_1, n=N, seed=SEED)
    bin_path = HERE / "golden_wan1.bin"
    write_columnar(trace, bin_path)
    store = TraceStore(bin_path)

    qos = {}
    live_qos = {}
    for family, text in GOLDEN_SPECS.items():
        report = replay(registry.parse_spec(text), store).qos
        qos[family] = {"spec": text} | {
            f: getattr(report, f) for f in QOS_FIELDS
        }
        live = table_qos(text, store)
        live_qos[family] = {"spec": text} | {
            f: getattr(live, f) for f in QOS_FIELDS
        }

    payload = {
        "generator": "tests/data/make_golden.py",
        "trace": bin_path.name,
        "profile": "WAN-1",
        "n": N,
        "seed": SEED,
        "fingerprint": store.fingerprint(),
        "qos": qos,
        "live_qos": live_qos,
    }
    json_path = HERE / "golden_qos.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {bin_path} ({bin_path.stat().st_size} bytes)")
    print(f"wrote {json_path}")


if __name__ == "__main__":
    main()
