"""Section II-B (text) — the heartbeat interval's "nominal range".

"Muller [38] indicates that Δt is little determined by QoS requirements on
several different networks, but much by the characteristics of the
underlying system, and the work in [30] suggests that there exists some
nominal range for the parameter Δt with little or no impact on the
accuracy of the FD in every network."

This bench sweeps the sending interval Δt over JAIST-like traces (same
delay/loss models, same duration, only the heartbeat period changes) and
measures, for each Δt, the accuracy Chen FD achieves at a *matched*
detection time (TD ≈ 0.5 s).  Chen's TD is exactly TD(0) + α, so two
replays per interval invert it: one at α = 0 reads TD(0), one at the
inverted α reads the QoS.  Assertions: across the nominal range
(Δt ∈ [50 ms, 200 ms]) the achievable QAP at that detection time varies by
well under one percentage point — the interval is a systems choice, not a
QoS knob — while Δt = 400 ms demonstrates the range's *boundary*: the
interval alone consumes the detection budget (TD floor ≈ delay + Δt
exceeds the 0.5 s target), which is the sense in which Δt is "determined
by the characteristics of the underlying system".
"""

import dataclasses

import numpy as np

from repro.analysis.report import format_table
from repro.replay import ChenSpec, replay
from repro.traces import WAN_JAIST, synthesize

from _common import SEED, emit

INTERVALS = (0.05, 0.1, 0.2, 0.4)
TD_TARGET = 0.5
DURATION = 2500.0  # seconds of equivalent experiment per interval


def profile_with_interval(dt: float):
    return dataclasses.replace(
        WAN_JAIST,
        name=f"JAIST-dt{int(dt * 1000)}ms",
        send_mean=dt + (WAN_JAIST.send_mean - WAN_JAIST.send_base),
        send_base=dt,
        n_heartbeats=max(int(DURATION / dt), 20_000),
    )


def run():
    out = {}
    for dt in INTERVALS:
        prof = profile_with_interval(dt)
        trace = synthesize(prof, n=prof.n_heartbeats, seed=SEED)
        view = trace.monitor_view()
        # Invert TD(alpha) = TD(0) + alpha at the matched target.
        td_base = replay(ChenSpec(alpha=0.0, window=500), view).qos.detection_time
        alpha = max(TD_TARGET - td_base, 1e-6)
        out[dt] = (alpha, replay(ChenSpec(alpha=alpha, window=500), view).qos)
    return out


def test_heartbeat_interval_nominal_range(benchmark):
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for dt, (alpha, q) in out.items():
        rows.append(
            {
                "interval [ms]": int(dt * 1000),
                "alpha @TD=0.5s": f"{alpha:.4f}",
                "TD [s]": f"{q.detection_time:.4f}",
                "MR [1/s]": f"{q.mistake_rate:.5g}",
                "QAP [%]": f"{q.query_accuracy * 100:.4f}",
            }
        )
    emit(
        "heartbeat_interval",
        format_table(
            rows,
            title="Heartbeat-interval nominal range "
            "(Chen FD at matched TD=0.5s, Section II-B / Muller [38])",
        ),
    )
    nominal = [out[dt][1] for dt in (0.05, 0.1, 0.2)]
    qaps = np.array([q.query_accuracy for q in nominal])
    # Matched-TD detection times really are matched inside the range.
    for q in nominal:
        assert abs(q.detection_time - TD_TARGET) < 0.02
    # "Little or no impact on the accuracy" across the nominal range.
    assert qaps.max() - qaps.min() < 0.01
    # The boundary: at 400 ms the interval alone consumes the TD budget
    # (alpha inverted to ~0 and the floor overshoots the target).
    alpha_400, q_400 = out[0.4]
    assert alpha_400 < 1e-3
    assert q_400.detection_time > TD_TARGET
    assert q_400.query_accuracy < qaps.min()
