"""Shared fixtures and helpers for the test suite.

The central helper is :func:`stream_freshness`, which replays a
:class:`~repro.traces.trace.MonitorView` through a *streaming* detector and
collects its freshness points — the semantic reference the vectorized
engine is checked against throughout the suite.

Seeded synthetic traces come from the session-scoped ``trace_factory`` /
``view_factory`` fixtures: one builder keyed on ``(kind, n, seed)`` —
``kind`` is ``"jittered"`` or a WAN profile name — with results cached
for the session, so test modules stop hand-rolling near-identical
builders and identical requests don't re-synthesize.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.traces.synth import synthesize
from repro.traces.trace import HeartbeatTrace, MonitorView
from repro.traces.wan import WAN_1, WAN_JAIST


def stream_freshness(detector, view: MonitorView) -> np.ndarray:
    """Feed a view through a streaming detector; NaN before warm-up."""
    out = np.full(len(view), np.nan)
    for i, (s, a, st) in enumerate(
        zip(view.seq, view.arrivals, view.send_times)
    ):
        detector.observe(int(s), float(a), float(st))
        if detector.ready:
            out[i] = detector.freshness_point()
    return out


def regular_view(
    n: int = 200, interval: float = 0.1, delay: float = 0.02, start: float = 0.0
) -> MonitorView:
    """Perfectly regular heartbeats: send every ``interval``, constant delay."""
    send = start + interval * np.arange(n)
    return MonitorView(
        seq=np.arange(n, dtype=np.int64),
        arrivals=send + delay,
        send_times=send,
    )


def outlast_timestamps(path: Path) -> None:
    """Wait until a file written now would be stamped later than ``path``.

    On many kernels a file's mtime and ctime come from a clock that ticks
    every few milliseconds, so two writes within one tick share a stamp.
    Tests whose outcome rests on a timestamp comparison (the fingerprint
    memo's racy-clean rule) settle here first.  The probe is written next
    to ``path``, on the same filesystem and so the same clock.
    """
    st = os.stat(path)
    last = max(st.st_mtime_ns, st.st_ctime_ns)
    probe = path.with_name(path.name + ".probe")
    deadline = time.monotonic() + 10.0
    try:
        while True:
            probe.write_bytes(b"")
            if os.stat(probe).st_mtime_ns > last:
                return
            assert time.monotonic() < deadline, "filesystem clock stands still"
            time.sleep(0.001)
    finally:
        probe.unlink(missing_ok=True)


def jittered_trace(n: int = 4000, seed: int = 0) -> HeartbeatTrace:
    """A small noisy trace (losses + jitter) for cross-checks."""
    rng = np.random.default_rng(seed)
    send = np.cumsum(rng.gamma(25.0, 0.004, size=n))
    delays = 0.01 + rng.lognormal(-5.0, 0.6, size=n)
    lost = rng.random(n) < 0.02
    delays[lost] = np.nan
    return HeartbeatTrace(send_times=send, delays=delays, name="jittered")


@pytest.fixture(scope="session")
def trace_factory():
    """Session-cached builder of seeded synthetic traces.

    ``trace_factory(kind, n=..., seed=...)`` returns a
    :class:`HeartbeatTrace` — ``kind`` is ``"jittered"`` (the small noisy
    cross-check trace above) or a WAN profile name (``"WAN-1"``,
    ``"WAN-JAIST"``, …).  Same arguments → the very same object, so
    treat the result as read-only.
    """
    from repro.traces import ALL_PROFILES, LAN_REFERENCE

    profiles = {p.name: p for p in (*ALL_PROFILES, LAN_REFERENCE)}
    built: dict[tuple[str, int, int], HeartbeatTrace] = {}

    def factory(kind: str, *, n: int, seed: int) -> HeartbeatTrace:
        key = (kind, int(n), int(seed))
        if key not in built:
            if kind == "jittered":
                built[key] = jittered_trace(n=n, seed=seed)
            elif kind in profiles:
                built[key] = synthesize(profiles[kind], n=n, seed=seed)
            else:
                raise ValueError(
                    f"unknown trace kind {kind!r}; "
                    f"use 'jittered' or one of {', '.join(profiles)}"
                )
        return built[key]

    return factory


@pytest.fixture(scope="session")
def view_factory(trace_factory):
    """Like ``trace_factory`` but returns the (cached) monitor view."""
    built: dict[tuple[str, int, int], MonitorView] = {}

    def factory(kind: str, *, n: int, seed: int) -> MonitorView:
        key = (kind, int(n), int(seed))
        if key not in built:
            built[key] = trace_factory(kind, n=n, seed=seed).monitor_view()
        return built[key]

    return factory


@pytest.fixture(scope="session")
def wan1_trace(trace_factory) -> HeartbeatTrace:
    return trace_factory(WAN_1.name, n=30_000, seed=11)


@pytest.fixture(scope="session")
def wan1_view(wan1_trace) -> MonitorView:
    return wan1_trace.monitor_view()


@pytest.fixture(scope="session")
def jaist_trace(trace_factory) -> HeartbeatTrace:
    return trace_factory(WAN_JAIST.name, n=25_000, seed=13)


@pytest.fixture(scope="session")
def jaist_view(jaist_trace) -> MonitorView:
    return jaist_trace.monitor_view()


@pytest.fixture()
def small_view(view_factory) -> MonitorView:
    return view_factory("jittered", n=3000, seed=5)
