"""The heartbeat trace container and its monitor-side view.

A :class:`HeartbeatTrace` records one experiment between a sender ``p`` and
a monitor ``q`` (Fig. 2): every heartbeat's send time (sender clock = the
global clock here), whether the channel delivered it, and the arrival time
at ``q`` (monitor clock).  Replays consume the :class:`MonitorView`, which
presents exactly what a UDP monitor would see: delivered heartbeats in
arrival order, with stale (overtaken) heartbeats dropped so sequence
numbers are strictly increasing — the precondition of every estimator's
window.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import TraceFormatError

__all__ = ["HeartbeatTrace", "MonitorView"]

_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class MonitorView:
    """What the monitor observed: strictly-increasing-sequence arrivals.

    Attributes
    ----------
    seq:
        Sequence numbers of the processed heartbeats (strictly increasing).
    arrivals:
        Their arrival times on the monitor's clock (non-decreasing —
        arrival order is how they were processed).
    send_times:
        Sender timestamps carried in the heartbeats ("used only for
        statistics", Section V — and for the TD proxy in replay).
    dropped_stale:
        Number of delivered heartbeats discarded because a later-sequence
        heartbeat had already been processed (channel reordering).
    """

    seq: np.ndarray
    arrivals: np.ndarray
    send_times: np.ndarray
    dropped_stale: int = 0

    def __len__(self) -> int:
        return int(self.seq.size)

    def __reduce__(self):
        # Explicit so views pickle identically on every supported Python
        # (frozen slotted dataclasses only gained default pickling support
        # in 3.11); the parallel sweep executor ships views to spawned
        # workers on platforms without fork.
        return (
            MonitorView,
            (self.seq, self.arrivals, self.send_times, self.dropped_stale),
        )

    def fingerprint(self) -> str:
        """Stable content hash of everything a replay consumes.

        sha256 over the three arrays (dtype + length + raw bytes, in a
        fixed order) plus ``dropped_stale``.  Two views fingerprint
        identically iff every replay over them is bit-identical, which is
        what keys the sweep result cache (:mod:`repro.exp.cache`): any
        change to the trace — one arrival nudged, one heartbeat added —
        yields a different digest and therefore a cache miss.
        """
        h = hashlib.sha256(b"repro.MonitorView/1")
        for name, arr in (
            ("seq", self.seq),
            ("arrivals", self.arrivals),
            ("send_times", self.send_times),
        ):
            a = np.ascontiguousarray(arr)
            h.update(f"|{name}:{a.dtype.str}:{a.size}|".encode("ascii"))
            # memoryview, not tobytes(): hashing a multi-million-element
            # memmap-backed column must not materialize a copy of it.
            h.update(memoryview(a).cast("B"))
        h.update(f"|dropped_stale:{self.dropped_stale}|".encode("ascii"))
        return h.hexdigest()


@dataclass
class HeartbeatTrace:
    """Full record of one heartbeat experiment.

    Attributes
    ----------
    send_times:
        Global-clock send times of *all* heartbeats, strictly increasing;
        the heartbeat's sequence number is its index.
    delays:
        One-way delays, seconds; ``NaN`` where the message was lost.
    name:
        Trace/profile identifier (e.g. ``"WAN-1"``).
    meta:
        Free-form metadata (target interval, RTT, hosts, seed, …) carried
        into reports; values must be JSON-serializable.
    """

    send_times: np.ndarray
    delays: np.ndarray
    name: str = "trace"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.send_times = np.asarray(self.send_times, dtype=np.float64)
        self.delays = np.asarray(self.delays, dtype=np.float64)
        if self.send_times.ndim != 1 or self.delays.ndim != 1:
            raise TraceFormatError("send_times and delays must be 1-D")
        if self.send_times.shape != self.delays.shape:
            raise TraceFormatError(
                f"send_times ({self.send_times.shape}) and delays "
                f"({self.delays.shape}) must align"
            )
        if self.send_times.size >= 2 and not np.all(np.diff(self.send_times) > 0):
            raise TraceFormatError("send_times must be strictly increasing")
        with np.errstate(invalid="ignore"):
            if np.any(self.delays < 0):
                raise TraceFormatError("delays must be >= 0 (NaN marks losses)")

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def total_sent(self) -> int:
        return int(self.send_times.size)

    @property
    def delivered_mask(self) -> np.ndarray:
        return ~np.isnan(self.delays)

    @property
    def total_received(self) -> int:
        return int(self.delivered_mask.sum())

    @property
    def loss_rate(self) -> float:
        if self.total_sent == 0:
            return 0.0
        return 1.0 - self.total_received / self.total_sent

    @property
    def duration(self) -> float:
        """Span of the sending process, seconds."""
        if self.total_sent < 2:
            return 0.0
        return float(self.send_times[-1] - self.send_times[0])

    def arrival_times(self) -> np.ndarray:
        """Arrival times of delivered heartbeats, in *send* order."""
        m = self.delivered_mask
        return self.send_times[m] + self.delays[m]

    # ------------------------------------------------------------------ #
    # monitor view
    # ------------------------------------------------------------------ #

    def monitor_view(self) -> MonitorView:
        """Delivered heartbeats as the monitor processes them.

        Heartbeats are sorted by arrival time; any heartbeat overtaken by a
        higher-sequence one (possible when delay jitter exceeds the sending
        interval) is dropped as stale, leaving strictly increasing
        sequences over non-decreasing arrivals.
        """
        m = self.delivered_mask
        seq = np.nonzero(m)[0].astype(np.int64)
        arrivals = self.send_times[m] + self.delays[m]
        if arrivals.size == 0 or np.all(arrivals[1:] >= arrivals[:-1]):
            # Fast path: no reordering occurred (common with correlated
            # delays) — skip the argsort on multi-million-element traces.
            seq_o, arr_o = seq, arrivals
        else:
            order = np.argsort(arrivals, kind="stable")
            seq_o = seq[order]
            arr_o = arrivals[order]
        # Keep the running-maximum front of sequence numbers.
        keep = seq_o >= np.maximum.accumulate(seq_o)
        dropped = int(keep.size - keep.sum())
        seq_k = seq_o[keep]
        arr_k = arr_o[keep]
        return MonitorView(
            seq=seq_k,
            arrivals=arr_k,
            send_times=self.send_times[seq_k],
            dropped_stale=dropped,
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str | Path, *, format: str | None = None) -> None:
        """Serialize the trace atomically.

        ``format`` selects ``"npz"`` (compressed arrays + embedded JSON
        metadata) or ``"columnar"`` (the memory-mapped store of
        :mod:`repro.traces.columnar`); ``None`` picks columnar for a
        ``.bin`` suffix and npz otherwise.  Either way the bytes land in
        a temp file first and are published with ``os.replace`` — same
        discipline as ``RUN_PROGRESS.json`` — so a crash mid-save cannot
        leave a truncated file behind.
        """
        path = Path(path)
        if format is None:
            format = "columnar" if path.suffix == ".bin" else "npz"
        if format == "columnar":
            from repro.traces.columnar import write_columnar

            write_columnar(self, path)
            return
        if format != "npz":
            raise TraceFormatError(
                f"unknown trace format {format!r} (expected 'npz' or 'columnar')"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            # Hand savez an open file object: with a *name* it would
            # append ".npz" to the temp path and break the replace.
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(
                    fh,
                    format_version=np.int64(_FORMAT_VERSION),
                    send_times=self.send_times,
                    delays=self.delays,
                    name=np.bytes_(self.name.encode("utf-8")),
                    meta=np.bytes_(json.dumps(self.meta).encode("utf-8")),
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str | Path) -> "HeartbeatTrace":
        """Load a trace file, sniffing the format by content.

        Columnar stores (see :mod:`repro.traces.columnar`) open zero-copy
        via :class:`~repro.traces.columnar.TraceStore`; anything else is
        read as npz.  Every malformed input raises
        :class:`~repro.errors.TraceFormatError` — numpy/zipfile internals
        never leak to the caller.
        """
        from repro.traces.columnar import TraceStore, is_columnar

        path = Path(path)
        if is_columnar(path):
            return TraceStore(path).trace()
        try:
            with path.open("rb") as fh, np.load(fh) as z:
                version = int(z["format_version"])
                if version != _FORMAT_VERSION:
                    raise TraceFormatError(
                        f"unsupported trace format version {version}"
                    )
                return cls(
                    send_times=z["send_times"],
                    delays=z["delays"],
                    name=bytes(z["name"]).decode("utf-8"),
                    meta=json.loads(bytes(z["meta"]).decode("utf-8")),
                )
        except KeyError as exc:
            raise TraceFormatError(f"trace file {path} missing field {exc}") from exc
        except FileNotFoundError:
            raise
        except TraceFormatError:
            raise
        except Exception as exc:
            raise TraceFormatError(f"trace file {path} is corrupt: {exc}") from exc

    def to_csv(self, path: str | Path) -> None:
        """Write ``seq,send_time,arrival_time`` rows (arrival empty = lost).

        The interchange format of the original experiments' log files: one
        row per sent heartbeat, receiver timestamps where delivered.
        """
        path = Path(path)
        with path.open("w", encoding="ascii") as fh:
            fh.write("seq,send_time,arrival_time\n")
            for i in range(self.total_sent):
                d = float(self.delays[i])
                send = float(self.send_times[i])
                arr = "" if math.isnan(d) else repr(send + d)
                fh.write(f"{i},{send!r},{arr}\n")

    @classmethod
    def from_csv(
        cls, path: str | Path, *, name: str = "csv-trace", meta: dict | None = None
    ) -> "HeartbeatTrace":
        """Parse the :meth:`to_csv` format (or any equivalent export)."""
        path = Path(path)
        sends: list[float] = []
        delays: list[float] = []
        with path.open("r", encoding="ascii") as fh:
            header = fh.readline().strip().lower()
            if header.split(",")[:3] != ["seq", "send_time", "arrival_time"]:
                raise TraceFormatError(
                    f"unexpected CSV header {header!r} in {path}"
                )
            expected = 0
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise TraceFormatError(
                        f"{path}:{lineno}: expected 3 fields, got {len(parts)}"
                    )
                try:
                    seq = int(parts[0])
                    send = float(parts[1])
                    arrival = float(parts[2]) if parts[2] else None
                except ValueError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
                if seq != expected:
                    raise TraceFormatError(
                        f"{path}:{lineno}: sequence jump (got {seq}, "
                        f"expected {expected}) — export every sent heartbeat"
                    )
                expected += 1
                sends.append(send)
                delays.append(
                    float("nan") if arrival is None else arrival - send
                )
        return cls(
            send_times=np.asarray(sends),
            delays=np.asarray(delays),
            name=name,
            meta=dict(meta or {}),
        )

    def slice(self, start: int, stop: int) -> "HeartbeatTrace":
        """Sub-trace over send indices ``[start, stop)`` (metadata kept)."""
        return HeartbeatTrace(
            send_times=self.send_times[start:stop].copy(),
            delays=self.delays[start:stop].copy(),
            name=self.name,
            meta=dict(self.meta),
        )
