"""The columnar trace store: a zero-copy, memory-mapped on-disk format.

The paper's methodology is trace replay, so replay throughput bounds how
many (trace × family × grid) points the experiment engine can afford —
and at multi-million-heartbeat scale the *pipeline around* the vectorized
kernels dominates: compressed ``.npz`` loads decompress and copy every
array, and process-pool fan-out used to ship whole views to workers.
This module removes both costs with a versioned binary layout that
:func:`numpy.memmap` can serve directly:

``[ fixed header | aligned raw columns ... | JSON meta block ]``

* **Header** (40 bytes, little-endian): an 8-byte magic, a ``uint32``
  format version, a reserved ``uint32``, and three ``uint64`` fields —
  offset and length of the JSON meta block, and the total file size
  (so truncation is detected before numpy ever touches the bytes).
* **Columns**: raw little-endian ``float64``/``int64`` arrays, each
  aligned to a 64-byte boundary.  Both the full trace (``send_times``,
  ``delays`` with NaN marking losses) and the precomputed monitor view
  (``view_seq``, ``view_arrivals``, ``view_send_times``) are stored, so
  *loading a view is a pointer cast*, not a recomputation.
* **Meta block**: strict JSON carrying the trace name, user metadata,
  ``dropped_stale``, the column directory (name/dtype/offset/count) and
  an advisory view fingerprint.

Zero-copy contract: :meth:`TraceStore.view` returns a
:class:`~repro.traces.trace.MonitorView` whose arrays are read-only
views *into the mapped file* — no bytes are copied at load time, the OS
pages them in on first touch.  A store validates and maps one open
descriptor, never the path a second time, so what it serves is the file
it validated even if the path is replaced or unlinked meanwhile; that
descriptor's ``fstat`` is also the file identity
(:meth:`TraceStore.identity`) by which the sweep cache memoizes the
view's fingerprint.  Because
:meth:`~repro.traces.trace.MonitorView.fingerprint` hashes exactly those
raw bytes, a view loaded from a store fingerprints identically to the
in-memory view it was packed from — which is why warm
:class:`~repro.exp.cache.SweepCache` entries survive an npz → columnar
migration unchanged.

Writes are atomic (temp file in the target directory + ``os.replace``)
and chunked: :class:`ColumnarWriter` ingests ``(send_times, delays)``
slices into a preallocated, doubling buffer and streams columns to disk
in bounded chunks, so a crash mid-write can never leave a truncated
store behind.  Every malformed input — wrong magic, unknown version,
truncation, bad JSON, an out-of-bounds column — raises
:class:`~repro.errors.TraceFormatError`, never a numpy internal error.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import weakref
from pathlib import Path
from typing import Any, Mapping, NamedTuple

import numpy as np

from repro.errors import ConfigurationError, TraceFormatError
from repro.traces.trace import HeartbeatTrace, MonitorView

__all__ = [
    "COLUMNAR_MAGIC",
    "COLUMNAR_VERSION",
    "FileIdentity",
    "TraceStore",
    "ColumnarWriter",
    "write_columnar",
    "is_columnar",
    "load_view",
    "as_monitor_view",
]

#: First 8 bytes of every columnar store file.
COLUMNAR_MAGIC = b"RPROCOLT"

#: On-disk layout version; readers reject anything else.
COLUMNAR_VERSION = 1

#: Fixed header: magic, version, reserved, meta_off, meta_len, file_size.
_HEADER = struct.Struct("<8sIIQQQ")

#: Column start alignment (bytes) — cache-line sized, a multiple of every
#: element width, so memmap slices cast to f8/i8 without misalignment.
_ALIGN = 64

#: Default ingest/stream chunk, in elements (2 MiB of float64).
_DEFAULT_CHUNK = 1 << 18

#: The fixed column set of format version 1, in file order.
_TRACE_COLUMNS = ("send_times", "delays")
_VIEW_COLUMNS = ("view_seq", "view_arrivals", "view_send_times")
_DTYPES = {
    "send_times": "<f8",
    "delays": "<f8",
    "view_seq": "<i8",
    "view_arrivals": "<f8",
    "view_send_times": "<f8",
}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class FileIdentity(NamedTuple):
    """What ``fstat`` says of a file: any change to its bytes moves
    ``size``, ``mtime_ns`` or ``ctime_ns`` (git's index trusts the same)."""

    dev: int
    ino: int
    size: int
    mtime_ns: int
    ctime_ns: int


def _identity(st: os.stat_result) -> FileIdentity:
    return FileIdentity(
        st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns
    )


def is_columnar(path: str | Path) -> bool:
    """Whether ``path`` starts with the columnar store magic.

    Sniffs 8 bytes; never raises on short/unreadable files (returns
    False), so it is safe as a format dispatcher.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read(len(COLUMNAR_MAGIC)) == COLUMNAR_MAGIC
    except OSError:
        return False


def _write_array_chunked(fh, arr: np.ndarray, chunk: int) -> None:
    """Stream one contiguous array to ``fh`` in bounded-size chunks."""
    mv = memoryview(np.ascontiguousarray(arr)).cast("B")
    step = max(chunk, 1) * arr.dtype.itemsize
    for start in range(0, len(mv), step):
        fh.write(mv[start : start + step])


def write_columnar(
    trace: HeartbeatTrace,
    path: str | Path,
    *,
    chunk: int = _DEFAULT_CHUNK,
) -> Path:
    """Pack one trace (and its precomputed monitor view) into a store.

    The write is atomic: everything lands in a temp file next to
    ``path`` which is ``os.replace``d over the target only once complete
    — a crash mid-pack leaves any existing file untouched.
    """
    path = Path(path)
    view = trace.monitor_view()
    columns: dict[str, np.ndarray] = {
        "send_times": np.ascontiguousarray(trace.send_times, dtype=np.float64),
        "delays": np.ascontiguousarray(trace.delays, dtype=np.float64),
        "view_seq": np.ascontiguousarray(view.seq, dtype=np.int64),
        "view_arrivals": np.ascontiguousarray(view.arrivals, dtype=np.float64),
        "view_send_times": np.ascontiguousarray(view.send_times, dtype=np.float64),
    }
    directory = []
    offset = _align(_HEADER.size)
    for name in (*_TRACE_COLUMNS, *_VIEW_COLUMNS):
        arr = columns[name]
        directory.append(
            {
                "name": name,
                "dtype": _DTYPES[name],
                "offset": offset,
                "count": int(arr.size),
            }
        )
        offset = _align(offset + arr.nbytes)
    meta_off = offset
    meta_blob = json.dumps(
        {
            "name": trace.name,
            "meta": trace.meta,
            "total_sent": trace.total_sent,
            "dropped_stale": view.dropped_stale,
            "columns": directory,
            "fingerprint": view.fingerprint(),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    file_size = meta_off + len(meta_blob)
    header = _HEADER.pack(
        COLUMNAR_MAGIC, COLUMNAR_VERSION, 0, meta_off, len(meta_blob), file_size
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for entry in directory:
                fh.seek(entry["offset"])  # alignment gaps read back as zeros
                _write_array_chunked(fh, columns[entry["name"]], chunk)
            fh.seek(meta_off)
            fh.write(meta_blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class ColumnarWriter:
    """Atomic chunked ingest into one columnar store file.

    Usage::

        with ColumnarWriter("trace.bin", name="WAN-1", meta=meta) as w:
            for send_chunk, delay_chunk in generator:
                w.append(send_chunk, delay_chunk)
        # file exists, complete and validated, only after the with-block

    Chunks accumulate in a preallocated doubling buffer (two flat
    ``float64`` arrays — never one Python object per heartbeat); on close
    the assembled trace is validated through
    :class:`~repro.traces.trace.HeartbeatTrace`, its monitor view is
    computed once, vectorized, and everything streams to disk through
    :func:`write_columnar`'s temp-file + ``os.replace`` discipline.  An
    exception anywhere (bad chunk, validation failure, mid-write crash)
    leaves no target file behind.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        name: str = "trace",
        meta: Mapping[str, Any] | None = None,
        chunk: int = _DEFAULT_CHUNK,
    ):
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk!r}")
        self.path = Path(path)
        self.name = name
        self.meta = dict(meta or {})
        self._chunk = int(chunk)
        self._send = np.empty(self._chunk, dtype=np.float64)
        self._delays = np.empty(self._chunk, dtype=np.float64)
        self._n = 0
        self._closed = False
        #: The opened store, set by :meth:`close` (and so by a clean
        #: ``with``-block exit).
        self.store: TraceStore | None = None

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._send.size:
            return
        capacity = max(self._send.size * 2, need)
        for attr in ("_send", "_delays"):
            grown = np.empty(capacity, dtype=np.float64)
            grown[: self._n] = getattr(self, attr)[: self._n]
            setattr(self, attr, grown)

    def append(self, send_times: np.ndarray, delays: np.ndarray) -> None:
        """Ingest one ``(send_times, delays)`` slice (NaN delay = lost)."""
        if self._closed:
            raise ConfigurationError("writer is closed")
        send = np.asarray(send_times, dtype=np.float64)
        dl = np.asarray(delays, dtype=np.float64)
        if send.ndim != 1 or dl.ndim != 1 or send.shape != dl.shape:
            raise TraceFormatError(
                f"chunk arrays must be 1-D and aligned: "
                f"{send.shape} vs {dl.shape}"
            )
        self._reserve(send.size)
        self._send[self._n : self._n + send.size] = send
        self._delays[self._n : self._n + dl.size] = dl
        self._n += send.size

    def __len__(self) -> int:
        return self._n

    def close(self) -> "TraceStore":
        """Validate, pack, atomically publish; returns the opened store."""
        if self._closed:
            raise ConfigurationError("writer is closed")
        self._closed = True
        trace = HeartbeatTrace(
            send_times=self._send[: self._n],
            delays=self._delays[: self._n],
            name=self.name,
            meta=self.meta,
        )
        write_columnar(trace, self.path, chunk=self._chunk)
        self._send = self._delays = np.empty(0, dtype=np.float64)
        self.store = TraceStore(self.path)
        return self.store

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True  # abort: nothing was published


class TraceStore:
    """Memory-mapped reader over one columnar store file.

    Opening a store validates the header, the meta block and the size on
    one descriptor and keeps it: the columns are mapped lazily and
    *zero-copy* from that same descriptor, so a file replaced at (or
    removed from) :attr:`path` after opening never changes what the store
    serves.  :meth:`view` and :meth:`trace` return arrays that alias the
    file's pages (read-only), so "loading" a multi-million-heartbeat
    trace costs microseconds and no resident memory until the replay
    actually touches the bytes.

    Stores are cheap to pickle — ``__reduce__`` ships only the path and
    the file identity the store validated, and the receiving process
    re-opens its own mapping — which is how the experiment executors pass
    *trace paths* to pool workers instead of serializing whole views.
    Unpickling raises :class:`TraceFormatError` when the file now at the
    path is not that file (replaced, or changed in place), so a worker
    never replays other bytes under the original store's fingerprint.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        fh = open(self.path, "rb")  # FileNotFoundError propagates as-is
        try:
            st = os.fstat(fh.fileno())
            self._meta_block, self._columns = self._validate(fh, st.st_size)
        except BaseException:
            fh.close()
            raise
        # The store reads, maps and stats this one descriptor for its whole
        # life; it is closed when the store is collected.
        self._file = fh
        weakref.finalize(self, fh.close)
        self._identity = _identity(st)
        self._mm: np.ndarray | None = None
        self._view: MonitorView | None = None

    def _validate(self, fh, size: int) -> tuple[dict, dict[str, dict[str, int]]]:
        """Parse and check the header and meta block of an open file."""
        if size < _HEADER.size:
            raise TraceFormatError(
                f"{self.path}: too short ({size} bytes) for a columnar header"
            )
        raw = fh.read(_HEADER.size)
        magic, version, _reserved, meta_off, meta_len, file_size = (
            _HEADER.unpack(raw)
        )
        if magic != COLUMNAR_MAGIC:
            raise TraceFormatError(
                f"{self.path}: not a columnar trace store (bad magic)"
            )
        if version != COLUMNAR_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported columnar format version {version}"
            )
        if file_size != size:
            raise TraceFormatError(
                f"{self.path}: truncated or padded store "
                f"(header says {file_size} bytes, file has {size})"
            )
        if meta_off + meta_len > size or meta_off < _HEADER.size:
            raise TraceFormatError(
                f"{self.path}: meta block [{meta_off}, {meta_off + meta_len}) "
                f"outside the file"
            )
        fh.seek(meta_off)
        blob = fh.read(meta_len)
        try:
            meta = json.loads(blob.decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("meta block is not an object")
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt meta block: {exc}"
            ) from exc
        return meta, self._check_directory(meta, limit=meta_off)

    def _check_directory(
        self, meta: dict, *, limit: int
    ) -> dict[str, dict[str, int]]:
        directory = meta.get("columns")
        if not isinstance(directory, list):
            raise TraceFormatError(f"{self.path}: meta block lists no columns")
        columns: dict[str, dict[str, int]] = {}
        for entry in directory:
            try:
                name = entry["name"]
                dtype = entry["dtype"]
                offset = int(entry["offset"])
                count = int(entry["count"])
            except (TypeError, KeyError, ValueError) as exc:
                raise TraceFormatError(
                    f"{self.path}: malformed column entry {entry!r}"
                ) from exc
            if _DTYPES.get(name) != dtype:
                raise TraceFormatError(
                    f"{self.path}: column {name!r} has unexpected dtype {dtype!r}"
                )
            nbytes = count * np.dtype(dtype).itemsize
            if offset < _HEADER.size or offset % 8 or offset + nbytes > limit:
                raise TraceFormatError(
                    f"{self.path}: column {name!r} "
                    f"[{offset}, {offset + nbytes}) outside the data region"
                )
            columns[name] = {"offset": offset, "count": count, "dtype": dtype}
        missing = [
            c for c in (*_TRACE_COLUMNS, *_VIEW_COLUMNS) if c not in columns
        ]
        if missing:
            raise TraceFormatError(
                f"{self.path}: store is missing column(s) {', '.join(missing)}"
            )
        return columns

    # -- zero-copy access ------------------------------------------------ #

    def _map(self) -> np.ndarray:
        if self._mm is None:
            try:
                self._mm = np.memmap(
                    self._file, dtype=np.uint8, mode="r",
                    shape=(self._identity.size,),
                )
            except ValueError as exc:  # the file shrank in place
                raise TraceFormatError(
                    f"{self.path}: store changed after it was opened: {exc}"
                ) from exc
        return self._mm

    def column(self, name: str) -> np.ndarray:
        """One raw column as a read-only view into the mapped file."""
        try:
            spec = self._columns[name]
        except KeyError:
            raise TraceFormatError(
                f"{self.path}: no column {name!r}; "
                f"have {', '.join(self._columns)}"
            ) from None
        dtype = np.dtype(spec["dtype"])
        start = spec["offset"]
        stop = start + spec["count"] * dtype.itemsize
        return self._map()[start:stop].view(dtype)

    def view(self) -> MonitorView:
        """The precomputed monitor view, zero-copy (cached per store)."""
        if self._view is None:
            self._view = MonitorView(
                seq=self.column("view_seq"),
                arrivals=self.column("view_arrivals"),
                send_times=self.column("view_send_times"),
                dropped_stale=self.dropped_stale,
            )
        return self._view

    def trace(self) -> HeartbeatTrace:
        """The full trace over the mapped columns (arrays are read-only)."""
        return HeartbeatTrace(
            send_times=self.column("send_times"),
            delays=self.column("delays"),
            name=self.name,
            meta=dict(self.meta),
        )

    def fingerprint(self) -> str:
        """Content fingerprint of the stored view — computed from the
        mapped bytes, so it equals the in-memory view's digest exactly
        (the cache-migration stability guarantee)."""
        return self.view().fingerprint()

    def identity(self) -> FileIdentity | None:
        """``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)`` of the
        file this store validated and maps, or ``None`` once it changed.

        Read now from the store's own descriptor, never from :attr:`path`,
        so another file at ``path`` is never reported.  Any change to this
        file since the store opened it moves its ctime — a write in place,
        or losing its link when ``path`` is replaced or removed — and then
        no identity is returned: the layout parsed at open no longer
        vouches for the mapped bytes.  :class:`~repro.exp.cache.SweepCache`
        memoizes :meth:`fingerprint` by this identity.
        """
        now = _identity(os.fstat(self._file.fileno()))
        return now if now == self._identity else None

    # -- metadata -------------------------------------------------------- #

    @property
    def name(self) -> str:
        return str(self._meta_block.get("name", "trace"))

    @property
    def meta(self) -> dict:
        value = self._meta_block.get("meta", {})
        return dict(value) if isinstance(value, dict) else {}

    @property
    def total_sent(self) -> int:
        return self._columns["send_times"]["count"]

    @property
    def dropped_stale(self) -> int:
        return int(self._meta_block.get("dropped_stale", 0))

    @property
    def stored_fingerprint(self) -> str | None:
        """The fingerprint recorded at pack time (advisory; ``info`` only)."""
        value = self._meta_block.get("fingerprint")
        return str(value) if value is not None else None

    def info(self) -> dict[str, Any]:
        """Store facts for ``repro trace info`` and tooling."""
        received = self._columns["view_seq"]["count"] + self.dropped_stale
        return {
            "path": str(self.path),
            "format": "columnar",
            "version": COLUMNAR_VERSION,
            "file_bytes": self._identity.size,
            "name": self.name,
            "total_sent": self.total_sent,
            "total_received": received,
            "view_heartbeats": self._columns["view_seq"]["count"],
            "dropped_stale": self.dropped_stale,
            "fingerprint": self.stored_fingerprint,
            "columns": [
                {"name": name, **spec} for name, spec in self._columns.items()
            ],
            "meta": self.meta,
        }

    def __reduce__(self):
        return (_reopen, (str(self.path), tuple(self._identity)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceStore({str(self.path)!r}, heartbeats={self.total_sent})"


def _reopen(path: str, identity: tuple) -> TraceStore:
    """Pickle entry point: open ``path`` again, and only as the same file."""
    store = TraceStore(path)
    if store._identity != identity:
        raise TraceFormatError(
            f"{path}: not the file the store was pickled from "
            f"(file identity {tuple(store._identity)}, expected {identity})"
        )
    return store


def load_view(path: str | Path) -> MonitorView:
    """Monitor view of any trace file: zero-copy for columnar stores,
    via :meth:`HeartbeatTrace.load` + recompute for ``.npz``."""
    if is_columnar(path):
        return TraceStore(path).view()
    return HeartbeatTrace.load(path).monitor_view()


def as_monitor_view(source: Any) -> MonitorView:
    """Resolve every replayable source type to its monitor view.

    Accepts a :class:`MonitorView` (identity), a :class:`HeartbeatTrace`
    (view recomputed), a :class:`TraceStore` (zero-copy cached view), or
    a path to a columnar/npz trace file.  Anything else raises
    :class:`~repro.errors.ConfigurationError` — the uniform dispatch the
    replay engine and the executors build on.
    """
    if isinstance(source, MonitorView):
        return source
    if isinstance(source, HeartbeatTrace):
        return source.monitor_view()
    if isinstance(source, TraceStore):
        return source.view()
    if isinstance(source, (str, Path)):
        return load_view(source)
    raise ConfigurationError(f"cannot replay over {type(source).__name__}")
