"""Content-addressed sweep result cache: replay only what changed.

Section V's evaluation replays the same heartbeat logs at many grid
points, and iterating on a plan — adding one grid value, tweaking one
spec — re-executes every job even though almost nothing changed.  This
module makes repeated runs incremental: each executed
:class:`~repro.qos.spec.QoSReport` is stored under a content-addressed
key and replayed results are *loaded* instead of recomputed whenever the
inputs are bit-identical.

The key is a sha256 over everything that determines a replay's output:

* the :meth:`~repro.traces.trace.MonitorView.fingerprint` of the view
  (sha256 of its arrays plus metadata — any trace change misses),
* the detector family name,
* the spec's full ``to_dict`` mapping (canonical JSON — any parameter
  change misses),
* :data:`CACHE_FORMAT` (bumping it orphans every old entry at once).

Entries are one strict-JSON file each (``QOS_<key>.json``) next to the
``CURVE_*.json`` archives, plus an advisory ``manifest.json`` describing
what each key holds.  The store is *corruption-tolerant by construction*:
entries are self-describing and re-verified on load, so an unreadable,
truncated, or mismatched file — or a manifest from a different format
version — degrades to a cache miss and is rewritten on the next run,
never a crash.  Writes are atomic (temp file + ``os.replace``), so a
killed run cannot leave a half-written entry that poisons later runs.

Once every job hits, hashing the view is most of a warm run, so a
cache object also memoizes the fingerprint of each columnar
:class:`~repro.traces.columnar.TraceStore` it has hashed, by file
identity ``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)`` as
git's index does, recorded under git's racy-clean rule
(:meth:`SweepCache.fingerprint`).  The memo lives in memory: a rerun
through the same object reads no column byte, and a new process hashes
once.  It changes no key, and in-memory views never consult it.
"""

from __future__ import annotations

import json
import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.exp.archive import qos_from_dict, qos_to_dict
from repro.qos.spec import QoSReport
from repro.traces.columnar import FileIdentity, TraceStore
from repro.traces.trace import MonitorView

__all__ = ["CACHE_FORMAT", "CacheStats", "SweepCache"]

#: Version of the on-disk entry layout.  Part of every key, so bumping it
#: invalidates (orphans) every previously stored entry without touching
#: the files; stale-format entries that somehow land on a current key are
#: additionally rejected at load time.
CACHE_FORMAT = 1

_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting of one plan run (or one cache's lifetime).

    ``invalid`` counts misses caused by an entry that *existed* but could
    not be used (unreadable, truncated, wrong format, mismatched key) —
    a subset of ``misses``.
    """

    hits: int = 0
    misses: int = 0
    invalid: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    def __str__(self) -> str:
        text = f"{self.hits} hit(s), {self.misses} miss(es)"
        return f"{text}, {self.invalid} invalid" if self.invalid else text


class SweepCache:
    """A directory of content-addressed ``QOS_<sha256>.json`` entries.

    Usage::

        cache = SweepCache("curves/cache")
        result = plan.run(executor, cache=cache)   # loads hits, stores misses
        print(result.cache)                        # per-run CacheStats

    The cache never decides *what* to run — :meth:`ExperimentPlan.run
    <repro.exp.plan.ExperimentPlan.run>` partitions its jobs into hits
    (loaded here, zero replay) and misses (executed, then stored here).
    Cumulative counters live on :attr:`hits` / :attr:`misses` /
    :attr:`invalid` / :attr:`stored`; per-run numbers are reported by the
    plan on its :class:`~repro.exp.plan.PlanResult`.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.invalid = 0
        self.stored = 0
        self._new_entries: dict[str, dict[str, Any]] = {}
        self._fingerprints: dict[FileIdentity, str] = {}

    # -- keying --------------------------------------------------------- #

    def key(self, view_fingerprint: str, family: str, spec: Any) -> str:
        """Content-addressed key of one (view, family, spec) replay."""
        payload = json.dumps(
            {
                "format": CACHE_FORMAT,
                "view": view_fingerprint,
                "family": family,
                "spec": spec.to_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,  # enums/Paths in third-party specs stay keyable
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path(self, key: str) -> Path:
        return self.directory / f"QOS_{key}.json"

    # -- view fingerprints (memoized for columnar stores) --------------- #

    def fingerprint(self, source: MonitorView | TraceStore) -> str:
        """The view fingerprint that keys ``source``'s jobs.

        A :class:`~repro.traces.columnar.TraceStore` whose file identity
        (:meth:`~repro.traces.columnar.TraceStore.identity`) this cache
        has recorded gets the digest back without a column byte read.
        Anything else hashes as before: a store file this object has not
        recorded, a store whose file changed since it opened, and every
        in-memory view.  A store that is hashed is recorded under git's
        racy-clean rule (:meth:`_remember`).  Memo lookups are not
        counted in :attr:`hits`/:attr:`misses`.
        """
        identity = source.identity() if isinstance(source, TraceStore) else None
        if identity is None:
            return source.fingerprint()
        known = self._fingerprints.get(identity)
        return known if known is not None else self._remember(source)

    def _remember(self, store: TraceStore) -> str:
        """Hash ``store`` and record the digest under its identity.

        The racy-clean rule of git's index: take a filesystem timestamp,
        read the store's identity, hash, and record the digest only if
        the store's mtime and ctime are both strictly older than that
        timestamp.  Any write to the file after the timestamp then gives
        it another identity — no user-space call sets ctime — so a
        recorded digest never outlives the bytes it describes.
        """
        stamp = self._clock()
        identity = store.identity()
        fingerprint = store.fingerprint()
        if (
            stamp is not None
            and identity is not None
            and identity.mtime_ns < stamp
            and identity.ctime_ns < stamp
        ):
            self._fingerprints[identity] = fingerprint
        return fingerprint

    def _clock(self) -> int | None:
        """The filesystem's time now: the mtime of a fresh temp file in
        the cache directory, or ``None`` when it cannot be written to
        (which costs the memo, never the run)."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                return os.fstat(fd).st_mtime_ns
            finally:
                os.close(fd)
                os.unlink(tmp)
        except OSError:
            return None

    # -- load (hit or miss, never a crash) ------------------------------ #

    def load(self, key: str) -> QoSReport | None:
        """The cached report under ``key``, or ``None`` (a miss).

        Any defect — missing file, unparseable JSON, wrong format
        version, a key/field mismatch, a corrupt QoS payload — is treated
        as a miss (and counted in :attr:`invalid` when the file existed),
        so a damaged cache only ever costs a re-replay.
        """
        path = self.path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            data = json.loads(raw)
            if not isinstance(data, Mapping):
                raise ValueError("entry is not an object")
            if data.get("format") != CACHE_FORMAT:
                raise ValueError(f"stale cache format {data.get('format')!r}")
            if data.get("key") != key:
                raise ValueError("entry key mismatch")
            qos = qos_from_dict(data["qos"])
        except Exception:
            # Unreadable or lying entry: miss, and the next store under
            # this key atomically rewrites the file.
            self.misses += 1
            self.invalid += 1
            return None
        self.hits += 1
        return qos

    # -- store ---------------------------------------------------------- #

    def store(
        self,
        key: str,
        qos: QoSReport,
        *,
        meta: Mapping[str, Any] | None = None,
    ) -> Path:
        """Atomically persist one executed report under ``key``.

        ``meta`` (trace/sweep names, the parameter, the spec string …) is
        stored alongside for humans and the manifest; it never affects
        keying or loading.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            **dict(meta or {}),
            "qos": qos_to_dict(qos),
        }
        path = self.path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)  # atomic on POSIX: no torn entries
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stored += 1
        self._new_entries[key] = {
            k: v for k, v in entry.items() if k not in ("format", "qos")
        }
        return path

    # -- manifest (advisory, versioned, corruption-tolerant) ------------ #

    def write_manifest(self) -> Path | None:
        """Merge newly stored entries into ``manifest.json``.

        The manifest is documentation, not a load-bearing index — entries
        are self-describing and verified individually — so a corrupt or
        stale-format manifest is simply rebuilt from the entries recorded
        this run.  Returns the path written, or ``None`` when this run
        stored nothing.
        """
        if not self._new_entries:
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / _MANIFEST
        entries: dict[str, Any] = {}
        try:
            data = json.loads(path.read_text())
            if isinstance(data, Mapping) and data.get("format") == CACHE_FORMAT:
                existing = data.get("entries")
                if isinstance(existing, Mapping):
                    entries.update(existing)
        except Exception:
            pass  # absent/corrupt/stale manifest: start over
        entries.update(self._new_entries)
        self._new_entries = {}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(
                    json.dumps(
                        {"format": CACHE_FORMAT, "entries": entries},
                        indent=2,
                        sort_keys=True,
                    )
                    + "\n"
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
