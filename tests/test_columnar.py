"""The columnar trace store: format, atomicity, zero-copy, cache stability.

What the store *is* — layout round-trips, corrupt files rejected as
:class:`TraceFormatError` — and what it *guarantees* to the layers above:

* views served off the mapping are byte-identical to in-memory ones
  (fingerprint stability: warm ``SweepCache`` entries survive an
  npz → columnar migration),
* writes are atomic (a failing save never clobbers the existing file),
* a store serves the file it validated, read and mapped through one
  descriptor, even after its path is replaced or unlinked,
* a :class:`TraceStore` pickles as its path and file identity, so
  process pools ship ~200 bytes per worker instead of megabyte views,
  with serial ≡ parallel bit-identity intact, and a worker unpickling it
  after the file at that path was replaced or changed gets
  :class:`TraceFormatError`, never the other file's heartbeats.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.exp.cache import SweepCache
from repro.exp.executors import ProcessPoolExecutor, SerialExecutor
from repro.exp.plan import ExperimentPlan
from repro.exp.policy import FailurePolicy
from repro.obs import Instruments
from repro.replay import replay
from repro.replay.engine import ChenSpec
from repro.traces import (
    HeartbeatTrace,
    ColumnarWriter,
    TraceStore,
    WAN_JAIST,
    as_monitor_view,
    is_columnar,
    load_view,
    synthesize,
    synthesize_to,
    write_columnar,
)
from repro.traces.columnar import _HEADER, COLUMNAR_MAGIC

from conftest import outlast_timestamps


@pytest.fixture(scope="module")
def wan_trace():
    return synthesize(WAN_JAIST, n=4000, seed=7)


@pytest.fixture()
def store(wan_trace, tmp_path):
    return write_columnar(wan_trace, tmp_path / "t.bin") and TraceStore(
        tmp_path / "t.bin"
    )


# --------------------------------------------------------------------- #
# format round-trip
# --------------------------------------------------------------------- #


def test_roundtrip_trace_and_meta(wan_trace, store):
    loaded = store.trace()
    assert np.array_equal(loaded.send_times, wan_trace.send_times)
    assert np.array_equal(loaded.delays, wan_trace.delays, equal_nan=True)
    assert loaded.name == wan_trace.name
    assert loaded.meta == wan_trace.meta
    assert store.total_sent == wan_trace.total_sent


def test_magic_sniffing(wan_trace, tmp_path):
    npz, bin_ = tmp_path / "t.npz", tmp_path / "t.bin"
    wan_trace.save(npz)
    write_columnar(wan_trace, bin_)
    assert is_columnar(bin_) and not is_columnar(npz)
    assert not is_columnar(tmp_path / "missing.bin")
    # Detection is by content, not suffix: HeartbeatTrace.load dispatches
    # on the magic, so a columnar file under any name loads fine.
    odd = tmp_path / "t.npz.actually-columnar"
    write_columnar(wan_trace, odd)
    assert np.array_equal(
        HeartbeatTrace.load(odd).send_times, wan_trace.send_times
    )


def test_save_suffix_dispatch(wan_trace, tmp_path):
    wan_trace.save(tmp_path / "a.bin")
    assert is_columnar(tmp_path / "a.bin")
    wan_trace.save(tmp_path / "a.npz")
    assert not is_columnar(tmp_path / "a.npz")
    wan_trace.save(tmp_path / "b.dat", format="columnar")
    assert is_columnar(tmp_path / "b.dat")
    with pytest.raises(TraceFormatError, match="unknown trace format"):
        wan_trace.save(tmp_path / "c.bin", format="parquet")


def test_load_view_both_formats(wan_trace, tmp_path):
    direct = wan_trace.monitor_view()
    wan_trace.save(tmp_path / "t.npz")
    write_columnar(wan_trace, tmp_path / "t.bin")
    assert load_view(tmp_path / "t.npz").fingerprint() == direct.fingerprint()
    assert load_view(tmp_path / "t.bin").fingerprint() == direct.fingerprint()


def test_as_monitor_view_rejects_junk():
    with pytest.raises(ConfigurationError, match="cannot replay over int"):
        as_monitor_view(42)


# --------------------------------------------------------------------- #
# zero-copy contract
# --------------------------------------------------------------------- #


def test_view_is_memmap_backed_and_readonly(store):
    view = store.view()
    for arr in (view.seq, view.arrivals, view.send_times):
        assert isinstance(arr.base, np.memmap) or isinstance(
            getattr(arr.base, "base", None), np.memmap
        ), "view arrays must alias the mapped file, not copies"
        assert not arr.flags.writeable
    # Cached: repeated access maps once.
    assert store.view() is view


def test_replay_accepts_store_and_path(wan_trace, store):
    spec = ChenSpec(alpha=0.1, window=100)
    baseline = replay(spec, wan_trace.monitor_view()).qos
    assert replay(spec, store).qos == baseline
    assert replay(spec, str(store.path)).qos == baseline
    assert replay(spec, store.path).qos == baseline


def test_store_pickles_as_path(store):
    blob = pickle.dumps(store)
    assert len(blob) < 512, "store must pickle as its path, not its arrays"
    clone = pickle.loads(blob)
    assert clone.fingerprint() == store.fingerprint()


def _replace_with_another_store(path, *, n, seed):
    """``os.replace`` ``path`` with a freshly written store (new inode)."""
    other = path.with_name("other.bin")
    write_columnar(synthesize(WAN_JAIST, n=n, seed=seed), other)
    os.replace(other, path)


def test_unchanged_store_round_trips_through_pickle(tmp_path):
    path = tmp_path / "t.bin"
    write_columnar(synthesize(WAN_JAIST, n=20_000, seed=31), path)
    store = TraceStore(path)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.identity() == store.identity()
    _assert_same_view(clone.view(), store.view())


def test_unpickling_a_replaced_store_raises(tmp_path):
    # What a spawn pool worker does with its view table: the file at the
    # path is no longer the file the store validated and fingerprinted.
    path = tmp_path / "t.bin"
    write_columnar(synthesize(WAN_JAIST, n=20_000, seed=31), path)
    blob = pickle.dumps(TraceStore(path))
    _replace_with_another_store(path, n=20_000, seed=32)
    with pytest.raises(TraceFormatError, match=re.escape(str(path))):
        pickle.loads(blob)


def test_unpickling_a_view_table_after_replacement_raises(tmp_path):
    path = tmp_path / "t.bin"
    write_columnar(synthesize(WAN_JAIST, n=20_000, seed=31), path)
    plan = ExperimentPlan().add_trace("t", TraceStore(path))
    blob = pickle.dumps(plan.views)  # a spawn pool's initializer argument
    _replace_with_another_store(path, n=20_000, seed=32)
    with pytest.raises(TraceFormatError, match="not the file the store was pickled from"):
        pickle.loads(blob)


def test_spawn_pool_fails_only_the_jobs_over_a_replaced_store(tmp_path):
    """The file is replaced after the plan fingerprinted its store and
    before a ``spawn`` pool starts: every job over that store fails with
    :class:`TraceFormatError` as its own traceback, nothing is stored
    under its key, no pool breaks, and the plan's other trace completes."""
    moved = tmp_path / "moved.bin"
    write_columnar(synthesize(WAN_JAIST, n=20_000, seed=31), moved)
    kept = synthesize(WAN_JAIST, n=20_000, seed=33).monitor_view()
    fingerprint = TraceStore(moved).fingerprint()

    class SpawnPool(ProcessPoolExecutor):
        def _inline_ok(self):
            return False

        def _make_pool(self, capacity, ctx, views):
            if views["moved"].identity() is not None:
                _replace_with_another_store(moved, n=20_000, seed=32)
            spawn = multiprocessing.get_context("spawn")
            return super()._make_pool(capacity, spawn, views)

    plan = ExperimentPlan().add_trace("moved", TraceStore(moved))
    plan.add_trace("kept", kept)
    for name in ("moved", "kept"):
        plan.add_sweep(name, "chen", (0.1, 0.2), window=100)
    cache = SweepCache(tmp_path / "cache")
    ins = Instruments()
    result = plan.run(
        SpawnPool(jobs=2),
        cache=cache,
        policy=FailurePolicy(mode="continue", max_retries=0),
        instruments=ins,
    )
    failed = {f.job.index: f for f in result.failures}
    over_moved = [job for job in plan.jobs() if job.trace == "moved"]
    assert sorted(failed) == [job.index for job in over_moved]
    for job in over_moved:
        assert failed[job.index].kind == "error"
        assert "TraceFormatError" in failed[job.index].traceback
        assert "not the file the store was pickled from" in failed[job.index].traceback
        assert cache.load(cache.key(fingerprint, job.family, job.spec)) is None
    assert ins.exp_respawns.labels("crash").get() == 0.0
    assert [p.qos for p in result.curve("kept", "chen").points] == [
        replay(ChenSpec(alpha=a, window=100), kept).qos for a in (0.1, 0.2)
    ]


def test_unpickling_a_store_changed_in_place_raises(wan_trace, tmp_path):
    path = tmp_path / "t.bin"
    write_columnar(wan_trace, path)
    blob = pickle.dumps(TraceStore(path))
    outlast_timestamps(path)
    with open(path, "r+b") as fh:  # the same bytes written in place
        fh.write(COLUMNAR_MAGIC)
    with pytest.raises(TraceFormatError, match=re.escape(str(path))):
        pickle.loads(blob)


# --------------------------------------------------------------------- #
# chunked writer
# --------------------------------------------------------------------- #


def test_writer_chunked_equals_one_shot(wan_trace, tmp_path):
    one_shot = tmp_path / "one.bin"
    chunked = tmp_path / "chunked.bin"
    write_columnar(wan_trace, one_shot)
    with ColumnarWriter(
        chunked, name=wan_trace.name, meta=wan_trace.meta, chunk=257
    ) as w:
        for i in range(0, wan_trace.total_sent, 257):
            w.append(
                wan_trace.send_times[i : i + 257], wan_trace.delays[i : i + 257]
            )
    assert w.store is not None
    assert one_shot.read_bytes() == chunked.read_bytes(), (
        "chunked ingest must be bit-identical to a one-shot pack"
    )


def test_synthesize_to_matches_in_memory_path(tmp_path):
    trace = synthesize(WAN_JAIST, n=3000, seed=11)
    store = synthesize_to(WAN_JAIST, tmp_path / "s.bin", n=3000, seed=11)
    assert store.fingerprint() == trace.monitor_view().fingerprint()
    assert store.meta == trace.meta


def test_writer_rejects_bad_chunks(tmp_path):
    w = ColumnarWriter(tmp_path / "w.bin")
    with pytest.raises(TraceFormatError, match="1-D and aligned"):
        w.append(np.zeros(3), np.zeros(4))
    w.append([0.0, 1.0], [0.01, np.nan])
    assert len(w) == 2
    w.close()
    with pytest.raises(ConfigurationError, match="closed"):
        w.append([2.0], [0.01])


def test_writer_aborts_cleanly_on_invalid_data(tmp_path):
    target = tmp_path / "w.bin"
    with pytest.raises(TraceFormatError, match="strictly increasing"):
        with ColumnarWriter(target) as w:
            w.append([0.0, 1.0], [0.01, 0.01])
            w.append([0.5], [0.01])  # send time goes backwards
    assert not target.exists(), "a failed ingest must not publish a file"


# --------------------------------------------------------------------- #
# atomicity
# --------------------------------------------------------------------- #


def test_npz_save_is_atomic(wan_trace, tmp_path, monkeypatch):
    target = tmp_path / "t.npz"
    wan_trace.save(target)
    before = target.read_bytes()

    def boom(*a, **k):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", boom)
    with pytest.raises(OSError, match="disk full"):
        wan_trace.save(target)
    assert target.read_bytes() == before, "failed save clobbered the file"
    assert list(tmp_path.glob("*.tmp")) == [], "temp file left behind"


def test_columnar_save_is_atomic(wan_trace, tmp_path, monkeypatch):
    target = tmp_path / "t.bin"
    write_columnar(wan_trace, target)
    before = target.read_bytes()

    import repro.traces.columnar as columnar

    def boom(fh, arr, chunk):
        raise OSError("disk full")

    monkeypatch.setattr(columnar, "_write_array_chunked", boom)
    with pytest.raises(OSError, match="disk full"):
        write_columnar(wan_trace, target)
    assert target.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


# --------------------------------------------------------------------- #
# corruption → TraceFormatError, never numpy internals
# --------------------------------------------------------------------- #


def _corrupt(path, offset, payload):
    data = bytearray(path.read_bytes())
    data[offset : offset + len(payload)] = payload
    path.write_bytes(bytes(data))


def test_corrupt_columnar_files_raise_trace_format_error(wan_trace, tmp_path):
    good = tmp_path / "good.bin"
    write_columnar(wan_trace, good)
    raw = good.read_bytes()

    cases = {
        "empty": b"",
        "short": raw[: _HEADER.size - 8],
        "bad magic": b"XXXXXXXX" + raw[8:],
        "bad version": raw[:8] + (99).to_bytes(4, "little") + raw[12:],
        "truncated": raw[: len(raw) // 2],
        "padded": raw + b"\0" * 100,
        "garbage meta": raw[: len(raw) - 40] + b"\xff" * 40,
    }
    for label, blob in cases.items():
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        if label in ("empty", "short"):
            # Too short even for the magic: not columnar, and not npz
            # either — HeartbeatTrace.load must still wrap the error.
            with pytest.raises(TraceFormatError):
                HeartbeatTrace.load(bad)
            continue
        with pytest.raises(TraceFormatError, match=r"bad\.bin"):
            TraceStore(bad)


def test_out_of_bounds_column_rejected(wan_trace, tmp_path):
    import json
    import struct

    path = tmp_path / "t.bin"
    write_columnar(wan_trace, path)
    raw = bytearray(path.read_bytes())
    magic, version, res, meta_off, meta_len, size = _HEADER.unpack_from(raw)
    meta = json.loads(raw[meta_off : meta_off + meta_len].decode())
    meta["columns"][0]["offset"] = size  # points past the data region
    blob = json.dumps(meta).encode()
    raw = raw[:meta_off] + blob
    header = _HEADER.pack(
        COLUMNAR_MAGIC, version, res, meta_off, len(blob), meta_off + len(blob)
    )
    raw[: _HEADER.size] = header
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="outside the data region"):
        TraceStore(path)


def test_corrupt_npz_raises_trace_format_error(tmp_path):
    bad = tmp_path / "t.npz"
    bad.write_bytes(b"PK\x03\x04 this is not really a zip file")
    with pytest.raises(TraceFormatError, match="corrupt"):
        HeartbeatTrace.load(bad)


def test_missing_file_still_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        HeartbeatTrace.load(tmp_path / "nope.npz")
    with pytest.raises(FileNotFoundError):
        TraceStore(tmp_path / "nope.bin")


# --------------------------------------------------------------------- #
# one descriptor: a store serves the file it validated
# --------------------------------------------------------------------- #


def _assert_same_view(view, expected):
    assert len(view) == len(expected)
    assert np.array_equal(view.seq, expected.seq)
    assert np.array_equal(view.arrivals, expected.arrivals)
    assert np.array_equal(view.send_times, expected.send_times)
    assert view.dropped_stale == expected.dropped_stale


@pytest.mark.parametrize("opened_n, replaced_n", [(20_000, 40_000), (40_000, 20_000)])
def test_store_serves_the_file_it_validated_after_replacement(
    tmp_path, opened_n, replaced_n
):
    opened = synthesize(WAN_JAIST, n=opened_n, seed=21)
    path = tmp_path / "t.bin"
    write_columnar(opened, path)
    store = TraceStore(path)
    write_columnar(synthesize(WAN_JAIST, n=replaced_n, seed=22), path)
    _assert_same_view(store.view(), opened.monitor_view())
    assert store.fingerprint() == opened.monitor_view().fingerprint()
    assert store.info()["file_bytes"] != os.path.getsize(path)


def test_store_serves_its_view_after_unlink(wan_trace, tmp_path):
    path = tmp_path / "t.bin"
    write_columnar(wan_trace, path)
    store = TraceStore(path)
    os.unlink(path)
    _assert_same_view(store.view(), wan_trace.monitor_view())
    assert store.identity() is None  # the unlink moved the file's ctime


def test_identity_is_the_validated_files_until_it_changes(wan_trace, tmp_path):
    path = tmp_path / "t.bin"
    write_columnar(wan_trace, path)
    store = TraceStore(path)
    st = os.stat(path)
    identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    assert store.identity() == identity
    write_columnar(wan_trace, path)  # same bytes, another file at the path
    fresh = TraceStore(path)
    assert fresh.identity()[1] == os.stat(path).st_ino != st.st_ino
    assert store.identity() is None  # losing its link moved the old ctime
    outlast_timestamps(path)
    with open(path, "r+b") as fh:  # the same bytes written in place
        fh.write(COLUMNAR_MAGIC)
    assert fresh.identity() is None


# --------------------------------------------------------------------- #
# cache-fingerprint stability across the format migration
# --------------------------------------------------------------------- #


def test_warm_cache_survives_npz_to_columnar_migration(wan_trace, tmp_path):
    npz = tmp_path / "t.npz"
    wan_trace.save(npz)
    cache = SweepCache(tmp_path / "cache")
    grid = (0.05, 0.1, 0.5)

    def run(source_view):
        plan = ExperimentPlan()
        plan.add_trace("wan", source_view)
        plan.add_sweep("wan", "chen", grid, window=100)
        return plan.run(SerialExecutor(), cache=cache)

    cold = run(HeartbeatTrace.load(npz).monitor_view())
    assert cold.cache.misses == len(grid)

    # Migrate the trace file; warm entries must all hit.
    bin_ = tmp_path / "t.bin"
    write_columnar(HeartbeatTrace.load(npz), bin_)
    warm = run(TraceStore(bin_))
    assert warm.cache.hits == len(grid)
    assert warm.cache.misses == 0
    assert warm.curve("wan", "chen").points == cold.curve("wan", "chen").points


# --------------------------------------------------------------------- #
# path-based pool dispatch: serial ≡ parallel on a store-backed plan
# --------------------------------------------------------------------- #


def _store_plan(store):
    plan = ExperimentPlan()
    plan.add_trace("wan", store)
    plan.add_sweep("wan", "chen", (0.05, 0.5), window=100)
    plan.add_sweep("wan", "phi", (1.0, 8.0), window=100)
    return plan


def test_serial_parallel_bit_identity_with_store(store):
    serial = _store_plan(store).run(SerialExecutor())
    parallel = _store_plan(store).run(ProcessPoolExecutor(jobs=2))
    for fam in ("chen", "phi"):
        assert (
            serial.curve("wan", fam).points == parallel.curve("wan", fam).points
        )


def test_plan_accepts_store_path(store):
    plan = ExperimentPlan()
    plan.add_trace("wan", str(store.path))
    assert isinstance(plan.views["wan"], TraceStore)
    plan.add_sweep("wan", "chen", (0.1,), window=100)
    result = plan.run(SerialExecutor())
    assert result.curve("wan", "chen").points


def test_plan_rejects_junk_source():
    plan = ExperimentPlan()
    with pytest.raises(ConfigurationError, match="cannot replay over"):
        plan.add_trace("bad", object())


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_trace_pack_and_info(tmp_path, capsys):
    from repro.cli import main

    npz = tmp_path / "w.npz"
    bin_ = tmp_path / "w.bin"
    assert main(["synth", "--case", "WAN-1", "-n", "3000", "-o", str(npz)]) == 0
    assert main(["trace", "pack", str(npz), str(bin_)]) == 0
    out = capsys.readouterr().out
    assert "packed 3000 heartbeats" in out
    assert is_columnar(bin_)

    assert main(["trace", "info", str(bin_)]) == 0
    info_bin = capsys.readouterr().out
    assert '"format": "columnar"' in info_bin
    assert main(["trace", "info", str(npz)]) == 0
    info_npz = capsys.readouterr().out
    # Same trace, same fingerprint, either container.
    fp = [line for line in info_bin.splitlines() if "fingerprint" in line]
    assert fp and fp[0] in info_npz


def test_cli_trace_pack_rejects_corrupt_input(tmp_path):
    from repro.cli import main

    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a trace")
    with pytest.raises(SystemExit, match="cannot pack"):
        main(["trace", "pack", str(bad), str(tmp_path / "out.bin")])


def test_cli_synth_writes_columnar_for_bin_suffix(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "w.bin"
    assert main(["synth", "--case", "WAN-1", "-n", "3000", "-o", str(out)]) == 0
    assert is_columnar(out)
    store = TraceStore(out)
    assert store.total_sent == 3000
    assert store.name == "WAN-1"


# --------------------------------------------------------------------- #
# misc store surface
# --------------------------------------------------------------------- #


def test_store_info_shape(store, wan_trace):
    info = store.info()
    assert info["format"] == "columnar"
    assert info["total_sent"] == wan_trace.total_sent
    assert info["view_heartbeats"] + info["dropped_stale"] == info[
        "total_received"
    ]
    assert {c["name"] for c in info["columns"]} == {
        "send_times",
        "delays",
        "view_seq",
        "view_arrivals",
        "view_send_times",
    }
    assert all(c["offset"] % 64 == 0 for c in info["columns"])
    assert info["file_bytes"] == os.path.getsize(store.path)


def test_unknown_column_rejected(store):
    with pytest.raises(TraceFormatError, match="no column 'bogus'"):
        store.column("bogus")
