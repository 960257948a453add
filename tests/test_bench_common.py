"""Every bench result says which code and libraries produced it.

``benchmarks/_common.emit`` stamps each ``BENCH_*.json`` with
:func:`env_block`.  Replay speed depends on numpy and, since the quantile
stage selects order statistics with ``scipy.ndimage.rank_filter``, on
SciPy too, so both versions must be in the block.  Results are written
from the working tree, so the block also says whether the code differed
from the commit it names.  A gated bench writes its gate records before
it asserts on them, so a red run leaves ``passed: false`` in its JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

import _common  # noqa: E402
from _common import assert_gates, emit, env_block, gate, git_dirty  # noqa: E402


def test_env_block_records_numpy_and_scipy_versions():
    env = env_block()
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__


def test_env_block_records_whether_the_code_was_committed():
    assert env_block()["dirty"] in (True, False, None)


def test_dirty_means_uncommitted_code(tmp_path, tmp_path_factory):
    def git(*args: str) -> None:
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
             *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    code = tmp_path / "src" / "mod.py"
    bench = tmp_path / "benchmarks" / "bench_x.py"
    result = tmp_path / "benchmarks" / "results" / "BENCH_x.json"
    notes = tmp_path / "NOTES.md"
    for path in (code, bench, result, notes):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("0\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "seed")
    assert git_dirty(tmp_path) is False
    # Results and files outside src/ and benchmarks/ are not the code.
    result.write_text("1\n")
    notes.write_text("1\n")
    assert git_dirty(tmp_path) is False
    code.write_text("1\n")
    assert git_dirty(tmp_path) is True
    git("checkout", "--", "src")
    assert git_dirty(tmp_path) is False
    (tmp_path / "benchmarks" / "bench_y.py").write_text("0\n")
    assert git_dirty(tmp_path) is True
    assert git_dirty(tmp_path_factory.mktemp("not_a_checkout")) is None


@pytest.mark.parametrize(
    "value, bound, at_most, passed",
    [
        (2.0e6, 3e6, False, False),
        (3.0e6, 3e6, False, False),  # a lower bound must be beaten
        (3.5e6, 3e6, False, True),
        (6.2, 6.0, True, False),
        (6.0, 6.0, True, True),  # an upper bound may be met
    ],
)
def test_gate_record(value, bound, at_most, passed):
    record = gate("m", value, bound, at_most=at_most)
    assert record == {"metric": "m", "bound": bound, "value": value,
                      "passed": passed}


def test_a_failing_gate_leaves_a_red_record(tmp_path, monkeypatch):
    monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
    green = gate("heartbeats_per_s", 1.5e6, 1e6)
    red = gate("heartbeats_per_s", 2.5e6, 3e6)
    emit("gated", "a red run", data={"cases": {"a": {"gate": green},
                                               "b": {"gate": red}}})
    with pytest.raises(AssertionError, match="gate"):
        assert_gates(green, red)
    written = json.loads((tmp_path / "BENCH_gated.json").read_text())
    assert written["cases"]["a"]["gate"]["passed"] is True
    assert written["cases"]["b"]["gate"] == {
        "metric": "heartbeats_per_s", "bound": 3e6, "value": 2.5e6,
        "passed": False,
    }
