"""Every bench result says which code and libraries produced it.

``benchmarks/_common.emit`` stamps each ``BENCH_*.json`` with
:func:`env_block`.  Replay speed depends on numpy and, since the quantile
stage selects order statistics with ``scipy.ndimage.rank_filter``, on
SciPy too, so both versions must be in the block.  Results are written
from the working tree, so the block also says whether the code differed
from the commit it names.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from _common import env_block, git_dirty  # noqa: E402


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
