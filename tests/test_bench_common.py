"""Every bench result says which libraries produced it.

``benchmarks/_common.emit`` stamps each ``BENCH_*.json`` with
:func:`env_block`.  Replay speed depends on numpy and, since the quantile
stage selects order statistics with ``scipy.ndimage.rank_filter``, on
SciPy too, so both versions must be in the block.
"""

import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from _common import env_block  # noqa: E402


def test_env_block_records_numpy_and_scipy_versions():
    env = env_block()
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
