"""The ml NLMS loop is bitwise equal to the per-gap recursion it replaced.

:meth:`repro.detectors.ml.OnlineArrivalPredictor.extend` runs the whole
learned recursion in one pass: the state is read into locals once, ``w·x``
is computed once per gap and kept as the next step's ``ŷ``, and the bias
feature's products (always ``·1.0``) are folded away.  Both planes run it:
the streaming :class:`~repro.detectors.ml.MLFD` one gap per heartbeat
through ``update``, the replay stage
:func:`~repro.replay.vectorized.ml_prediction_arrays` over a whole view in
one call.

The reference below is the per-gap recursion that loop replaced — one
``update`` and one ``predict`` call per gap, with ``w·x`` computed twice —
kept only as the oracle, with the same repair of a window sum that has
grown past ``float_info.max / window`` or overflowed (it is added up from
the ring again at the next gap).
Predictions and jitters (as int64 views) and the final checkpoint (every
float as its bits) must agree with ``==``: on
synthetic WAN traces, on a seeded corpus that reaches every branch of the
recursion (the reference counts its branch hits and the test asserts each
one), on hypothesis-drawn gaps up to 1.7e308, and across a checkpoint
restored mid-stream.
"""

from __future__ import annotations

import ast
import math
import struct
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.detectors.ml import NLMS_EPSILON, OnlineArrivalPredictor
from repro.errors import ConfigurationError
from repro.replay.vectorized import ml_prediction_arrays
from repro.traces.trace import MonitorView
from repro.traces.wan import WAN_1, WAN_JAIST


class ReferencePredictor:
    """The per-gap NLMS recursion, one ``update`` and ``predict`` per gap.

    Its results are what the one-pass loop must reproduce bit for bit;
    ``hits`` counts how often each branch of the recursion ran.
    """

    def __init__(self, *, lr: float, window: int, decay: float):
        self.lr = float(lr)
        self.window = int(window)
        self.decay = float(decay)
        self.weights = [0.0, 0.0, 1.0, 0.0, 0.0]
        self.ring: list[float] = []
        self.head = 0
        self.sum = 0.0
        self.ewma = 0.0
        self.jitter = 0.0
        self.count = 0
        self.features: tuple[float, ...] | None = None
        self.hits: Counter = Counter()

    def update(self, gap: float) -> None:
        gap = float(gap)
        x = self.features
        if x is not None:
            w = self.weights
            yhat = (
                w[0] * x[0] + w[1] * x[1] + w[2] * x[2] + w[3] * x[3] + w[4] * x[4]
            )
            err = gap - yhat
            if math.isfinite(err):
                norm = NLMS_EPSILON + (
                    x[0] * x[0]
                    + x[1] * x[1]
                    + x[2] * x[2]
                    + x[3] * x[3]
                    + x[4] * x[4]
                )
                step = self.lr * err / norm
                if math.isfinite(step):
                    for i in range(5):
                        w[i] += step * x[i]
                else:
                    self.hits["non-finite step"] += 1
            else:
                self.hits["non-finite error"] += 1
        resum = not (-sys.float_info.max / self.window < self.sum
                     < sys.float_info.max / self.window)
        if len(self.ring) == self.window:
            self.sum -= self.ring[self.head]
            self.ring[self.head] = gap
            self.head = (self.head + 1) % self.window
            if self.head == 0:
                self.hits["ring wrap"] += 1
        else:
            self.ring.append(gap)
        self.sum += gap
        if resum:
            self.hits["sum re-added"] += 1
            self.sum = 0.0
            for kept in self.ring:
                self.sum += kept
        mean = self.sum / len(self.ring)
        if self.count == 0:
            self.ewma = gap
            self.jitter = 0.0
        else:
            dev = abs(gap - self.ewma)
            self.ewma += self.decay * (gap - self.ewma)
            self.jitter += self.decay * (dev - self.jitter)
        self.count += 1
        self.features = (1.0, gap, mean, self.ewma, self.jitter)

    def predict(self) -> float:
        x = self.features
        w = self.weights
        p = w[0] * x[0] + w[1] * x[1] + w[2] * x[2] + w[3] * x[3] + w[4] * x[4]
        if not math.isfinite(p) or p < 0.0:
            self.hits["negative prediction" if p < 0.0 else "non-finite prediction"] += 1
            p = self.sum / len(self.ring)
            if not math.isfinite(p) or p < 0.0:
                self.hits["non-finite mean"] += 1
                p = 0.0
        return p

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "window": self.window,
            "decay": self.decay,
            "weights": list(self.weights),
            "ring": list(self.ring),
            "head": self.head,
            "sum": self.sum,
            "ewma": self.ewma,
            "jitter": self.jitter,
            "count": self.count,
            "features": list(self.features) if self.features is not None else None,
        }


def reference_ml_prediction_arrays(
    view: MonitorView,
    *,
    lr: float = 0.05,
    window: int = 16,
    decay: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """The replay stage as a per-gap loop over :class:`ReferencePredictor`."""
    arrivals = view.arrivals
    n = arrivals.size
    pred = np.full(n, np.nan, dtype=np.float64)
    jit = np.full(n, np.nan, dtype=np.float64)
    predictor = ReferencePredictor(lr=lr, window=window, decay=decay)
    gaps = np.diff(arrivals)
    for j in range(1, n):
        predictor.update(gaps[j - 1])
        pred[j] = predictor.predict()
        jit[j] = predictor.jitter
    return pred, jit


def reference_run(predictor: ReferencePredictor, gaps) -> tuple[list, list]:
    pred, jit = [], []
    for gap in gaps:
        predictor.update(gap)
        pred.append(predictor.predict())
        jit.append(predictor.jitter)
    return pred, jit


def assert_bitwise(expected, actual) -> None:
    expected = np.asarray(expected, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    assert expected.shape == actual.shape
    assert (expected.view(np.int64) == actual.view(np.int64)).all()


def state_bits(state: dict) -> dict:
    """A checkpoint with every float replaced by its bits (NaN-safe ``==``)."""

    def bits(value):
        if isinstance(value, float):
            return struct.unpack("<q", struct.pack("<d", value))[0]
        if isinstance(value, list):
            return [bits(v) for v in value]
        return value

    return {key: bits(value) for key, value in state.items()}


def run_extend(predictor: OnlineArrivalPredictor, gaps) -> tuple[list, list]:
    pred, jit = [], []
    predictor.extend(gaps, pred, jit)
    return pred, jit


def assert_matches_reference(gaps, cut: int | None = None, **params) -> Counter:
    """Feed ``gaps`` to one ``extend`` call — or to two, around a checkpoint
    restored after ``cut`` gaps — and to the reference: outputs and final
    states must be bitwise equal.  Returns the reference's branch hits."""
    reference = ReferencePredictor(**params)
    expected = reference_run(reference, gaps)
    if cut is None:
        predictor = OnlineArrivalPredictor(**params)
        actual = run_extend(predictor, gaps)
    else:
        head = OnlineArrivalPredictor(**params)
        first = run_extend(head, gaps[:cut])
        predictor = OnlineArrivalPredictor.from_dict(head.to_dict())
        if cut:
            assert predictor.predict() == head.predict()
        second = run_extend(predictor, gaps[cut:])
        actual = (first[0] + second[0], first[1] + second[1])
    for e, a in zip(expected, actual):
        assert_bitwise(e, a)
    assert state_bits(predictor.to_dict()) == state_bits(reference.to_dict())
    return reference.hits


@pytest.mark.parametrize("profile, seed", [(WAN_1, 2012), (WAN_JAIST, 7202)])
def test_wan_views(view_factory, profile, seed):
    view = view_factory(profile.name, n=20_000, seed=seed)
    for window in (2, 16, 1000, len(view) + 5):
        expected = reference_ml_prediction_arrays(view, window=window)
        actual = ml_prediction_arrays(view, window=window)
        for e, a in zip(expected, actual):
            assert_bitwise(e, a)


@pytest.mark.parametrize("cut", [1, 15, 16, 17, 1500])
def test_checkpoint_cuts_on_a_wan_view(view_factory, cut):
    """A restore anywhere around the ring's first wrap, on gaps whose
    learned weights round in every operation."""
    gaps = np.diff(view_factory(WAN_1.name, n=3000, seed=2012).arrivals)
    assert_matches_reference(gaps.tolist(), cut, lr=0.05, window=16, decay=0.1)


def branch_corpus(seed: int, n: int) -> list[float]:
    """Gaps around 0.1 s with zeros, subnormals, tiny values and bursts near
    1e308: with ``lr`` 1.9 the recursion takes every branch."""
    rng = np.random.default_rng(seed)
    gaps = rng.gamma(4.0, 0.025, size=n)
    kind = rng.random(n)
    gaps[kind < 0.04] = 0.0
    gaps[(kind >= 0.04) & (kind < 0.07)] = 5e-324 * rng.integers(1, 1000)
    gaps[(kind >= 0.07) & (kind < 0.1)] = 1e-9 * rng.random()
    huge = (kind >= 0.1) & (kind < 0.16)
    gaps[huge] = 1.7e308 * rng.uniform(0.5, 1.0, size=int(huge.sum()))
    return gaps.tolist()


CORPUS = [
    (seed, lr, window, decay)
    for seed in range(6)
    for lr, window, decay in ((1.9, 3, 0.5), (1.9, 8, 0.1), (0.05, 2, 1.0))
]


def test_corpus_reaches_every_branch():
    hits: Counter = Counter()
    for seed, lr, window, decay in CORPUS:
        gaps = branch_corpus(seed, 400)
        params = dict(lr=lr, window=window, decay=decay)
        hits += assert_matches_reference(gaps, **params)
        assert_matches_reference(gaps, len(gaps) // 3, **params)
    for branch in (
        "negative prediction",
        "non-finite prediction",
        "non-finite mean",
        "non-finite error",
        "non-finite step",
        "ring wrap",
        "sum re-added",
    ):
        assert hits[branch] > 0, branch


def test_overflowed_window_sum_recovers():
    """Two gaps near 1e308 overflow the window's running sum to inf.  Once
    they have left the window the sum is the window's again, and the
    predictor reads what a clean one does, not the 0.0 of a mean stuck at
    inf (nor the quarter of the truth a sum re-added only while it is inf
    would give: the re-added 1e308 swallows the 0.1 gaps beside it)."""
    poisoned = OnlineArrivalPredictor(window=4)
    poisoned.extend([1e308, 1e308] + [0.1] * 10)
    clean = OnlineArrivalPredictor(window=4)
    clean.extend([0.1] * 10)
    assert poisoned.to_dict()["sum"] == clean.to_dict()["sum"]
    assert poisoned.predict() == clean.predict() == 0.1
    reference = ReferencePredictor(lr=0.05, window=4, decay=0.1)
    reference_run(reference, [1e308, 1e308] + [0.1] * 10)
    assert state_bits(poisoned.to_dict()) == state_bits(reference.to_dict())


drawn_gaps = st.lists(
    st.floats(min_value=0.0, max_value=1.7e308), min_size=1, max_size=48
)


@given(
    gaps=drawn_gaps,
    lr=st.sampled_from([0.05, 0.5, 1.9]),
    window=st.integers(2, 6),
    decay=st.sampled_from([0.1, 0.5, 1.0]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_drawn_gaps_and_checkpoints(gaps, lr, window, decay, data):
    """One ``extend``, per-gap ``update`` calls, and an ``extend`` cut by a
    checkpoint restore all reach the reference's outputs and state."""
    params = dict(lr=lr, window=window, decay=decay)
    assert_matches_reference(gaps, **params)
    cut = data.draw(st.integers(0, len(gaps)), label="cut")
    assert_matches_reference(gaps, cut, **params)

    reference = ReferencePredictor(**params)
    expected = reference_run(reference, gaps)
    stepwise = OnlineArrivalPredictor(**params)
    pred, jit = [], []
    for gap in gaps:
        stepwise.update(gap)
        pred.append(stepwise.predict())
        jit.append(stepwise.jitter)
    for e, a in zip(expected, (pred, jit)):
        assert_bitwise(e, a)
    assert state_bits(stepwise.to_dict()) == state_bits(reference.to_dict())


def test_non_finite_gap_rejected_like_a_streaming_update():
    arrivals = np.array([0.0, 0.1, 0.2, math.inf])
    view = MonitorView(
        seq=np.arange(arrivals.size), arrivals=arrivals, send_times=arrivals
    )
    with pytest.raises(ConfigurationError) as streaming:
        OnlineArrivalPredictor().update(math.inf)
    with pytest.raises(ConfigurationError) as replayed:
        ml_prediction_arrays(view)
    assert str(replayed.value) == str(streaming.value)


def test_replay_stage_makes_no_per_gap_calls(monkeypatch, small_view):
    """The stage is one ``extend`` call, not an ``update`` and a
    ``predict`` per gap (a timing-free guard on the per-gap overhead)."""
    calls: Counter = Counter()
    for name in ("update", "predict", "extend"):
        real = getattr(OnlineArrivalPredictor, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(OnlineArrivalPredictor, name, counted)
    ml_prediction_arrays(small_view, window=16)
    assert calls == {"extend": 1}


def test_nlms_step_exists_once_in_src():
    """The normalized step ``lr·err/(ε + ‖x‖²)`` is written in one function
    of the package: the loop both planes run."""
    sites = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sites += [
                (path.name, func.name)
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and node.id == "NLMS_EPSILON"
            ]
    assert sites == [("ml.py", "extend")]
