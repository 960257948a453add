"""The learned ``ml`` family: estimator properties and detector contract.

The registry-wide differential harness (test_differential.py) already
pins streaming-vs-vectorized QoS equality for ``ml``; this module pins
the *estimator-level* contracts that make a learned detector safe to put
behind the freshness-point API:

* predictions and deadlines are always finite under degenerate inputs —
  constant arrivals, a single sample, heavy-tailed jitter (hypothesis),
* the freshness deadline is strictly monotone in the margin parameter,
* ``to_dict`` → ``from_dict`` checkpoints replay bit-identically,
* configuration validation fails loudly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detectors.ml import (
    ML_JITTER_FLOOR,
    MLFD,
    OnlineArrivalPredictor,
)
from repro.errors import ConfigurationError, NotWarmedUpError
from repro.replay import MLSpec, ml_freshness, replay

from conftest import stream_freshness


# Inter-arrival gaps spanning sub-microsecond to ~11 days: wide enough to
# exercise the NLMS normalization, bounded so feature products stay in
# float range (the finiteness contract is about model dynamics, not
# float64 overflow of the inputs themselves).
gap_values = st.floats(
    min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False
)
gap_lists = st.lists(gap_values, min_size=1, max_size=64)
margins = st.floats(
    min_value=0.0, max_value=64.0, allow_nan=False, allow_infinity=False
)


def feed(predictor: OnlineArrivalPredictor, gaps) -> None:
    for g in gaps:
        predictor.update(g)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0},
        {"lr": 2.0},
        {"lr": -0.1},
        {"window": 1},
        {"decay": 0.0},
        {"decay": 1.5},
    ])
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OnlineArrivalPredictor(**kwargs)

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError):
            MLFD(-0.5)
        p = OnlineArrivalPredictor()
        p.update(1.0)
        with pytest.raises(ConfigurationError):
            p.deadline(-1.0)

    def test_non_finite_gap_rejected(self):
        p = OnlineArrivalPredictor()
        with pytest.raises(ConfigurationError):
            p.update(math.nan)
        with pytest.raises(ConfigurationError):
            p.update(math.inf)

    def test_predict_before_any_sample_raises(self):
        with pytest.raises(NotWarmedUpError):
            OnlineArrivalPredictor().predict()

    def test_bad_checkpoint_rejected(self):
        p = OnlineArrivalPredictor()
        p.update(1.0)
        good = p.to_dict()
        for corrupt in (
            {**good, "weights": [1.0, 2.0]},          # wrong arity
            {**good, "count": "many"},                # wrong type
            {k: v for k, v in good.items() if k != "ring"},  # missing key
        ):
            with pytest.raises(ConfigurationError):
                OnlineArrivalPredictor.from_dict(corrupt)
        # States no sequence of gaps can reach, each named by its field.
        fresh = OnlineArrivalPredictor(window=4).to_dict()
        filling = OnlineArrivalPredictor(window=4)
        feed(filling, [0.1, 0.2])
        filling = filling.to_dict()
        full = OnlineArrivalPredictor(window=4)
        feed(full, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        full = full.to_dict()
        assert full["head"] == 2
        for field, corrupt in (
            ("head", {**full, "head": 7}),            # past the ring
            ("head", {**full, "head": -1}),
            ("head", {**filling, "head": 1}),         # ring still filling
            ("ring", {**full, "ring": full["ring"] + [0.7, 0.8]}),  # > window
            ("ring", {**filling, "ring": [0.1]}),     # not min(count, window)
            ("count", {**full, "count": -1}),
            ("features", {**full, "features": full["features"][:3]}),
            ("features", {**full, "features": full["features"] + [1.0]}),
            ("features", {**full, "features": None}),
            ("features", {**fresh, "features": [1.0, 0.1, 0.1, 0.1, 0.0]}),
            ("features", {**full, "features": [2.0] + full["features"][1:]}),
        ):
            with pytest.raises(ConfigurationError, match=field):
                OnlineArrivalPredictor.from_dict(corrupt)


class TestEstimatorProperties:
    @given(gaps=gap_lists)
    @settings(max_examples=50, deadline=None)
    def test_predictions_always_finite_and_nonnegative(self, gaps):
        p = OnlineArrivalPredictor(lr=0.5, window=4, decay=0.5)
        feed(p, gaps)
        pred = p.predict()
        assert math.isfinite(pred) and pred >= 0.0
        assert math.isfinite(p.jitter) and p.jitter >= 0.0
        assert math.isfinite(p.deadline(8.0))

    @pytest.mark.parametrize("gap", [1e-9, 0.1, 1e6])
    def test_constant_arrivals_converge_to_the_gap(self, gap):
        # Degenerate input: perfectly regular heartbeats.  The cold-start
        # weights already read the windowed mean, so the prediction is the
        # gap itself and jitter collapses to 0.
        p = OnlineArrivalPredictor()
        feed(p, [gap] * 50)
        assert p.predict() == pytest.approx(gap, rel=1e-6)
        assert p.jitter == pytest.approx(0.0, abs=gap * 1e-6)
        # The floor keeps margin strictly effective even at zero jitter.
        assert p.deadline(1.0) > p.deadline(0.0)

    def test_single_sample(self):
        p = OnlineArrivalPredictor()
        p.update(0.25)
        assert p.samples == 1
        assert math.isfinite(p.predict())
        assert p.predict() == pytest.approx(0.25)

    @given(gaps=gap_lists, m1=margins, m2=margins)
    @settings(max_examples=50, deadline=None)
    def test_deadline_monotone_in_margin(self, gaps, m1, m2):
        if m1 == m2:
            return
        lo, hi = sorted((m1, m2))
        p = OnlineArrivalPredictor(lr=0.5, window=4, decay=0.5)
        feed(p, gaps)
        base = p.deadline(lo)
        assert p.deadline(hi) >= base
        # Strict whenever the extra widening is representable next to the
        # prediction; a sub-ulp increment (e.g. the bare 1e-9 floor
        # against a 6e4 s prediction) is legitimately absorbed by float64.
        if (hi - lo) * (p.jitter + ML_JITTER_FLOOR) > 2.0 * math.ulp(base):
            assert p.deadline(hi) > base

    @given(gaps=gap_lists, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_checkpoint_roundtrip_replays_identically(self, gaps, data):
        cut = data.draw(st.integers(0, len(gaps)), label="cut")
        original = OnlineArrivalPredictor(lr=0.2, window=8, decay=0.3)
        feed(original, gaps[:cut])
        restored = OnlineArrivalPredictor.from_dict(original.to_dict())
        for g in gaps[cut:]:
            original.update(g)
            restored.update(g)
            # Bit-identical, not approx: the restored state must be the
            # same floats, so every downstream prediction matches exactly.
            assert restored.predict() == original.predict()
            assert restored.jitter == original.jitter
        assert restored.to_dict() == original.to_dict()

    def test_reset_restores_cold_start(self):
        fresh = OnlineArrivalPredictor()
        used = OnlineArrivalPredictor()
        feed(used, [0.1, 0.5, 0.2, 0.9])
        used.reset()
        assert used.to_dict() == fresh.to_dict()
        for g in (0.3, 0.4, 0.35):
            fresh.update(g)
            used.update(g)
            assert used.predict() == fresh.predict()


class TestMLFD:
    def test_streaming_matches_kernel_bitwise(self, small_view):
        fp = stream_freshness(MLFD(2.0, window_size=16), small_view)
        kernel = ml_freshness(small_view, 2.0, window=16)
        r0 = 15
        assert np.array_equal(fp[r0:], kernel[r0:])

    def test_replay_spec_round_trip(self, small_view):
        spec = MLSpec(margin=4.0, lr=0.1, window=16, decay=0.2)
        assert MLSpec.from_dict(spec.to_dict()) == spec
        res = replay(spec, small_view)
        assert res.detector == "ml"
        assert res.parameter == 4.0
        assert res.warmup_index == 15

    def test_detector_exposes_model_diagnostics(self):
        det = MLFD(1.0, window_size=4)
        for i in range(6):
            det.observe(i, i * 0.1, i * 0.1)
        assert det.window_size == 4
        assert det.predictor.samples == 5
        assert math.isfinite(det.predicted_gap())
        # Freshness = last arrival + deadline(margin), by construction.
        expected = det.last_arrival + det.predictor.deadline(det.margin)
        assert det.freshness_point() == expected

    def test_reset_clears_model_state(self):
        det = MLFD(1.0, window_size=4)
        for i in range(6):
            det.observe(i, i * 0.1, i * 0.1)
        det.reset()
        assert det.predictor.samples == 0
        with pytest.raises(NotWarmedUpError):
            det.predicted_gap()

    def test_margin_orders_freshness_points(self, small_view):
        aggressive = stream_freshness(MLFD(0.0, window_size=16), small_view)
        conservative = stream_freshness(MLFD(8.0, window_size=16), small_view)
        r0 = 15
        assert (conservative[r0:] > aggressive[r0:]).all()
        # The gap between them is at least the floor's contribution.
        assert (
            conservative[r0:] - aggressive[r0:] >= 8.0 * ML_JITTER_FLOOR
        ).all()
