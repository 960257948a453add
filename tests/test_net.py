"""Network substrate: delay models, loss models, channel, clocks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net import (
    BernoulliLoss,
    ConstantDelay,
    DriftingClock,
    GammaDelay,
    GilbertElliottLoss,
    LogNormalDelay,
    NoLoss,
    NormalDelay,
    PerfectClock,
    SpikeDelay,
    UnreliableChannel,
)
from repro.net.delay import CorrelatedLogNormalDelay
from repro.traces.stats import loss_bursts

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


class TestDelayModels:
    def test_constant(self):
        d = ConstantDelay(0.05)
        assert (d.sample(RNG(), 10) == 0.05).all()
        assert d.mean() == 0.05
        with pytest.raises(ConfigurationError):
            ConstantDelay(-1.0)

    def test_normal_truncation_and_moments(self):
        d = NormalDelay(0.1, 0.01, minimum=0.08)
        s = d.sample(RNG(), 50_000)
        assert (s >= 0.08).all()
        assert s.mean() == pytest.approx(0.1, rel=0.02)

    def test_normal_validation(self):
        with pytest.raises(ConfigurationError):
            NormalDelay(0.1, -1.0)
        with pytest.raises(ConfigurationError):
            NormalDelay(0.1, 0.01, minimum=0.2)

    @pytest.mark.parametrize("cls", [LogNormalDelay, GammaDelay])
    def test_floor_plus_tail_moments(self, cls):
        d = cls(mean=0.1, std=0.02, floor=0.05)
        s = d.sample(RNG(), 200_000)
        assert (s >= 0.05).all()
        assert s.mean() == pytest.approx(0.1, rel=0.02)
        assert s.std() == pytest.approx(0.02, rel=0.05)
        assert d.mean() == pytest.approx(0.1)

    @pytest.mark.parametrize("cls", [LogNormalDelay, GammaDelay])
    def test_floor_validation(self, cls):
        with pytest.raises(ConfigurationError):
            cls(mean=0.1, std=0.02, floor=0.2)
        with pytest.raises(ConfigurationError):
            cls(mean=0.1, std=0.0)

    def test_correlated_lognormal_marginal(self):
        d = CorrelatedLogNormalDelay(mean=0.1, std=0.02, floor=0.05, corr=0.9)
        s = d.sample(RNG(), 200_000)
        assert s.mean() == pytest.approx(0.1, rel=0.05)
        assert s.std() == pytest.approx(0.02, rel=0.1)
        assert (s >= 0.05).all()

    def test_correlated_lognormal_autocorrelation(self):
        d = CorrelatedLogNormalDelay(mean=0.1, std=0.02, corr=0.95)
        s = d.sample(RNG(), 100_000)
        x = s - s.mean()
        rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert rho > 0.8
        d0 = CorrelatedLogNormalDelay(mean=0.1, std=0.02, corr=0.0)
        s0 = d0.sample(RNG(), 100_000)
        x0 = s0 - s0.mean()
        rho0 = float(np.dot(x0[:-1], x0[1:]) / np.dot(x0, x0))
        assert abs(rho0) < 0.05

    def test_correlated_state_persists_across_calls(self):
        d = CorrelatedLogNormalDelay(mean=0.1, std=0.02, corr=0.999)
        rng = RNG(3)
        a = d.sample(rng, 10)
        b = d.sample(rng, 10)
        # With near-unit correlation, consecutive batches stay close.
        assert abs(float(b[0] - a[-1])) < 0.02

    def test_corr_validation(self):
        with pytest.raises(ConfigurationError):
            CorrelatedLogNormalDelay(0.1, 0.02, corr=1.0)

    def test_spike_delay_rate_and_mean(self):
        base = ConstantDelay(0.05)
        d = SpikeDelay(
            base, spike_rate=0.01, mean_spike_length=5, spike_min=0.1, spike_max=0.3
        )
        s = d.sample(RNG(), 200_000)
        spiked = s > 0.05 + 1e-12
        assert spiked.mean() == pytest.approx(0.01, rel=0.3)
        assert d.mean() == pytest.approx(0.05 + 0.01 * 0.2)

    def test_spike_episodes_are_contiguous(self):
        base = ConstantDelay(0.05)
        d = SpikeDelay(
            base, spike_rate=0.02, mean_spike_length=20, spike_min=0.1, spike_max=0.1
        )
        s = d.sample(RNG(7), 100_000)
        bursts = loss_bursts(~(s > 0.051))
        assert bursts.size > 0
        assert bursts.mean() > 5  # episodes, not isolated spikes

    def test_spike_zero_rate_is_base(self):
        d = SpikeDelay(ConstantDelay(0.05), spike_rate=0.0)
        assert (d.sample(RNG(), 100) == 0.05).all()

    def test_spike_validation(self):
        with pytest.raises(ConfigurationError):
            SpikeDelay(ConstantDelay(0.05), spike_rate=1.5)
        with pytest.raises(ConfigurationError):
            SpikeDelay(ConstantDelay(0.05), spike_rate=0.1, mean_spike_length=0.5)
        with pytest.raises(ConfigurationError):
            SpikeDelay(
                ConstantDelay(0.05), spike_rate=0.1, spike_min=0.3, spike_max=0.1
            )


class TestLossModels:
    def test_no_loss(self):
        assert not NoLoss().sample(RNG(), 100).any()
        assert NoLoss().rate() == 0.0

    def test_bernoulli_rate(self):
        p = BernoulliLoss(0.05)
        s = p.sample(RNG(), 200_000)
        assert s.mean() == pytest.approx(0.05, rel=0.05)
        assert p.rate() == 0.05

    def test_bernoulli_zero(self):
        assert not BernoulliLoss(0.0).sample(RNG(), 1000).any()

    def test_bernoulli_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.0)

    def test_gilbert_elliott_calibration(self):
        ge = GilbertElliottLoss.from_rate_and_burst(rate=0.004, mean_burst=28.5)
        assert ge.rate() == pytest.approx(0.004)
        assert ge.mean_burst == pytest.approx(28.5)

    def test_gilbert_elliott_bursts_are_bursty(self):
        ge = GilbertElliottLoss.from_rate_and_burst(rate=0.01, mean_burst=10.0)
        lost = ge.sample(RNG(11), 2_000_000)
        assert lost.mean() == pytest.approx(0.01, rel=0.25)
        bursts = loss_bursts(~lost)
        assert bursts.mean() == pytest.approx(10.0, rel=0.3)

    def test_gilbert_elliott_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss.from_rate_and_burst(rate=1.5, mean_burst=3)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss.from_rate_and_burst(rate=0.1, mean_burst=0.5)


class TestChannel:
    def test_one_arrival_per_delivered_message(self):
        ch = UnreliableChannel(ConstantDelay(0.01), BernoulliLoss(0.3), rng=RNG(5))
        tx = ch.transmit(10_000)
        # No creation, no duplication: exactly one delay per sent message.
        assert tx.delays.shape == (10_000,)
        assert tx.delivered.shape == (10_000,)
        assert 0.2 < (~tx.delivered).mean() < 0.4

    def test_arrivals_helper(self):
        ch = UnreliableChannel(ConstantDelay(0.01), rng=RNG())
        send = np.arange(5, dtype=float)
        tx = ch.transmit(5)
        np.testing.assert_allclose(tx.arrivals(send), send + 0.01)

    def test_arrivals_shape_check(self):
        ch = UnreliableChannel(ConstantDelay(0.01), rng=RNG())
        tx = ch.transmit(5)
        with pytest.raises(ConfigurationError):
            tx.arrivals(np.zeros(7))

    def test_transmit_one(self):
        ch = UnreliableChannel(ConstantDelay(0.01), rng=RNG())
        assert ch.transmit_one(5.0) == pytest.approx(5.01)

    def test_transmit_one_loss(self):
        ch = UnreliableChannel(ConstantDelay(0.01), BernoulliLoss(0.999), rng=RNG())
        assert ch.transmit_one(0.0) is None

    def test_negative_count_rejected(self):
        ch = UnreliableChannel(ConstantDelay(0.01))
        with pytest.raises(ConfigurationError):
            ch.transmit(-1)


class TestClocks:
    def test_perfect_clock_identity(self):
        assert PerfectClock().read(5.0) == 5.0

    def test_drifting_clock_affine(self):
        c = DriftingClock(offset=1.0, drift=0.001)
        assert c.read(0.0) == pytest.approx(1.0)
        assert c.read(1000.0) == pytest.approx(1.0 + 1001.0)

    def test_drift_vectorized(self):
        c = DriftingClock(drift=0.5)
        np.testing.assert_allclose(c.read(np.array([0.0, 2.0])), [0.0, 3.0])

    def test_drift_validation(self):
        with pytest.raises(ConfigurationError):
            DriftingClock(drift=-1.0)


class TestParetoTailDelay:
    def test_mean_and_floor(self):
        from repro.net import ParetoTailDelay

        d = ParetoTailDelay(floor=0.05, scale=0.01, shape=3.0)
        s = d.sample(RNG(), 300_000)
        assert (s >= 0.05).all()
        assert d.mean() == pytest.approx(0.055)
        assert s.mean() == pytest.approx(0.055, rel=0.03)
        assert d.has_finite_variance

    def test_heavy_tail_produces_extremes(self):
        from repro.net import ParetoTailDelay

        d = ParetoTailDelay(floor=0.0, scale=0.01, shape=1.2)
        s = d.sample(RNG(3), 200_000)
        assert not d.has_finite_variance
        # A shape-1.2 tail yields samples orders beyond the scale.
        assert s.max() > 100 * 0.01

    def test_validation(self):
        from repro.net import ParetoTailDelay

        with pytest.raises(ConfigurationError):
            ParetoTailDelay(floor=-1.0, scale=0.01, shape=2.0)
        with pytest.raises(ConfigurationError):
            ParetoTailDelay(floor=0.0, scale=0.0, shape=2.0)
        with pytest.raises(ConfigurationError):
            ParetoTailDelay(floor=0.0, scale=0.01, shape=1.0)

    def test_stress_replay_under_heavy_tail(self):
        """Detectors remain well-defined under infinite-variance delays."""
        import numpy as np

        from repro.net import ParetoTailDelay
        from repro.replay import ChenSpec, PhiSpec, replay
        from repro.traces import HeartbeatTrace

        rng = RNG(9)
        n = 5000
        send = 0.1 * np.arange(n)
        delays = ParetoTailDelay(0.02, 0.005, 1.5).sample(rng, n)
        trace = HeartbeatTrace(send_times=send, delays=delays, name="pareto")
        for spec in (ChenSpec(alpha=0.1, window=100), PhiSpec(4.0, window=100)):
            qos = replay(spec, trace).qos
            assert 0.0 <= qos.query_accuracy <= 1.0
            assert np.isfinite(qos.detection_time)


def test_gilbert_elliott_infeasible_pair_rejected():
    with pytest.raises(ConfigurationError):
        GilbertElliottLoss.from_rate_and_burst(rate=0.5, mean_burst=1.0)


class TestLossStreamer:
    def test_no_loss_stream(self):
        step = NoLoss().streamer(RNG())
        assert not any(step() for _ in range(100))

    def test_bernoulli_stream_matches_rate(self):
        step = BernoulliLoss(0.1).streamer(RNG(3))
        losses = sum(step() for _ in range(50_000))
        assert losses / 50_000 == pytest.approx(0.1, rel=0.1)

    def test_gilbert_elliott_stream_is_bursty(self):
        import numpy as np

        ge = GilbertElliottLoss.from_rate_and_burst(rate=0.02, mean_burst=10.0)
        step = ge.streamer(RNG(17))
        lost = np.array([step() for _ in range(500_000)], dtype=bool)
        assert lost.mean() == pytest.approx(0.02, rel=0.25)
        bursts = loss_bursts(~lost)
        assert bursts.mean() == pytest.approx(10.0, rel=0.3)

    def test_stream_agrees_with_batch_distribution(self):
        # Same seed, same model: the streamer's block buffering must
        # reproduce the batch sampler exactly for memoryless models.
        import numpy as np

        model = BernoulliLoss(0.25)
        batch = model.sample(RNG(5), 512)
        step = model.streamer(RNG(5), block=512)
        stream = np.array([step() for _ in range(512)], dtype=bool)
        assert (batch == stream).all()

    def test_block_validation(self):
        with pytest.raises(ConfigurationError):
            NoLoss().streamer(RNG(), block=0)
