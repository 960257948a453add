"""One-way transmission delay models.

"The statistical behavior of communication delays is unpredictable"
(Section I) — but its first two moments, minimum, and tail shape are what
the detectors actually respond to, so the models here are parameterized
directly by those quantities and calibrated against the published trace
statistics (Table II; Section V-A1's RTT summary).

All models are vectorized: :meth:`DelayModel.sample` draws ``n`` delays in
one call from a caller-supplied :class:`numpy.random.Generator`, keeping
trace synthesis deterministic under a fixed seed and fast for the paper's
multi-million-heartbeat traces.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "NormalDelay",
    "LogNormalDelay",
    "GammaDelay",
    "SpikeDelay",
]


class DelayModel(abc.ABC):
    """Distribution of one-way message delays (seconds, strictly positive)."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. (or internally correlated) delays."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected delay, seconds."""


class ConstantDelay(DelayModel):
    """Degenerate model: every message takes exactly ``value`` seconds."""

    def __init__(self, value: float):
        if value < 0:
            raise ConfigurationError(f"delay must be >= 0, got {value!r}")
        self.value = float(value)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=np.float64)

    def mean(self) -> float:
        return self.value


class NormalDelay(DelayModel):
    """Gaussian jitter around a base delay, truncated below at ``minimum``.

    Suited to well-provisioned paths where jitter is symmetric; the
    truncation models the physical propagation floor (e.g. WAN-JAIST's
    minimum RTT of 270.201 ms against a 283.338 ms mean).
    """

    def __init__(self, mu: float, sigma: float, minimum: float = 0.0):
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma!r}")
        if minimum < 0 or minimum > mu:
            raise ConfigurationError(
                f"minimum must lie in [0, mu], got {minimum!r} (mu={mu!r})"
            )
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.minimum = float(minimum)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        d = rng.normal(self.mu, self.sigma, size=n)
        np.maximum(d, self.minimum, out=d)
        return d

    def mean(self) -> float:
        return self.mu  # truncation bias is negligible for mu >> sigma


class LogNormalDelay(DelayModel):
    """Right-skewed delays: a propagation floor plus a lognormal queueing tail.

    Parameterized by the *target* mean and standard deviation of the total
    delay, with ``floor`` the deterministic propagation component; the
    underlying lognormal parameters are solved from the moment equations.
    This is the default WAN model — Internet one-way delays are classically
    floor + heavy-ish right tail.
    """

    def __init__(self, mean: float, std: float, floor: float = 0.0):
        if not (0.0 <= floor < mean):
            raise ConfigurationError(
                f"floor must lie in [0, mean), got {floor!r} (mean={mean!r})"
            )
        if std <= 0:
            raise ConfigurationError(f"std must be > 0, got {std!r}")
        self._mean = float(mean)
        self._std = float(std)
        self.floor = float(floor)
        m = mean - floor  # mean of the lognormal part
        v = std * std
        self._sigma2 = math.log(1.0 + v / (m * m))
        self._mu = math.log(m) - 0.5 * self._sigma2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.floor + rng.lognormal(self._mu, math.sqrt(self._sigma2), size=n)

    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._std


class CorrelatedLogNormalDelay(DelayModel):
    """Lognormal delays with AR(1) temporal correlation.

    Back-to-back packets share queue state, so their delays are strongly
    correlated — i.i.d. jitter wildly overstates UDP reordering when the
    sending period is comparable to the jitter (a 5 ms i.i.d. σ on a
    12.8 ms period reorders ~7% of heartbeats; real traces reorder far
    less).  This model keeps the same lognormal *marginal* as
    :class:`LogNormalDelay` but drives it with a stationary AR(1) Gaussian:
    ``g_k = ρ·g_{k−1} + √(1−ρ²)·w_k``, ``d_k = floor + exp(μ + σ·g_k)``.

    Parameters
    ----------
    mean, std, floor:
        Marginal moments, as in :class:`LogNormalDelay`.
    corr:
        Per-message correlation ``ρ ∈ [0, 1)``; e.g. ``exp(−Δt/τ)`` for a
        queue-state time constant ``τ``.
    """

    def __init__(self, mean: float, std: float, floor: float = 0.0, *, corr: float = 0.9):
        if not (0.0 <= corr < 1.0):
            raise ConfigurationError(f"corr must lie in [0, 1), got {corr!r}")
        self._marginal = LogNormalDelay(mean, std, floor)
        self.corr = float(corr)
        self._state: float | None = None  # persists across sample() calls

    @property
    def floor(self) -> float:
        return self._marginal.floor

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0, dtype=np.float64)
        rho = self.corr
        w = rng.standard_normal(n)
        if rho == 0.0:
            g = w
        else:
            from scipy.signal import lfilter

            g0 = self._state if self._state is not None else float(rng.standard_normal())
            # Stationary AR(1): x_k = rho x_{k-1} + sqrt(1-rho^2) w_k.
            scale = math.sqrt(1.0 - rho * rho)
            g, zf = lfilter([1.0], [1.0, -rho], scale * w, zi=np.array([rho * g0]))
            self._state = float(g[-1])
        m = self._marginal
        return m.floor + np.exp(m._mu + math.sqrt(m._sigma2) * g)

    def mean(self) -> float:
        return self._marginal.mean()

    @property
    def std(self) -> float:
        return self._marginal.std


class GammaDelay(DelayModel):
    """Floor plus gamma-distributed queueing delay (lighter tail than lognormal)."""

    def __init__(self, mean: float, std: float, floor: float = 0.0):
        if not (0.0 <= floor < mean):
            raise ConfigurationError(
                f"floor must lie in [0, mean), got {floor!r} (mean={mean!r})"
            )
        if std <= 0:
            raise ConfigurationError(f"std must be > 0, got {std!r}")
        self._mean = float(mean)
        m = mean - floor
        self.floor = float(floor)
        self._shape = (m / std) ** 2
        self._scale = std * std / m

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.floor + rng.gamma(self._shape, self._scale, size=n)

    def mean(self) -> float:
        return self._mean


class SpikeDelay(DelayModel):
    """Markov-modulated congestion episodes over a base model.

    Real WAN traces show rare multi-second spikes (WAN-JAIST's maximum RTT
    of 717.832 ms against a 283 ms mean; receive-period σ far above send-
    period σ in Table II).  This model alternates between a *calm* state,
    where delays come from ``base``, and a *congested* state, where an
    extra delay drawn uniformly from ``[spike_min, spike_max]`` is added.
    State persistence produces the correlated "burst" structure the paper
    observes (mistake clusters, fluctuating SFD output QoS).

    Parameters
    ----------
    base:
        Calm-state delay model.
    spike_rate:
        Stationary probability of the congested state (e.g. ``1e-4``).
    mean_spike_length:
        Expected number of consecutive affected messages per episode.
    spike_min, spike_max:
        Added delay range while congested, seconds.
    """

    def __init__(
        self,
        base: DelayModel,
        *,
        spike_rate: float,
        mean_spike_length: float = 10.0,
        spike_min: float = 0.05,
        spike_max: float = 0.5,
    ):
        if not (0.0 <= spike_rate < 1.0):
            raise ConfigurationError(f"spike_rate must lie in [0, 1), got {spike_rate!r}")
        if mean_spike_length < 1.0:
            raise ConfigurationError("mean_spike_length must be >= 1")
        if not (0.0 <= spike_min <= spike_max):
            raise ConfigurationError("need 0 <= spike_min <= spike_max")
        self.base = base
        self.spike_rate = float(spike_rate)
        self.mean_spike_length = float(mean_spike_length)
        self.spike_min = float(spike_min)
        self.spike_max = float(spike_max)
        # Two-state Markov chain: exit congested w.p. 1/L; enter so that the
        # stationary congested probability equals spike_rate.
        self._p_exit = 1.0 / self.mean_spike_length
        if self.spike_rate > 0.0:
            self._p_enter = self._p_exit * self.spike_rate / (1.0 - self.spike_rate)
        else:
            self._p_enter = 0.0

    def _congested_mask(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vectorized two-state chain: geometric sojourns stitched together."""
        if self._p_enter == 0.0 or n == 0:
            return np.zeros(n, dtype=bool)
        mask = np.zeros(n, dtype=bool)
        i = 0
        congested = bool(rng.random() < self.spike_rate)
        # Draw sojourn lengths in bulk to avoid per-step Python overhead.
        while i < n:
            if congested:
                run = int(rng.geometric(self._p_exit))
                mask[i : i + run] = True
            else:
                run = int(rng.geometric(self._p_enter))
            i += run
            congested = not congested
        return mask

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        d = self.base.sample(rng, n)
        mask = self._congested_mask(rng, n)
        k = int(mask.sum())
        if k:
            d[mask] += rng.uniform(self.spike_min, self.spike_max, size=k)
        return d

    def mean(self) -> float:
        return self.base.mean() + self.spike_rate * 0.5 * (
            self.spike_min + self.spike_max
        )
