"""φ FD — the accrual failure detector of Hayashibara et al. (Eqs. 9-10).

Instead of a binary trust/suspect output, the φ FD exposes a continuous
suspicion level::

    φ(t_now) = −log10( P_later(t_now − T_last) )              (Eq. 9)

where ``P_later(t) = 1 − F(t)`` and ``F`` is the CDF of a normal
distribution whose mean ``μ`` and variance ``σ²`` are estimated from the
sampling window of inter-arrival times (Eq. 10).  Applications compare φ
against their own threshold ``Φ``; different applications can act at
different confidence levels from the same monitor (Section III).

Equivalent timeout
------------------
For replay and for hosting φ FD behind the timeout interface, note that
``φ(t) > Φ  ⟺  t > T_last + μ + σ·ndtri(1 − 10^{−Φ})``; the right-hand
side is the φ FD's *equivalent freshness point*.  In float64 the factor
``1 − 10^{−Φ}`` rounds to 1.0 once ``10^{−Φ} < 2^{−53}`` (Φ ≳ 15.95),
making the equivalent timeout infinite — this is precisely the "rounding
errors prevent computing points in the conservative range" behaviour the
paper reports for φ FD (Sections IV-B and V-A2), and we deliberately keep
it rather than computing in log space.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtri

try:  # scipy >= 1.9
    from scipy.special import ndtri_exp as _ndtri_exp
except ImportError:  # pragma: no cover - older scipy
    _ndtri_exp = None

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.base import TimeoutFailureDetector
from repro.detectors.estimation import GapFiller
from repro.detectors.window import SampleWindow

__all__ = ["PhiFD", "phi_equivalent_timeout", "phi_value"]

#: Floor for the estimated σ of the inter-arrival distribution: a perfectly
#: regular window would otherwise make φ a step function and the equivalent
#: timeout exactly μ.
SIGMA_FLOOR = 1e-9


def phi_equivalent_timeout(threshold: float, mu: float, sigma: float) -> float:
    """Relative timeout at which φ crosses ``threshold`` (may be ``inf``).

    Solves ``−log10(1 − F(t)) = Φ`` for ``t``: ``t = μ + σ·ndtri(1−10^{−Φ})``.
    Returns ``inf`` when float64 rounding makes ``1 − 10^{−Φ} == 1.0`` —
    the paper's conservative-range cutoff.
    """
    if threshold <= 0:
        raise ConfigurationError(f"phi threshold must be > 0, got {threshold!r}")
    p = 1.0 - 10.0 ** (-threshold)
    if p >= 1.0:
        return math.inf
    return mu + max(sigma, SIGMA_FLOOR) * float(ndtri(p))


def phi_value(elapsed: float, mu: float, sigma: float) -> float:
    """φ suspicion level for ``elapsed = t_now − T_last`` (Eqs. 9-10).

    Computed through ``log_ndtr`` for numerical range (φ itself is exact
    far beyond the threshold-inversion cutoff; only the *inverse* suffers
    the float64 rounding limit, as in the original implementation).
    """
    sigma = max(sigma, SIGMA_FLOOR)
    z = (elapsed - mu) / sigma
    # P_later = 1 - ndtr(z) = ndtr(-z); phi = -log10(P_later).
    return float(-log_ndtr(-z) / math.log(10.0))


class PhiFD(TimeoutFailureDetector):
    """The φ accrual failure detector.

    Parameters
    ----------
    threshold:
        Application threshold ``Φ`` (paper sweep: ``Φ ∈ [0.5, 16]``).  Used
        for the binary view and the equivalent freshness point; the raw φ
        level is always available via :meth:`suspicion`.
    window_size:
        Inter-arrival sampling window ``WS`` (paper default 1000).
    gap_filler:
        Optional :class:`~repro.detectors.estimation.GapFiller`: when
        heartbeats are lost, fill the window with synthetic inter-arrivals
        instead of one huge sample.  ``None`` (default) matches the
        original φ FD, which samples raw inter-arrivals.
    """

    name = "phi"

    def __init__(
        self,
        threshold: float,
        *,
        window_size: int = 1000,
        gap_filler: GapFiller | None = None,
    ):
        super().__init__(warmup=max(2, window_size))
        self.threshold = threshold
        self._window = SampleWindow(window_size)
        self._gap_filler = gap_filler
        self._prev_arrival: float | None = None
        self._prev_seq: int | None = None

    @property
    def threshold(self) -> float:
        """``Φ``, checked on every assignment: a tuning monitor moves it."""
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        if not (value > 0):
            raise ConfigurationError(f"threshold must be > 0, got {value!r}")
        self._threshold = float(value)

    @property
    def window_size(self) -> int:
        return self._window.capacity

    def interarrival_stats(self) -> tuple[float, float]:
        """Current ``(μ, σ)`` of the windowed inter-arrival distribution."""
        if len(self._window) == 0:
            raise NotWarmedUpError("phi FD has no inter-arrival samples yet")
        return self._window.mean, max(self._window.std, SIGMA_FLOOR)

    def _ingest(self, seq: int, arrival: float, send_time: float | None) -> None:
        if self._prev_arrival is not None:
            assert self._prev_seq is not None
            missing = seq - self._prev_seq - 1
            if missing > 0 and self._gap_filler is not None and len(self._window) >= 2:
                interval = max(self._window.mean, SIGMA_FLOOR)
                synth = self._gap_filler.fill(
                    self._prev_arrival, arrival, missing, interval
                )
                prev = self._prev_arrival
                for t in synth:
                    self._window.push(t - prev)
                    prev = t
                self._window.push(arrival - prev)
            else:
                self._window.push(arrival - self._prev_arrival)
        self._prev_arrival = arrival
        self._prev_seq = seq

    def _next_freshness(self) -> float:
        mu, sigma = self.interarrival_stats()
        return self.last_arrival + phi_equivalent_timeout(self._threshold, mu, sigma)

    def suspicion(self, now: float) -> float:
        """The φ level at ``now`` (accrual scale, not the overdue time)."""
        if not self.ready:
            raise NotWarmedUpError("phi FD still warming up")
        mu, sigma = self.interarrival_stats()
        return phi_value(float(now) - self.last_arrival, mu, sigma)

    def binary_threshold(self) -> float:
        return self._threshold

    #: ``z`` such that ``φ(μ + σz) = level``, cached per level: the wheel
    #: asks for the same three status-boundary levels on every heartbeat.
    _Z_CACHE: dict[float, float] = {}

    def suspicion_eta(self, level: float) -> float:
        """Absolute time at which φ reaches ``level`` (may be ``inf``).

        Inverted in log space (``ndtri_exp``), so unlike the equivalent
        *timeout* of :func:`phi_equivalent_timeout` this stays finite in
        the conservative range φ > 16 — snapshot hosts need the true
        crossing even where the paper's timeout inversion saturates.
        """
        if level <= 0.0:
            return -math.inf
        z = self._Z_CACHE.get(level)
        if z is None:
            if _ndtri_exp is not None:
                z = float(-_ndtri_exp(-level * math.log(10.0)))
            else:  # pragma: no cover - older scipy: saturates like Eq. 9
                p = 1.0 - 10.0 ** (-level)
                z = float(ndtri(p)) if p < 1.0 else math.inf
            self._Z_CACHE[level] = z
        if math.isinf(z):  # pragma: no cover - older scipy only
            return math.inf
        mu, sigma = self.interarrival_stats()
        return self.last_arrival + mu + sigma * z

    def phi_series(self, times: np.ndarray) -> np.ndarray:
        """Vectorized φ levels at several query times (diagnostics)."""
        if not self.ready:
            raise NotWarmedUpError("phi FD still warming up")
        mu, sigma = self.interarrival_stats()
        z = (np.asarray(times, dtype=np.float64) - self.last_arrival - mu) / sigma
        return -log_ndtr(-z) / math.log(10.0)

    def reset(self) -> None:
        self._window.clear()
        self._observed = 0
        self._prev_arrival = None
        self._prev_seq = None
        if self._gap_filler is not None:
            self._gap_filler.reset()
