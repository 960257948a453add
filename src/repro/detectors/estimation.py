"""Arrival-time estimators and loss gap-filling shared by the detectors.

Three pieces of the paper's Section III/IV machinery live here:

* :class:`ChenEstimator` — the expected-arrival estimator of Chen, Toueg &
  Aguilera (Eq. 2), written in the algebraically equivalent O(1) form
  ``EA = mean(A) + Δ·(s_next − mean(s))`` over the sliding window, which
  also handles sequence gaps from lost heartbeats correctly.
* :class:`JacobsonEstimator` — Bertier's dynamic safety margin (Eqs. 4-7),
  the failure-detection analogue of Jacobson's RTT estimation.
* :class:`GapFiller` — the time-series fill of Section IV-C2 for lost
  heartbeats, ``d_i = Δt·n_ag + d_{i−1}`` (Nunes & Jansch-Pôrto), which in
  arrival-time terms advances each missing heartbeat's synthetic arrival by
  ``Δt·(1 + n_ag)`` past its predecessor.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.window import HeartbeatWindow

__all__ = ["ChenEstimator", "JacobsonEstimator", "GapFiller"]


class ChenEstimator:
    """Chen's expected arrival time EA over a sliding heartbeat window.

    Eq. (2) of the paper estimates the next theoretical arrival from the
    last ``n`` samples::

        EA(k+1) = (1/n) Σ_{i∈window} (A_i − Δ·i)  +  (k+1)·Δ

    With window running sums this collapses to the O(1) identity
    ``EA = mean(A) + Δ·(s_next − mean(s))`` where ``s_next`` is the next
    expected sequence number.  ``Δ`` is either the *nominal* sending
    interval (Chen's original formulation, where the interval is protocol
    knowledge) or the windowed estimate of Section IV-C2 — both are
    supported via ``nominal_interval``.  The windowed estimate is O(1)
    too (:meth:`HeartbeatWindow.interval_estimate` reads the window's
    oldest and newest heartbeats, never a copy of the window), so one
    query costs the same at ``WS = 5`` and at the paper's ``WS = 1000``.

    Parameters
    ----------
    window:
        The shared :class:`~repro.detectors.window.HeartbeatWindow`.
    nominal_interval:
        If given (> 0), use this fixed ``Δ``; otherwise estimate ``Δ``
        from the window on every query.
    """

    __slots__ = ("_window", "_nominal")

    def __init__(self, window: HeartbeatWindow, nominal_interval: float | None = None):
        if nominal_interval is not None and nominal_interval <= 0:
            raise ConfigurationError(
                f"nominal_interval must be > 0, got {nominal_interval!r}"
            )
        self._window = window
        self._nominal = nominal_interval

    @property
    def window(self) -> HeartbeatWindow:
        return self._window

    def interval(self) -> float:
        """The ``Δ`` in effect (nominal, or windowed estimate)."""
        if self._nominal is not None:
            return self._nominal
        return self._window.interval_estimate()

    def expected_arrival(self) -> float:
        """EA for the *next* heartbeat (sequence ``last_seq + 1``)."""
        w = self._window
        if len(w) < 2:
            raise NotWarmedUpError("Chen estimator needs >= 2 heartbeats")
        delta = self.interval()
        next_seq = w.last_seq + 1
        return w.mean_arrival + delta * (next_seq - w.mean_seq)


class JacobsonEstimator:
    """Bertier's dynamic safety margin (Eqs. 4-7).

    Per received heartbeat, with ``e_k = A_k − EA_k`` the raw estimation
    error::

        error_k    = e_k − delay_k
        delay_k+1  = delay_k + γ·error_k
        var_k+1    = var_k + γ·(|error_k| − var_k)
        α_k+1      = β·delay_k+1 + φ·var_k+1

    The paper's Eq. (7) prints ``var_k``; Bertier's original (DSN'02) and
    Jacobson's scheme both use the updated variance, so we use ``var_k+1``
    (the difference is a one-step lag with no qualitative effect; the
    vectorized replay matches this implementation exactly).

    Typical values (Section III): ``β = 1``, ``φ = 4``, ``γ = 0.1``.
    """

    __slots__ = ("beta", "phi", "gamma", "delay", "var")

    def __init__(
        self,
        *,
        beta: float = 1.0,
        phi: float = 4.0,
        gamma: float = 0.1,
        initial_delay: float = 0.0,
        initial_var: float = 0.0,
    ):
        if not (0.0 < gamma <= 1.0):
            raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma!r}")
        if beta < 0 or phi < 0:
            raise ConfigurationError("beta and phi must be >= 0")
        self.beta = float(beta)
        self.phi = float(phi)
        self.gamma = float(gamma)
        self.delay = float(initial_delay)
        self.var = float(initial_var)

    def update(self, raw_error: float) -> float:
        """Consume one raw error ``e_k = A_k − EA_k``; return ``α_{k+1}``."""
        if not math.isfinite(raw_error):
            raise ConfigurationError(f"raw error must be finite, got {raw_error!r}")
        error = raw_error - self.delay
        self.delay += self.gamma * error
        self.var += self.gamma * (abs(error) - self.var)
        return self.margin()

    def margin(self) -> float:
        """Current ``α = β·delay + φ·var``."""
        return self.beta * self.delay + self.phi * self.var


class GapFiller:
    """Loss gap-filling for sampling windows (Section IV-C2).

    When heartbeats are lost, the receiver cannot observe their delays; the
    paper fills the gap with the time-series value
    ``d_i = Δt·n_ag + d_{i−1}``, where ``n_ag`` is "the average number of
    observed adjacent gaps".  Equivalently, each missing heartbeat's
    synthetic arrival time advances ``Δt·(1 + n_ag)`` past its predecessor
    (send times step by ``Δt``, delays by ``Δt·n_ag``).

    This class tracks ``n_ag`` as the running mean length of loss bursts
    and produces the synthetic arrival times for a gap; callers cap the
    synthetic arrivals at the real next arrival (a fill may not postdate
    the observation that revealed the gap).

    Parameters
    ----------
    mode:
        ``"series"`` (paper formula, default) or ``"even"`` (linear
        interpolation between the surrounding real arrivals — a common
        engineering simplification kept for ablations).
    """

    __slots__ = ("mode", "_gap_count", "_gap_total")

    def __init__(self, mode: str = "series"):
        if mode not in ("series", "even"):
            raise ConfigurationError(f"unknown gap-fill mode {mode!r}")
        self.mode = mode
        self._gap_count = 0
        self._gap_total = 0

    @property
    def average_gap(self) -> float:
        """``n_ag``: mean loss-burst length observed so far (0 if none)."""
        if self._gap_count == 0:
            return 0.0
        return self._gap_total / self._gap_count

    def fill(
        self,
        prev_arrival: float,
        next_arrival: float,
        missing: int,
        interval: float,
    ) -> list[float]:
        """Synthetic arrivals for ``missing`` lost heartbeats in a gap.

        Parameters
        ----------
        prev_arrival:
            Arrival time of the last received heartbeat before the gap.
        next_arrival:
            Arrival time of the first received heartbeat after the gap
            (upper clamp for the synthetic values).
        missing:
            Number of lost heartbeats (>= 1).
        interval:
            Current sending-interval estimate ``Δt``.

        Returns
        -------
        list of ``missing`` synthetic arrival times, non-decreasing, within
        ``(prev_arrival, next_arrival]``.
        """
        if missing < 1:
            raise ConfigurationError(f"missing must be >= 1, got {missing!r}")
        if next_arrival < prev_arrival:
            raise ConfigurationError("next_arrival must be >= prev_arrival")
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval!r}")
        self._gap_count += 1
        self._gap_total += missing
        out: list[float] = []
        if self.mode == "even":
            step = (next_arrival - prev_arrival) / (missing + 1)
            out = [prev_arrival + step * (j + 1) for j in range(missing)]
        else:
            step = interval * (1.0 + self.average_gap)
            t = prev_arrival
            for _ in range(missing):
                t = min(t + step, next_arrival)
                out.append(t)
        return out

    def reset(self) -> None:
        self._gap_count = 0
        self._gap_total = 0
