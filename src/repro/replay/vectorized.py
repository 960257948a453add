"""Closed-form vectorized freshness-point computations.

Each function maps a :class:`~repro.traces.trace.MonitorView` (arrival
times + sequence numbers of the received heartbeats) to the array of
freshness points ``FP[r]`` the corresponding streaming detector would
produce — the value fixed after heartbeat ``r`` arrives, guarding the gap
until the next arrival.

Key identities used (derivations in the docstrings):

* Chen's Eq. (2) over a window reduces to
  ``EA = mean(A) + Δ·(s_next − mean(s))`` — two sliding means, computed by
  cumulative sums on *origin-shifted* values to avoid catastrophic
  cancellation on long traces.
* A sliding sum is a difference of two shifted slices of one prefix-sum
  array ``c``: past the filling prefix, the sums of every window of
  ``w`` are ``c[w:] − c[:n − w + 1]`` and the count is the scalar ``w``,
  so no index array is built or gathered.  The same holds for the
  windowed spans ``A[r] − A[r − w + 1]`` behind Chen's ``Δ``.
* Bertier's Eqs. (5-6) are first-order linear recurrences
  ``y_k = (1−γ)·y_{k−1} + γ·u_k``, solved in one pass each by
  :func:`scipy.signal.lfilter` (imported on first use: ``scipy.signal``
  pulls in ``scipy.stats``, which nothing else a monitor runs needs).
* The φ threshold inverts to a *scalar* normal quantile:
  ``FP = A + μ + σ·ndtri(1 − 10^{−Φ})`` — the float64 rounding cutoff at
  ``Φ ≳ 15.95`` (``1 − 10^{−Φ} == 1.0``) is deliberately preserved, as the
  paper leans on it ("rounding errors prevent computing points in the
  conservative range").
* Sliding quantiles of full windows are order statistics at fixed ranks,
  selected in C by :func:`scipy.ndimage.rank_filter`; numpy's
  interpolation between them then runs as ufuncs, so the result stays
  bitwise equal to the streaming sorted window.
* SFD's margin changes only at slot boundaries, so its replay is the
  feedback loop's slot recurrence over ~(heartbeats/slot) slots.  What
  does not depend on the margin is its stage: each slot's detection-time
  sum and *late bounds*, margins at or above which none of the slot's
  arrivals is late.  A slot runs array code only when a margin is below
  its bound; rounded addition is monotone, so skipping the others is
  exact.

Families whose sweep parameter enters late are split in two: a *stage*
function computes the arrays that do not depend on the swept parameter
(``chen_expected_arrivals``, ``phi_stage``, ``quantile_stage``,
``ml_prediction_arrays``, ``sfd_stage``), and an ``*_evaluate`` function
turns a stage into one grid point's freshness points.  The public
``*_freshness`` functions are exactly that composition; the registry's
kernels compose the same two steps through a stage shared by a whole
sweep group, and chen, bertier and sfd read one Chen ``EA`` per trace.

Stages write every intermediate into a few preallocated buffers
(``out=``) in the order the plain expressions would evaluate, operands
in their written order, so each element sees the same IEEE operations on
the same operands and the results are equal bit for bit; only the number
of view-length temporaries a call first-touches changes.  An
``*_evaluate`` function returns a fresh array of its own.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.ndimage import rank_filter
from scipy.special import ndtri

from repro.errors import ConfigurationError
from repro.core.feedback import (
    FeedbackController,
    FeedbackDriver,
    InfeasiblePolicy,
    LinearSlots,
    SlotConfig,
    TuningRecord,
    TuningStatus,
)
from repro.detectors.ml import ML_JITTER_FLOOR, OnlineArrivalPredictor
from repro.detectors.phi import SIGMA_FLOOR
from repro.detectors.window import SortedWindow
from repro.qos.spec import QoSRequirements
from repro.traces.trace import MonitorView

__all__ = [
    "chen_expected_arrivals",
    "chen_evaluate",
    "chen_freshness",
    "bertier_freshness",
    "bertier_evaluate",
    "phi_stage",
    "phi_evaluate",
    "phi_freshness",
    "quantile_stage",
    "quantile_evaluate",
    "quantile_freshness",
    "fixed_freshness",
    "ml_prediction_arrays",
    "ml_evaluate",
    "ml_freshness",
    "sfd_stage",
    "sfd_evaluate",
    "sfd_freshness",
    "SFDStage",
    "KernelRun",
]


@dataclass
class KernelRun:
    """Result of one vectorized kernel run.

    The freshness-point array (``FP[r]`` aligned with the view, NaN before
    warm-up) plus the self-tuning artifacts only feedback-driven families
    (SFD) produce: the tuned margin after the last slot, the feedback
    state at the end of the run, and the feedback loop that ran, whose
    per-slot :class:`~repro.core.feedback.TuningRecord` history is
    :attr:`tuning`.  Every registry kernel returns one, which is what lets
    :func:`repro.replay.engine.replay` stay family-agnostic.
    """

    freshness: np.ndarray
    final_margin: float | None = None
    status: TuningStatus | None = None
    feedback: FeedbackDriver | None = field(default=None, repr=False)

    @property
    def tuning(self) -> list[TuningRecord]:
        """Per-slot feedback decisions (SFD only), built when first read."""
        return [] if self.feedback is None else self.feedback.trace


def _require_view(view: MonitorView, minimum: int) -> None:
    if len(view) < minimum:
        raise ConfigurationError(
            f"monitor view has {len(view)} heartbeats, need >= {minimum}"
        )


def _window_means(c: np.ndarray, w: int, out: np.ndarray) -> np.ndarray:
    """Sliding means ``out[r] = Σ x[lo .. r] / (r − lo + 1)``.

    Here ``lo = max(0, r − w + 1)``, and ``c`` holds the prefix sums of
    ``x``: ``c[0] = 0`` and ``c[1:] = cumsum(x)``.  The filling prefix (``r < w − 1``) subtracts ``c[0]``
    and divides by its counts ``1 .. w − 1``; every full window is the
    shifted slice difference ``c[w:] − c[:n − w + 1]`` divided by the
    scalar ``w``.  Element for element these are the IEEE operations of
    gathering ``c[r + 1] − c[lo]`` and dividing by an array of counts.
    """
    n = out.size
    k = min(w - 1, n)
    np.subtract(c[1 : k + 1], c[0], out=out[:k])
    np.subtract(c[w:], c[: n - k], out=out[k:])
    np.divide(out[:k], np.arange(1, k + 1, dtype=np.float64), out=out[:k])
    np.divide(out[k:], float(w), out=out[k:])
    return out


def _window_spans(v: np.ndarray, w: int, out: np.ndarray) -> np.ndarray:
    """``out[r] = v[r] − v[max(0, r − w + 1)]`` as two slice differences."""
    n = v.size
    k = min(w - 1, n)
    np.subtract(v[:k], v[0], out=out[:k])
    np.subtract(v[w - 1 :], v[: n - k], out=out[k:])
    return out


def chen_expected_arrivals(
    view: MonitorView,
    window: int,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """``EA[r]``: Chen's prediction for the heartbeat after received index r.

    Matches :class:`~repro.detectors.estimation.ChenEstimator` over the
    (possibly still-filling) window ending at ``r``; ``EA[0]`` is NaN (a
    single sample predicts nothing).

    Computed as ``mean_a + Δ·((s + 1) − mean_s)`` with each term written
    into one of three view-length buffers plus a prefix-sum array, so a
    call first-touches four arrays (the result included).
    """
    _require_view(view, 2)
    if window < 2:
        raise ConfigurationError(f"window must be >= 2, got {window!r}")
    arrivals = view.arrivals
    n = arrivals.size
    seq = view.seq.astype(np.float64)
    ea = np.empty(n, dtype=np.float64)  # mean_a, then EA
    tail = np.empty(n, dtype=np.float64)  # mean_s, then Δ·((s + 1) − mean_s)
    c = np.empty(n + 1, dtype=np.float64)  # prefix sums, then scratch
    c[0] = 0.0
    # Origin-shift to keep cumulative sums small (cancellation control).
    a0, s0 = arrivals[0], seq[0]
    np.subtract(arrivals, a0, out=ea)
    np.cumsum(ea, out=c[1:])
    _window_means(c, window, ea)
    ea += a0
    np.subtract(seq, s0, out=tail)
    np.cumsum(tail, out=c[1:])
    _window_means(c, window, tail)
    tail += s0
    np.add(seq, 1.0, out=c[1:])
    np.subtract(c[1:], tail, out=tail)
    if nominal_interval is not None:
        np.multiply(float(nominal_interval), tail, out=tail)
    else:
        span_s = _window_spans(seq, window, c[1:])
        delta = _window_spans(arrivals, window, seq)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(delta, span_s, out=delta)
        np.multiply(delta, tail, out=tail)
    ea += tail
    ea[0] = np.nan
    return ea


def chen_freshness(
    view: MonitorView,
    alpha: float,
    *,
    window: int = 1000,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """Chen FD freshness points: ``FP[r] = EA[r] + α`` (Eq. 3)."""
    return chen_evaluate(chen_expected_arrivals(view, window, nominal_interval), alpha)


def chen_evaluate(ea: np.ndarray, alpha: float) -> np.ndarray:
    """Eq. (3) on a prepared :func:`chen_expected_arrivals` array."""
    if alpha < 0:
        raise ConfigurationError(f"alpha must be >= 0, got {alpha!r}")
    return ea + float(alpha)


def bertier_freshness(
    view: MonitorView,
    *,
    beta: float = 1.0,
    phi: float = 4.0,
    gamma: float = 0.1,
    window: int = 1000,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """Bertier FD freshness points (Eqs. 4-8): :func:`bertier_evaluate`
    on :func:`chen_expected_arrivals`."""
    return bertier_evaluate(
        view,
        chen_expected_arrivals(view, window, nominal_interval),
        beta=beta,
        phi=phi,
        gamma=gamma,
        window=window,
        nominal_interval=nominal_interval,
    )


def bertier_evaluate(
    view: MonitorView,
    ea: np.ndarray,
    *,
    beta: float = 1.0,
    phi: float = 4.0,
    gamma: float = 0.1,
    window: int = 1000,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """Bertier's margin on a prepared Chen ``EA``, via two ``lfilter`` passes.

    The EWMA recurrences ``delay_k = (1−γ)delay_{k−1} + γ e_k`` and
    ``var_k = (1−γ)var_{k−1} + γ|e_k − delay_{k−1}|`` are linear constant-
    coefficient filters; ``lfilter([γ], [1, −(1−γ)], u)`` solves each in a
    single C pass.  Error samples start at received index 2 (the first
    prediction needs two samples), matching the streaming detector.
    ``ea`` is :func:`chen_expected_arrivals` at ``window`` and
    ``nominal_interval``; it is read, never written.
    """
    _require_view(view, 3)
    if not (0.0 < gamma <= 1.0):
        raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma!r}")
    from scipy.signal import lfilter

    arrivals = view.arrivals
    seq = view.seq
    n = arrivals.size
    # Raw error of the prediction made at r−1 for the heartbeat received at
    # r, shifted by any loss gap at the estimated interval (see
    # BertierFD._ingest); the first usable error is for received index 2.
    gaps = seq[2:] - seq[1:-1]
    gaps -= 1
    e = gaps.astype(np.float64)
    del gaps
    if nominal_interval is not None:
        e *= float(nominal_interval)
    else:
        delta = _window_spans(arrivals, window, np.empty(n, dtype=np.float64))
        span_s = _window_spans(seq, window, np.empty(n, dtype=seq.dtype))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(delta, span_s, out=delta)
        del span_s
        e *= delta[1:-1]
        del delta
    np.add(ea[1:-1], e, out=e)
    np.subtract(arrivals[2:], e, out=e)
    b, a = [gamma], [1.0, -(1.0 - gamma)]
    delay = lfilter(b, a, e)
    # |e − delay_prev| with delay_prev = (0, delay[:-1]); |e[0] − 0| is
    # |e[0]| exactly, so only the tail is subtracted.
    np.subtract(e[1:], delay[:-1], out=e[1:])
    np.abs(e, out=e)
    var = lfilter(b, a, e)
    del e
    np.multiply(beta, delay, out=delay)
    np.multiply(phi, var, out=var)
    delay += var
    del var
    fp = np.empty(n, dtype=np.float64)
    np.add(ea[:2], 0.0, out=fp[:2])
    np.add(ea[2:], delay, out=fp[2:])
    return fp


def phi_freshness(
    view: MonitorView,
    threshold: float,
    *,
    window: int = 1000,
) -> np.ndarray:
    """φ FD equivalent freshness points.

    ``φ(t) > Φ ⟺ t > A_r + μ_r + σ_r·ndtri(1 − 10^{−Φ})``; μ/σ are the
    windowed inter-arrival moments after heartbeat ``r`` (population
    variance, like :class:`~repro.detectors.window.SampleWindow`).
    Returns all-``inf`` beyond the float64 threshold cutoff.
    """
    return phi_evaluate(phi_stage(view, window), threshold)


def phi_stage(view: MonitorView, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The threshold-free part of φ: ``(A_r + μ_r, σ_r)`` for ``r >= 1``.

    ``μ = Σx/n`` and ``σ² = Σx²/n − μ²`` over the trailing gaps, each
    written into one of three gap-length buffers, two of which are the
    result.
    """
    _require_view(view, 2)
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window!r}")
    arrivals = view.arrivals
    x = np.diff(arrivals)  # x[j] = inter-arrival ending at heartbeat j+1
    m = x.size
    c = np.empty(m + 1, dtype=np.float64)  # prefix sums, then μ²
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    mean = _window_means(c, window, np.empty(m, dtype=np.float64))
    np.multiply(x, x, out=x)
    np.cumsum(x, out=c[1:])
    sigma = _window_means(c, window, x)  # Σx²/n, then σ
    np.multiply(mean, mean, out=c[1:])
    sigma -= c[1:]
    del c
    np.maximum(sigma, 0.0, out=sigma)
    np.sqrt(sigma, out=sigma)
    np.maximum(sigma, SIGMA_FLOOR, out=sigma)
    np.add(arrivals[1:], mean, out=mean)
    return mean, sigma


def phi_evaluate(
    stage: tuple[np.ndarray, np.ndarray], threshold: float
) -> np.ndarray:
    """``FP[r] = (A_r + μ_r) + σ_r·z(Φ)`` on a prepared :func:`phi_stage`."""
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be > 0, got {threshold!r}")
    base, sigma = stage
    fp = np.empty(base.size + 1, dtype=np.float64)
    fp[0] = np.nan
    body = fp[1:]
    p = 1.0 - 10.0 ** (-float(threshold))
    if p >= 1.0:
        # Paper-faithful conservative-range cutoff.
        body[:] = np.inf
        return fp
    np.multiply(sigma, float(ndtri(p)), out=body)
    np.add(base, body, out=body)
    return fp


def quantile_freshness(
    view: MonitorView,
    quantile: float,
    *,
    window: int = 1000,
) -> np.ndarray:
    """Quantile-timeout FD freshness points (the [34-35] family).

    ``FP[r] = A_r + Quantile_q(trailing inter-arrivals)`` over
    ``np.diff(arrivals)``, computed by :func:`quantile_stage` and
    bit-identical to the streaming
    :class:`~repro.detectors.quantile.QuantileFD` (and to ``np.quantile``
    over each window).  Indices below ``window`` use the partially
    filled window; index 0 is NaN.
    """
    return quantile_evaluate(
        view, quantile_stage(view, (quantile,), window=window), quantile
    )


def _quantile_ok(q: float) -> bool:
    return 0.0 < q <= 1.0


def quantile_stage(
    view: MonitorView, quantiles, *, window: int
) -> dict[float, np.ndarray]:
    """Trailing-window inter-arrival quantiles for every ``q``.

    The first ``window − 1`` gaps, whose window is still filling, walk one
    :class:`~repro.detectors.window.SortedWindow` — the streaming
    detector's structure — and record every ``q`` after each push.  Every
    full window has ``n = window`` samples, so each ``q`` needs the same
    one or two ranks at every index: :func:`scipy.ndimage.rank_filter`
    selects each distinct rank of the group over all full windows in one
    C pass, with ``origin`` set so that output ``j`` reads
    ``x[j − window + 1 .. j]``.  The interpolation then repeats
    :meth:`SortedWindow.quantile <repro.detectors.window.SortedWindow.quantile>`
    as numpy ufuncs, one float64 operation at a time.

    The result is bitwise equal to the streaming detector: a rank filter
    returns an element of the window and does no arithmetic on it, and
    ufuncs do not fuse operations, so ``v``, ``g`` and the lerp round
    exactly as the scalar code does.  Quantiles outside ``(0, 1]`` are
    skipped; :func:`quantile_evaluate` rejects them, so one bad grid
    point fails alone.
    """
    _require_view(view, 2)
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window!r}")
    qs = sorted({float(q) for q in quantiles if _quantile_ok(q)})
    if not qs:
        return {}
    x = np.diff(view.arrivals)
    samples = SortedWindow(window)
    # A rank filter would pass a NaN through: reject the first non-finite
    # gap up front with the error SortedWindow.push raises for it.
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        samples.push(x[bad[0]])
    # Filling prefix: the streaming structure, read after every push.
    heads = {q: array("d") for q in qs}
    push = samples.push
    quantile_of = samples.quantile
    appends = [(q, heads[q].append) for q in qs]
    for gap in x[: window - 1].tolist():
        push(gap)
        for q, append in appends:
            append(quantile_of(q))
    columns = {q: np.frombuffer(head, dtype=np.float64) for q, head in heads.items()}
    if x.size < window:
        return columns
    # Full windows: n − 1 = window − 1 for every index.
    top = window - 1
    ranks: dict[int, np.ndarray] = {}

    def order_stat(rank: int) -> np.ndarray:
        if rank not in ranks:
            ranks[rank] = rank_filter(x, rank, size=window, origin=top // 2)[top:]
        return ranks[rank]

    for q in qs:
        v = top * q
        if v >= top:
            tail = order_stat(top)
        else:
            lo = math.floor(v)
            g = v - lo
            a = order_stat(lo)
            b = order_stat(lo + 1)
            if g < 0.5:
                tail = a + (b - a) * g
            else:
                tail = b - (b - a) * (1.0 - g)
        columns[q] = np.concatenate((columns[q], tail))
    return columns


def quantile_evaluate(
    view: MonitorView, stage: dict[float, np.ndarray], quantile: float
) -> np.ndarray:
    """``FP[r] = A_r + Quantile_q`` on a prepared :func:`quantile_stage`."""
    if not _quantile_ok(quantile):
        raise ConfigurationError(f"quantile must lie in (0, 1], got {quantile!r}")
    arrivals = view.arrivals
    fp = np.full(arrivals.size, np.nan, dtype=np.float64)
    fp[1:] = arrivals[1:] + stage[float(quantile)]
    return fp


def fixed_freshness(view: MonitorView, timeout: float) -> np.ndarray:
    """Fixed-timeout baseline freshness points: ``FP[r] = A_r + timeout``.

    The static freshness interval of Section II-B — no estimator, so every
    received heartbeat (including the first) fixes a point.
    """
    _require_view(view, 2)
    if timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout!r}")
    return view.arrivals + float(timeout)


def ml_prediction_arrays(
    view: MonitorView,
    *,
    lr: float = 0.05,
    window: int = 16,
    decay: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-index learned gap predictions and jitter scales for a view.

    Runs the streaming :class:`~repro.detectors.ml.MLFD`'s own NLMS loop
    (:meth:`~repro.detectors.ml.OnlineArrivalPredictor.extend`) over
    ``np.diff(arrivals)`` in one call, so ``pred[r]``/``jitter[r]`` are
    bit-identical to the streaming model's state after heartbeat ``r``
    by construction — the learned recursion has no closed form to
    vectorize, exactly as SFD's feedback loop doesn't.  Index 0 is NaN
    (no gap yet).  A non-finite gap is rejected up front with the
    :class:`ConfigurationError` a streaming update raises for it.

    The arrays are margin-independent: they are the family's stage, and
    every grid point of a sweep evaluates one shared pass
    (:func:`ml_evaluate`).
    """
    _require_view(view, 2)
    gaps = np.diff(view.arrivals)
    predictor = OnlineArrivalPredictor(lr=lr, window=window, decay=decay)
    finite = np.isfinite(gaps)
    if not finite.all():
        predictor.update(gaps[finite.argmin()])  # raises for the first bad gap
    pred = array("d", [math.nan])
    jit = array("d", [math.nan])
    predictor.extend(gaps.tolist(), pred, jit)
    return (
        np.frombuffer(pred, dtype=np.float64),
        np.frombuffer(jit, dtype=np.float64),
    )


def ml_freshness(
    view: MonitorView,
    margin: float,
    *,
    lr: float = 0.05,
    window: int = 16,
    decay: float = 0.1,
) -> np.ndarray:
    """ML FD freshness points: ``FP[r] = A_r + ŷ_r + margin·(jitter_r+floor)``.

    The elementwise combination matches the streaming detector's
    ``deadline`` arithmetic operation for operation (same addends, same
    rounding), so the result is bit-identical to a streaming replay.
    """
    stage = ml_prediction_arrays(view, lr=lr, window=window, decay=decay)
    return ml_evaluate(view, stage, margin)


def ml_evaluate(
    view: MonitorView, stage: tuple[np.ndarray, np.ndarray], margin: float
) -> np.ndarray:
    """The ML deadline on a prepared :func:`ml_prediction_arrays` pair."""
    if margin < 0:
        raise ConfigurationError(f"margin must be >= 0, got {margin!r}")
    pred, jit = stage
    return view.arrivals + (pred + float(margin) * (jit + ML_JITTER_FLOOR))


def sfd_freshness(
    view: MonitorView,
    requirements: QoSRequirements,
    *,
    sm1: float | None = None,
    alpha: float = 0.1,
    beta: float = 0.5,
    window: int = 1000,
    nominal_interval: float | None = None,
    slot: SlotConfig | None = None,
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP,
    sm_bounds: tuple[float, float] = (0.0, math.inf),
) -> KernelRun:
    """SFD freshness points with the per-slot feedback of Eqs. (11-13).

    Semantics mirror :class:`repro.core.sfd.SFD` exactly: accounting starts
    at the warm-up boundary (received index ``window − 1``); the margin
    adjusts once every ``slot.heartbeats`` received heartbeats based on the
    *cumulative* measured QoS; detection-time samples use the sender
    timestamps carried by the trace.
    """
    slot = slot if slot is not None else SlotConfig()
    stage = sfd_stage(
        view,
        chen_expected_arrivals(view, window, nominal_interval),
        window=window,
        heartbeats=slot.heartbeats,
    )
    return sfd_evaluate(
        view,
        stage,
        requirements,
        sm1=sm1,
        alpha=alpha,
        beta=beta,
        slot=slot,
        policy=policy,
        sm_bounds=sm_bounds,
    )


@dataclass(frozen=True, eq=False)
class SFDStage:
    """The margin-independent part of SFD's replay (one per sweep group).

    ``ea`` is :func:`chen_expected_arrivals` at ``window``, and ``slots``
    holds what every full slot contributes whatever the margin (see
    :class:`~repro.core.feedback.LinearSlots`).  Slot ``k`` covers
    received indices ``[r0 + k·h, r0 + (k+1)·h)`` for ``r0 = window − 1``
    and ``h = slots.heartbeats``.
    """

    ea: np.ndarray
    window: int
    slots: LinearSlots


def sfd_stage(
    view: MonitorView, ea: np.ndarray, *, window: int, heartbeats: int
) -> SFDStage:
    """SFD's stage on a prepared Chen ``EA`` array: per full slot, its
    ``Σ(EA − σ)`` (one row-wise reduce, equal to ``np.sum`` of the slot's
    slice), its late bounds (:func:`_late_bounds`, :func:`_first_bounds`)
    and the arrival that closes it, and the scan of a slot's late reveals
    (:func:`_late_reveals`) over the view's arrivals and ``ea``."""
    _require_view(view, window + 1)
    arrivals = view.arrivals
    r0 = window - 1  # first index with a full window (streaming `ready`)
    count = (arrivals.size - r0) // heartbeats
    end = r0 + count * heartbeats  # [end, n) is the trailing partial slot
    a_rows = arrivals[r0:end].reshape(count, heartbeats)
    ea_rows = ea[r0:end].reshape(count, heartbeats)
    # TD[r] = FP[r] − σ_r = (EA[r] − σ_r) + SM, so a slot adds
    # Σ(EA − σ) + SM·h to the detection-time tally.
    td = np.add.reduce(
        (ea[r0:end] - view.send_times[r0:end]).reshape(count, heartbeats), axis=1
    )
    return SFDStage(
        ea,
        window,
        LinearSlots(
            heartbeats,
            td.tolist(),
            _late_bounds(a_rows, ea_rows).tolist(),
            _first_bounds(a_rows, ea_rows).tolist(),
            a_rows[:, -1].tolist(),
            # A plain array over the same memory: a memmap-backed view
            # would run memmap's Python hooks on every slice of every scan.
            partial(_late_reveals, np.asarray(arrivals), ea, r0, heartbeats),
        ),
    )


def sfd_evaluate(
    view: MonitorView,
    stage: SFDStage,
    requirements: QoSRequirements,
    *,
    sm1: float | None = None,
    alpha: float = 0.1,
    beta: float = 0.5,
    slot: SlotConfig | None = None,
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP,
    sm_bounds: tuple[float, float] = (0.0, math.inf),
) -> KernelRun:
    """SFD's per-slot feedback loop on a prepared :func:`sfd_stage`.

    Accounting starts at index ``r0 = window − 1``.  Mistakes are
    attributed to the *revealing* arrival, as streaming discovers a late
    heartbeat when it arrives, so the snapshot that closes a slot at its
    last arrival has seen exactly the reveals up to it.  A slot's first
    reveal is guarded by the previous slot's margin and its body reveals
    by its own margin ``SM``.

    One call of the feedback loop's slot recurrence
    (:meth:`~repro.core.feedback.FeedbackDriver.close_slots`) tallies and
    closes every slot.  A slot whose margins are at least its bounds adds
    no mistake: none of its reveals is late.  For a slot that may hold a
    late heartbeat, the recurrence calls the stage's scan
    (:func:`_late_reveals`) with the slot's margin and the previous one,
    adds the late count and lateness to its tallies, and closes the slot
    without leaving its loop.

    The skip is exact, not approximate.  Rounded float64 addition is
    monotone, so ``SM ≥ T`` gives ``fl(EA + SM) ≥ fl(EA + T) ≥ A`` for
    every reveal a bound ``T`` covers, where the second inequality is the
    exact check the bound passed.  A skipped slot therefore adds 0
    mistakes and 0.0 mistake time, which is what scanning it would add.
    Freshness points are written once at the end, with the last margin on
    the trailing partial slot; that slot never closes, so its tallies are
    not computed.
    """
    slot = slot if slot is not None else SlotConfig()
    if sm1 is None:
        sm1 = alpha
    if not (sm1 >= 0):
        raise ConfigurationError(f"SM1 must be >= 0, got {sm1!r}")
    if not (0.0 <= sm_bounds[0]):
        raise ConfigurationError(f"invalid sm_bounds {sm_bounds!r}")
    slots = stage.slots
    h = slot.heartbeats
    if slots.heartbeats != h:
        raise ConfigurationError(
            f"stage has {slots.heartbeats}-heartbeat slots, slot asks for {h}"
        )
    arrivals = view.arrivals
    ea = stage.ea
    n = arrivals.size
    r0 = stage.window - 1
    count = len(slots.ends)
    end = r0 + count * h
    driver = FeedbackDriver(
        FeedbackController(requirements, alpha=alpha, beta=beta, policy=policy),
        slot,
        sm_bounds,
    )
    # Cumulative [mistakes, mistake_time, td_sum, td_count], as
    # MistakeAccumulator keeps them, and each slot's margin.
    tally = [0, 0.0, 0.0, 0]
    margins = array("d")
    sm = driver.close_slots(
        driver.clamp(float(sm1)), float(arrivals[r0]), tally, None, slots, margins
    )
    fp = np.empty(n, dtype=np.float64)
    fp[:r0] = np.nan
    np.add(
        ea[r0:end].reshape(count, h),
        np.frombuffer(margins, dtype=np.float64)[:, None],
        out=fp[r0:end].reshape(count, h),
    )
    fp[end:] = ea[end:] + sm
    return KernelRun(
        freshness=fp, final_margin=sm, status=driver.status, feedback=driver
    )


def _late_reveals(
    arrivals: np.ndarray,
    ea: np.ndarray,
    r0: int,
    h: int,
    k: int,
    sm: float,
    sm_prev: float,
) -> tuple[int, float]:
    """The late reveals of slot ``k``: their count and summed lateness.

    SFD's stage binds the first four arguments; the slot recurrence calls
    the rest as ``scan(k, SM_k, SM_{k−1})``.  Arrival ``j`` reveals the
    gap after ``j − 1``, guarded by ``FP[j − 1] = EA[j − 1] + SM``: the
    slot's first arrival by the previous slot's last point (margin
    ``sm_prev``), the others by the slot's own (``sm``).  Slot 0's first
    arrival, index ``r0``, reveals nothing.
    """
    start = r0 + k * h
    lo = start + 1 if k == 0 else start
    stop = start + h
    gap = ea[lo - 1 : stop - 1] + sm  # the guards, then the gaps, in place
    if k:
        gap[0] = ea[start - 1] + sm_prev
    np.maximum(gap, arrivals[lo - 1 : stop - 1], out=gap)
    np.subtract(arrivals[lo:stop], gap, out=gap)
    late = gap > 0.0
    count = int(np.count_nonzero(late))
    if not count:
        return 0, 0.0
    # np.add.reduce is np.sum's reduction without its Python wrapper.
    return count, float(np.add.reduce(gap[late]))


def _late_bounds(a_rows: np.ndarray, ea_rows: np.ndarray) -> np.ndarray:
    """Per slot, a margin at or above which no body reveal is late.

    Row ``k`` holds slot ``k``'s arrivals ``A`` and Chen predictions
    ``EA``.  Body reveal ``j`` (every column but the first) is late under
    margin ``SM`` iff ``A_j > max(fl(EA_{j−1} + SM), A_{j−1})``, so only
    reveals with ``A_j > A_{j−1}`` can be.  The bound ``T`` is the largest
    ``fl(A_j − EA_{j−1})`` over those, or ``−inf`` when there are none.
    ``fl(EA_{j−1} + T) ≥ A_j`` is then checked exactly for each of them.
    It holds whenever the subtraction is exact, which Sterbenz's lemma
    guarantees while ``A_j`` and ``EA_{j−1}`` are within a factor of two;
    a slot that fails, which includes a NaN bound, gets ``T = +inf`` and
    is scanned under any finite margin.
    """
    body = a_rows[:, 1:]
    idle = ~(body > a_rows[:, :-1])
    need = body - ea_rows[:, :-1]
    need[idle] = -np.inf
    bound = np.max(need, axis=1, initial=-np.inf)
    np.add(ea_rows[:, :-1], bound[:, None], out=need)
    covered = need >= body
    covered |= idle
    bound[~covered.all(axis=1)] = np.inf
    return bound


def _first_bounds(a_rows: np.ndarray, ea_rows: np.ndarray) -> np.ndarray:
    """Per slot, a previous-slot margin at or above which the slot's first
    reveal is not late.

    Slot ``k``'s first arrival ``A`` is late under the previous slot's
    margin ``SM`` iff ``A > max(fl(EA_p + SM), A_p)``, where ``A_p`` and
    ``EA_p`` end the previous row.  The bound is ``−inf`` when ``A ≤ A_p``
    and for slot 0, whose first arrival reveals nothing.  Otherwise it is
    ``fl(A − EA_p)`` if ``fl(EA_p + fl(A − EA_p)) ≥ A`` holds exactly, as
    in :func:`_late_bounds`, and ``+inf`` if it does not (NaN included).
    """
    bound = np.full(a_rows.shape[0], -np.inf)
    first = a_rows[1:, 0]
    ea_prev = ea_rows[:-1, -1]
    idle = ~(first > a_rows[:-1, -1])
    need = first - ea_prev
    need[idle] = -np.inf
    need[~((ea_prev + need >= first) | idle)] = np.inf
    bound[1:] = need
    return bound
