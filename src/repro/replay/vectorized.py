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
* Bertier's Eqs. (5-6) are first-order linear recurrences
  ``y_k = (1−γ)·y_{k−1} + γ·u_k``, solved in one pass each by
  :func:`scipy.signal.lfilter`.
* The φ threshold inverts to a *scalar* normal quantile:
  ``FP = A + μ + σ·ndtri(1 − 10^{−Φ})`` — the float64 rounding cutoff at
  ``Φ ≳ 15.95`` (``1 − 10^{−Φ} == 1.0``) is deliberately preserved, as the
  paper leans on it ("rounding errors prevent computing points in the
  conservative range").
* Sliding quantiles of full windows are order statistics at fixed ranks,
  selected in C by :func:`scipy.ndimage.rank_filter`; numpy's
  interpolation between them then runs as ufuncs, so the result stays
  bitwise equal to the streaming sorted window.
* SFD's margin changes only at slot boundaries, so its replay is a loop
  over ~(heartbeats/slot) slots with vectorized work inside each.

Families whose sweep parameter enters late are split in two: a *stage*
function computes the arrays that do not depend on the swept parameter
(``chen_expected_arrivals``, ``phi_stage``, ``quantile_stage``,
``ml_prediction_arrays``), and an ``*_evaluate`` function turns a stage
into one grid point's freshness points.  The public ``*_freshness``
functions are exactly that composition; the registry's kernels compose
the same two steps through a stage shared by a whole sweep group.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import rank_filter
from scipy.signal import lfilter
from scipy.special import ndtri

from repro.errors import ConfigurationError
from repro.core.feedback import (
    FeedbackController,
    FeedbackDriver,
    InfeasiblePolicy,
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
    "sfd_evaluate",
    "sfd_freshness",
    "KernelRun",
]


@dataclass
class KernelRun:
    """Result of one vectorized kernel run.

    The freshness-point array (``FP[r]`` aligned with the view, NaN before
    warm-up) plus the self-tuning artifacts only feedback-driven families
    (SFD) produce: the per-slot :class:`~repro.core.feedback.TuningRecord`
    history, the tuned margin after the last slot and the feedback state
    at the end of the run.  Every registry kernel returns one, which is
    what lets :func:`repro.replay.engine.replay` stay family-agnostic.
    """

    freshness: np.ndarray
    tuning: list[TuningRecord] = field(default_factory=list)
    final_margin: float | None = None
    status: TuningStatus | None = None


def _require_view(view: MonitorView, minimum: int) -> None:
    if len(view) < minimum:
        raise ConfigurationError(
            f"monitor view has {len(view)} heartbeats, need >= {minimum}"
        )


def _trailing(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding sums ``s[r] = Σ x[max(0, r−w+1) .. r]`` and window counts."""
    c = np.empty(x.size + 1, dtype=np.float64)
    c[0] = 0.0
    np.cumsum(x, out=c[1:])
    idx = np.arange(x.size)
    lo = np.maximum(idx - w + 1, 0)
    return c[idx + 1] - c[lo], (idx - lo + 1).astype(np.float64)


def chen_expected_arrivals(
    view: MonitorView,
    window: int,
    nominal_interval: float | None = None,
) -> np.ndarray:
    """``EA[r]``: Chen's prediction for the heartbeat after received index r.

    Matches :class:`~repro.detectors.estimation.ChenEstimator` over the
    (possibly still-filling) window ending at ``r``; ``EA[0]`` is NaN (a
    single sample predicts nothing).
    """
    _require_view(view, 2)
    if window < 2:
        raise ConfigurationError(f"window must be >= 2, got {window!r}")
    arrivals = view.arrivals
    seq = view.seq.astype(np.float64)
    # Origin-shift to keep cumulative sums small (cancellation control).
    a0, s0 = arrivals[0], seq[0]
    rel_a = arrivals - a0
    rel_s = seq - s0
    sum_a, cnt = _trailing(rel_a, window)
    sum_s, _ = _trailing(rel_s, window)
    mean_a = sum_a / cnt + a0
    mean_s = sum_s / cnt + s0
    idx = np.arange(arrivals.size)
    lo = np.maximum(idx - window + 1, 0)
    if nominal_interval is not None:
        delta = np.full(arrivals.size, float(nominal_interval))
    else:
        span_a = arrivals - arrivals[lo]
        span_s = seq - seq[lo]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = span_a / span_s
    ea = mean_a + delta * (seq + 1.0 - mean_s)
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
    """Bertier FD freshness points (Eqs. 4-8) via two ``lfilter`` passes.

    The EWMA recurrences ``delay_k = (1−γ)delay_{k−1} + γ e_k`` and
    ``var_k = (1−γ)var_{k−1} + γ|e_k − delay_{k−1}|`` are linear constant-
    coefficient filters; ``lfilter([γ], [1, −(1−γ)], u)`` solves each in a
    single C pass.  Error samples start at received index 2 (the first
    prediction needs two samples), matching the streaming detector.
    """
    _require_view(view, 3)
    if not (0.0 < gamma <= 1.0):
        raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma!r}")
    arrivals = view.arrivals
    seq = view.seq
    ea = chen_expected_arrivals(view, window, nominal_interval)
    # Raw error of the prediction made at r−1 for the heartbeat received at
    # r, shifted by any loss gap at the estimated interval (see
    # BertierFD._ingest).
    idx = np.arange(arrivals.size)
    lo = np.maximum(idx - window + 1, 0)
    if nominal_interval is not None:
        delta = np.full(arrivals.size, float(nominal_interval))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (arrivals - arrivals[lo]) / (seq - seq[lo]).astype(np.float64)
    gaps = (seq[1:] - seq[:-1] - 1).astype(np.float64)
    e = arrivals[1:] - (ea[:-1] + gaps * delta[:-1])  # e[j] ~ heartbeat j+1
    e = e[1:]  # first usable error is for received index 2
    b, a = [gamma], [1.0, -(1.0 - gamma)]
    delay = lfilter(b, a, e)
    delay_prev = np.empty_like(delay)
    delay_prev[0] = 0.0
    delay_prev[1:] = delay[:-1]
    var = lfilter(b, a, np.abs(e - delay_prev))
    margin = np.zeros(arrivals.size, dtype=np.float64)
    margin[2:] = beta * delay + phi * var
    fp = ea + margin
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
    """The threshold-free part of φ: ``(A_r + μ_r, σ_r)`` for ``r >= 1``."""
    _require_view(view, 2)
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window!r}")
    arrivals = view.arrivals
    x = np.diff(arrivals)  # x[j] = inter-arrival ending at heartbeat j+1
    sum_x, cnt = _trailing(x, window)
    sum_x2, _ = _trailing(x * x, window)
    mean = sum_x / cnt
    var = sum_x2 / cnt - mean * mean
    sigma = np.sqrt(np.maximum(var, 0.0))
    np.maximum(sigma, SIGMA_FLOOR, out=sigma)
    return arrivals[1:] + mean, sigma


def phi_evaluate(
    stage: tuple[np.ndarray, np.ndarray], threshold: float
) -> np.ndarray:
    """``FP[r] = (A_r + μ_r) + σ_r·z(Φ)`` on a prepared :func:`phi_stage`."""
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be > 0, got {threshold!r}")
    base, sigma = stage
    fp = np.full(base.size + 1, np.nan, dtype=np.float64)
    p = 1.0 - 10.0 ** (-float(threshold))
    if p >= 1.0:
        # Paper-faithful conservative-range cutoff.
        fp[1:] = np.inf
        return fp
    fp[1:] = base + sigma * float(ndtri(p))
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
    fp = np.full(view.arrivals.size, np.nan)
    fp[1:] = view.arrivals[1:] + float(timeout)
    fp[0] = view.arrivals[0] + float(timeout)
    return fp


def ml_prediction_arrays(
    view: MonitorView,
    *,
    lr: float = 0.05,
    window: int = 16,
    decay: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-index learned gap predictions and jitter scales for a view.

    Runs the *same* sequential NLMS core the streaming
    :class:`~repro.detectors.ml.MLFD` uses
    (:class:`~repro.detectors.ml.OnlineArrivalPredictor`) over
    ``np.diff(arrivals)``, so ``pred[r]``/``jitter[r]`` are bit-identical
    to the streaming model's state after heartbeat ``r`` by construction
    — the learned recursion has no closed form to vectorize, exactly as
    SFD's feedback loop doesn't.  Index 0 is NaN (no gap yet).

    The arrays are margin-independent: they are the family's stage, and
    every grid point of a sweep evaluates one shared pass
    (:func:`ml_evaluate`).
    """
    _require_view(view, 2)
    arrivals = view.arrivals
    n = arrivals.size
    pred = np.full(n, np.nan, dtype=np.float64)
    jit = np.full(n, np.nan, dtype=np.float64)
    predictor = OnlineArrivalPredictor(lr=lr, window=window, decay=decay)
    gaps = np.diff(arrivals)
    update = predictor.update
    predict = predictor.predict
    for j in range(1, n):
        update(gaps[j - 1])
        pred[j] = predict()
        jit[j] = predictor.jitter
    return pred, jit


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
    return sfd_evaluate(
        view,
        chen_expected_arrivals(view, window, nominal_interval),
        requirements,
        sm1=sm1,
        alpha=alpha,
        beta=beta,
        window=window,
        slot=slot,
        policy=policy,
        sm_bounds=sm_bounds,
    )


def sfd_evaluate(
    view: MonitorView,
    ea: np.ndarray,
    requirements: QoSRequirements,
    *,
    sm1: float | None = None,
    alpha: float = 0.1,
    beta: float = 0.5,
    window: int = 1000,
    slot: SlotConfig | None = None,
    policy: InfeasiblePolicy = InfeasiblePolicy.STOP,
    sm_bounds: tuple[float, float] = (0.0, math.inf),
) -> KernelRun:
    """SFD's per-slot feedback loop on a prepared Chen ``EA`` array.

    ``ea`` is :func:`chen_expected_arrivals` at ``window`` — the part of
    the replay that no margin decision feeds back into.
    """
    slot = slot if slot is not None else SlotConfig()
    if sm1 is None:
        sm1 = alpha
    if not (0.0 <= sm_bounds[0]):
        raise ConfigurationError(f"invalid sm_bounds {sm_bounds!r}")
    _require_view(view, window + 1)
    arrivals = view.arrivals
    sends = view.send_times
    n = arrivals.size
    r0 = window - 1  # first index with a full window (streaming `ready`)
    base_td = ea - sends  # TD[r] = FP[r] − σ_r = (EA[r] − σ_r) + SM
    driver = FeedbackDriver(
        FeedbackController(requirements, alpha=alpha, beta=beta, policy=policy),
        slot,
        sm_bounds,
    )
    sm = driver.clamp(float(sm1))
    fp = np.full(n, np.nan, dtype=np.float64)
    # Cumulative accounting scalars (mirror MistakeAccumulator): mistakes
    # are attributed to the *revealing* arrival (streaming discovers a late
    # heartbeat when it arrives), so a slot snapshot at arrival `stop−1`
    # has seen exactly the reveals with index <= stop−1.
    td_sum = 0.0
    td_count = 0
    mistakes = 0
    mistake_time = 0.0
    t_begin = float(arrivals[r0])
    start = r0
    while start < n:
        stop = min(start + slot.heartbeats, n)  # segment [start, stop)
        seg = slice(start, stop)
        fp[seg] = ea[seg] + sm
        td_sum += float(np.sum(base_td[seg])) + sm * (stop - start)
        td_count += stop - start
        # Reveals in this segment: arrivals j in (start, stop) check the
        # guard fp[j−1] (possibly written with the previous slot's margin;
        # fp is filled progressively so that value is already final).  The
        # first segment's first reveal is r0+1.
        j0 = start + 1 if start == r0 else start
        if stop > j0:
            gap = arrivals[j0:stop] - np.maximum(
                fp[j0 - 1 : stop - 1], arrivals[j0 - 1 : stop - 1]
            )
            pos = gap > 0.0
            mistakes += int(np.count_nonzero(pos))
            mistake_time += float(np.sum(gap[pos]))
        if stop - start == slot.heartbeats:
            # Full slot completed: streaming closes it at the arrival of
            # the slot's last heartbeat (index stop−1).
            sm = driver.close_slot(
                float(arrivals[stop - 1]),
                sm,
                t_begin,
                mistakes,
                mistake_time,
                td_sum,
                td_count,
            )
        start = stop
    return KernelRun(
        freshness=fp, tuning=driver.trace, final_margin=sm, status=driver.status
    )
