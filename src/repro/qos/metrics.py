"""Computation of the QoS metrics from replayed or live suspicion episodes.

Two consumers share these routines:

* the vectorized replay engine (:mod:`repro.replay`), which turns whole
  arrays of freshness points into suspicion intervals in one shot, and
* streaming hosts (SFD, the general self-tuning monitor, the membership
  table, the DES monitor), which apply the same rule one arrival at a time
  through :func:`account_arrival` into a :class:`MistakeAccumulator` and
  snapshot a :class:`~repro.qos.spec.QoSReport` from it.

Replay semantics (DESIGN.md §5): after the r-th received heartbeat arrives
at ``A_r`` the detector fixes the freshness point ``FP_r``; if the next
heartbeat arrives at ``A_{r+1} > FP_r`` the detector wrongly suspects the
monitored process during ``[max(FP_r, A_r), A_{r+1})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.qos.spec import QoSReport

__all__ = [
    "suspicion_intervals_from_freshness",
    "qos_from_intervals",
    "qos_from_freshness",
    "MistakeAccumulator",
    "account_arrival",
]


def suspicion_intervals_from_freshness(
    arrivals: np.ndarray, freshness: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extract wrong-suspicion intervals from a replayed freshness series.

    Parameters
    ----------
    arrivals:
        Sorted arrival times ``A_0..A_{R-1}`` of the received heartbeats
        that fall inside the accounted (post-warm-up) period, seconds.
    freshness:
        ``FP_r`` computed after each arrival, same length.  ``FP_r`` guards
        the gap up to ``A_{r+1}``; the trailing element guards nothing (the
        replay cannot know whether a suspicion after the last heartbeat is
        wrong) and is ignored.

    Returns
    -------
    (starts, ends):
        Parallel arrays of suspicion interval bounds, possibly empty.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    freshness = np.asarray(freshness, dtype=np.float64)
    if arrivals.shape != freshness.shape:
        raise ConfigurationError(
            f"arrivals and freshness must align: {arrivals.shape} vs {freshness.shape}"
        )
    if arrivals.size < 2:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    # Suspicion can only begin once the freshness point has been computed,
    # hence the clip at A_r for degenerate FP_r <= A_r.
    starts = np.maximum(freshness[:-1], arrivals[:-1])
    ends = arrivals[1:]
    mask = ends > starts
    return starts[mask], ends[mask]


def qos_from_intervals(
    starts: np.ndarray,
    ends: np.ndarray,
    detection_times: np.ndarray,
    t_begin: float,
    t_end: float,
) -> QoSReport:
    """Aggregate suspicion intervals and TD samples into a QoS report.

    Parameters
    ----------
    starts, ends:
        Wrong-suspicion interval bounds from
        :func:`suspicion_intervals_from_freshness`.
    detection_times:
        Per-heartbeat detection-time samples ``FP_r − σ_{s_r}`` (seconds).
    t_begin, t_end:
        Bounds of the accounted period; ``t_end − t_begin`` is the
        denominator of ``MR`` and ``QAP``.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    mistakes = int(starts.size)
    mistake_time = float(np.sum(ends - starts)) if mistakes else 0.0
    return _report(
        mistakes, mistake_time, *_mean_detection(detection_times), t_begin, t_end
    )


#: Late share of the reveals above which :func:`qos_from_freshness` takes
#: every reveal's lateness in one full-array pass instead of gathering it
#: at the late ones.  Measured over a 500k-heartbeat WAN-JAIST store on a
#: 2-vCPU x86 host, fixed timeouts set to each late share: the gathers
#: cost 0.6 ms with no late reveal, 1.3 ms at 10%, 2.7 ms at 50%, 2.8 ms
#: at 80% and 3.8 ms at 85%; the full pass 1.4, 2.9, 5.5, 3.6 and 3.7 ms
#: (a mask that is mostly set compresses fast again).  The two cross
#: between 80% and 85%; the constant stays below that.
DENSE_LATE_SHARE = 0.75


def qos_from_freshness(
    arrivals: np.ndarray,
    freshness: np.ndarray,
    detection_times: np.ndarray,
    t_begin: float,
    t_end: float,
    *,
    gaps: np.ndarray | None = None,
    late: np.ndarray | None = None,
    rising: np.ndarray | None = None,
) -> QoSReport:
    """Freshness points straight to a QoS report, without interval arrays.

    The replay hot path: equivalent to
    ``qos_from_intervals(*suspicion_intervals_from_freshness(...), ...)``
    bit for bit.  Reveal ``j`` (arrival ``A_{j+1}``) is late iff its gap
    ``fl(A_{j+1} − max(FP_j, A_j))`` is positive, and for finite
    arrivals that holds iff ``A_{j+1} > FP_j`` and ``A_{j+1} > A_j``.
    Under gradual underflow the difference of two finite floats is zero
    only when they are equal, and it is positive exactly when the first
    is larger; a NaN ``FP_j`` makes the maximum NaN and both comparisons
    false, and ``±inf`` compares the same way it subtracts.  So the late
    mask is ``(A[1:] > FP[:-1]) & rising`` with ``rising = A[1:] >
    A[:-1]``, which depends only on the arrivals: callers that account
    many freshness series over one view pass it in (``rising``, aligned
    with ``arrivals[1:]``), and it is built here otherwise.

    The mistake count is the mask's population.  Each late reveal's
    lateness is the same subtraction ``A_{j+1} − max(FP_j, A_j)`` on the
    same elements, taken where the mask is set: gathered at the late
    indices while they are at most :data:`DENSE_LATE_SHARE` of the
    reveals, and over the whole span then compressed when they are more.
    Either way ``np.sum`` runs over the same values in index order, a
    contiguous array of the same length, so the mistake time is the same
    pairwise sum as the two-step path's, without materializing the
    interval-bound arrays.

    ``gaps`` (float64) and ``late`` (bool), each of at least
    ``len(arrivals) − 1`` elements, receive the lateness values and the
    late mask instead of fresh arrays.  The detection-time mean is taken
    first, so ``gaps`` may be the buffer ``detection_times`` lives in.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    freshness = np.asarray(freshness, dtype=np.float64)
    if arrivals.shape != freshness.shape:
        raise ConfigurationError(
            f"arrivals and freshness must align: {arrivals.shape} vs {freshness.shape}"
        )
    td, samples = _mean_detection(detection_times)
    if arrivals.size < 2:
        return _report(0, 0.0, td, samples, t_begin, t_end)
    m = arrivals.size - 1
    following = arrivals[1:]
    if rising is None:
        rising = following > arrivals[:-1]
    late = np.greater(
        following, freshness[:-1], out=None if late is None else late[:m]
    )
    late &= rising
    mistakes = int(np.count_nonzero(late))
    if not mistakes:
        mistake_time = 0.0
    elif mistakes <= m * DENSE_LATE_SHARE:
        at = np.flatnonzero(late)
        wrong = np.empty(mistakes) if gaps is None else gaps[:mistakes]
        # mode="clip" skips take's bounds-checking copy; every index is
        # in range.
        np.take(freshness, at, out=wrong, mode="clip")
        np.maximum(wrong, arrivals[at], out=wrong)
        at += 1
        np.subtract(arrivals[at], wrong, out=wrong)
        mistake_time = float(np.sum(wrong))
    else:
        gaps = np.maximum(
            freshness[:-1], arrivals[:-1], out=None if gaps is None else gaps[:m]
        )
        np.subtract(following, gaps, out=gaps)
        mistake_time = float(np.sum(gaps[late]))
    return _report(mistakes, mistake_time, td, samples, t_begin, t_end)


def _mean_detection(detection_times: np.ndarray) -> tuple[float, int]:
    """``(mean, count)`` of the detection-time samples; NaN when empty."""
    detection_times = np.asarray(detection_times, dtype=np.float64)
    if not detection_times.size:
        return math.nan, 0
    return float(np.mean(detection_times)), int(detection_times.size)


def _report(
    mistakes: int,
    mistake_time: float,
    td: float,
    samples: int,
    t_begin: float,
    t_end: float,
) -> QoSReport:
    """Shared tail of the interval and freshness aggregation paths."""
    if t_end <= t_begin:
        raise ConfigurationError(
            f"accounted period must be positive: [{t_begin!r}, {t_end!r}]"
        )
    total = float(t_end - t_begin)
    # Mistake time can marginally exceed the accounted span when the final
    # suspicion interval extends to the last arrival; clamp to keep QAP in
    # its domain.
    mistake_time = min(mistake_time, total)
    # The streaming rule (MistakeAccumulator.add_detection_sample) as one
    # scalar test per job: a NaN or -inf sample makes the mean so.
    if samples and not td > -math.inf:
        raise ConfigurationError(
            f"detection sample must be a number or +inf, got {td!r}"
        )
    return QoSReport(
        detection_time=td,
        mistake_rate=mistakes / total,
        query_accuracy=1.0 - mistake_time / total,
        mistakes=mistakes,
        mistake_time=mistake_time,
        accounted_time=total,
        samples=samples,
    )


@dataclass
class MistakeAccumulator:
    """Incremental QoS accounting for streaming monitors and feedback slots.

    The accumulator tracks the same quantities as :func:`qos_from_intervals`
    but takes episodes one at a time, so a live monitor (or the SFD slot
    controller) can snapshot the cumulative QoS at any instant — "the output
    QoS of SFD is based on all the former time periods" (Section IV-A).
    Streaming hosts never fill it by hand: :func:`account_arrival` is the
    one rule that starts and feeds it.

    Usage::

        acc = account_arrival(None, arrival, fp, send_time)   # warm-up ends
        acc = account_arrival(acc, arrival, fp, send_time)    # each later one
        report = acc.snapshot(now)
    """

    t_begin: float
    mistakes: int = 0
    mistake_time: float = 0.0
    _td_sum: float = 0.0
    _td_count: int = 0
    #: ``max(FP, A)`` of the last accounted arrival: where the host's output
    #: starts suspecting if no heartbeat comes, so a later arrival reveals
    #: one wrong suspicion beginning here.
    suspect_from: float = math.nan

    def add_detection_sample(self, td: float) -> None:
        """Record one detection-time sample (seconds).

        ``+inf`` is a legal sample: a freshness point past φ's float64
        cutoff never expires, and replay reports ``TD = inf`` for it.  NaN
        and ``-inf`` can only come from a broken freshness point.
        """
        if not td > -math.inf:
            raise ConfigurationError(
                f"detection sample must be a number or +inf, got {td!r}"
            )
        self._td_sum += td
        self._td_count += 1

    def add_mistake(self, start: float, end: float) -> None:
        """Record one completed wrong-suspicion interval ``[start, end)``."""
        if end <= start:
            return
        self.mistakes += 1
        self.mistake_time += end - start

    @property
    def detection_time(self) -> float:
        """Running mean of the detection-time samples (NaN if none)."""
        if self._td_count == 0:
            return math.nan
        return self._td_sum / self._td_count

    @property
    def td_sum(self) -> float:
        """Cumulative sum of detection-time samples (the feedback slot tally)."""
        return self._td_sum

    @property
    def td_count(self) -> int:
        """Number of detection-time samples so far."""
        return self._td_count

    def snapshot(self, now: float) -> QoSReport:
        """Cumulative QoS over ``[t_begin, now]``."""
        if now <= self.t_begin:
            raise ConfigurationError(
                f"snapshot time {now!r} must exceed t_begin {self.t_begin!r}"
            )
        total = now - self.t_begin
        mistake_time = min(self.mistake_time, total)
        return QoSReport(
            detection_time=self.detection_time,
            mistake_rate=self.mistakes / total,
            query_accuracy=1.0 - mistake_time / total,
            mistakes=self.mistakes,
            mistake_time=mistake_time,
            accounted_time=total,
            samples=self._td_count,
        )


def account_arrival(
    acc: MistakeAccumulator | None,
    arrival: float,
    freshness: float,
    origin: float,
) -> MistakeAccumulator:
    """DESIGN.md §5's rule for one arrival at a warmed-up streaming detector.

    The one self-accounting path of every streaming host: SFD, the general
    self-tuning monitor, the membership table and the DES monitor.  Call it
    after the detector consumed the heartbeat, with the freshness point
    ``FP`` that heartbeat fixed and its origin ``σ`` (the sender stamp, or
    the arrival itself when the heartbeat carries none).

    * ``acc=None``: warm-up ended with this arrival, so accounting starts
      here (the warm-up period is discarded, as in replay).
    * Otherwise the arrival is checked against the freshness point fixed
      after the previous one: a late arrival reveals one wrong suspicion
      over ``[max(FP_prev, A_prev), arrival)``.
    * Either way ``FP − σ`` is one detection-time sample.  An infinite
      freshness point gives ``TD = inf`` and no mistakes, as replay does.

    Returns the accumulator (a new one when ``acc`` is ``None``).
    """
    if acc is None:
        acc = MistakeAccumulator(t_begin=arrival)
    elif arrival > acc.suspect_from:
        acc.add_mistake(acc.suspect_from, arrival)
    acc.add_detection_sample(freshness - origin)
    # Suspicion can only begin once the freshness point has been computed
    # (the replay's clip at A_r for degenerate FP_r <= A_r).
    acc.suspect_from = max(freshness, arrival)
    return acc
