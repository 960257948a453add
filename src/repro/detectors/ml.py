"""ML FD — online learned arrival-time prediction (Li & Marin 2022).

"Towards Implementing ML-Based Failure Detectors" (PAPERS.md) argues that
the Chen-style closed-form estimator families the 2012 paper compares can
be replaced wholesale by a *learned* arrival-time predictor trained online
on the heartbeat stream itself.  This module is that family, kept honest
by the same contracts every other family obeys: a streaming
:class:`MLFD` here, an exactly-matching replay kernel
(:func:`repro.replay.vectorized.ml_freshness`), and registry descriptors
binding spec, grid, and parser (``ml:lr=0.05,window=16,margin=2.0``).

The model is deliberately lightweight — normalized least-mean-squares
(NLMS, the recursive form of SGD on a linear model) over a handful of
inter-arrival features:

* the last observed inter-arrival gap,
* the sliding-window mean gap (lag window of size ``window``),
* an exponentially weighted moving average of the gaps (decay ``decay``),
* an EWMA of the absolute deviation from that average (the *jitter*).

Prediction of the next gap is ``ŷ = w·x``; after the true gap ``g``
arrives the weights update by the NLMS rule

    w ← w + lr · (g − ŷ) · x / (ε + ‖x‖²)

whose step normalization keeps the recursion stable under heavy-tailed
gaps (unnormalized SGD diverges on exactly the loss bursts WAN traces
contain).  The freshness point guarding the next heartbeat is

    FP = A_last + ŷ + margin · (jitter + ML_JITTER_FLOOR)

so the sweep parameter ``margin`` scales a *learned* uncertainty estimate
— the analogue of φ's threshold and Bertier's Jacobson gains — and the
freshness deadline is strictly monotone in ``margin`` (the floor keeps
the scale positive even on perfectly regular links).

Everything is stdlib floats and deterministic.  The recursion is written
once, as :meth:`OnlineArrivalPredictor.extend`: the streaming detector
feeds it one gap per heartbeat and the replay stage a whole trace per
call, so given the same trace both produce bit-identical freshness points
(the registry-wide differential harness asserts it), which is the
precondition for judging a learned detector on the paper's own QoS
accounting.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Iterable, Mapping, MutableSequence

from repro.errors import ConfigurationError, NotWarmedUpError
from repro.detectors.base import TimeoutFailureDetector

__all__ = ["ML_JITTER_FLOOR", "NLMS_EPSILON", "OnlineArrivalPredictor", "MLFD"]

#: Floor added to the learned jitter scale so ``margin`` always buys a
#: strictly positive widening of the deadline (perfectly regular windows
#: drive the jitter EWMA to 0, like φ's ``SIGMA_FLOOR`` situation).
ML_JITTER_FLOOR = 1e-9

#: Regularizer in the NLMS step normalization ``lr·err·x/(ε + ‖x‖²)``:
#: bounds the step when the feature vector is tiny (sub-microsecond gaps).
NLMS_EPSILON = 1e-12

#: Feature count: bias, last gap, window mean, EWMA, jitter.
_N_FEATURES = 5


class OnlineArrivalPredictor:
    """Online NLMS regression over recent inter-arrival features.

    This is the *shared sequential core* of the ``ml`` family, and
    :meth:`extend` is its one loop: the streaming :class:`MLFD` feeds it
    one gap per heartbeat (through :meth:`update`), and the replay stage
    feeds it ``np.diff(arrivals)`` in one call — one implementation, so
    the two planes cannot drift apart.  The learned recursion has no
    closed form; what the one-call form saves is Python overhead, not
    arithmetic.

    Parameters
    ----------
    lr:
        NLMS learning rate, in ``(0, 2)`` (the classical stability range).
    window:
        Lag-window length for the sliding mean feature (also the
        detector's warm-up, matching the replay convention).
    decay:
        EWMA decay in ``(0, 1]`` for the average-gap and jitter features.
    """

    __slots__ = (
        "lr",
        "window",
        "decay",
        "_weights",
        "_ring",
        "_head",
        "_sum",
        "_ewma",
        "_jitter",
        "_count",
        "_features",
        "_yhat",
    )

    def __init__(self, *, lr: float = 0.05, window: int = 16, decay: float = 0.1):
        if not (0.0 < lr < 2.0):
            raise ConfigurationError(f"lr must lie in (0, 2), got {lr!r}")
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window!r}")
        if not (0.0 < decay <= 1.0):
            raise ConfigurationError(f"decay must lie in (0, 1], got {decay!r}")
        self.lr = float(lr)
        self.window = int(window)
        self.decay = float(decay)
        self.reset()

    # -- online learning ------------------------------------------------ #

    @property
    def samples(self) -> int:
        """Gaps consumed so far."""
        return self._count

    @property
    def jitter(self) -> float:
        """Current EWMA of absolute deviation from the average gap."""
        return self._jitter

    def update(self, gap: float) -> None:
        """Consume one inter-arrival gap: :meth:`extend` over that gap,
        after rejecting a non-finite one with :class:`ConfigurationError`."""
        gap = float(gap)
        if not math.isfinite(gap):
            raise ConfigurationError(f"gap must be finite, got {gap!r}")
        self.extend((gap,))

    def extend(
        self,
        gaps: Iterable[float],
        pred: MutableSequence[float] | None = None,
        jitter: MutableSequence[float] | None = None,
    ) -> None:
        """Consume finite inter-arrival gaps in order: the NLMS recursion.

        Each gap first serves as the *target* for the prediction made
        from the previous feature vector (one NLMS step), then it is
        folded into the lag window / EWMA state from which the next
        feature vector and prediction are formed.  After each gap the
        next prediction (as :meth:`predict` returns it) is appended to
        ``pred`` and the jitter to ``jitter``, when given.

        This loop is the family's only implementation of the recursion:
        :meth:`update` feeds it one gap per heartbeat, and
        :func:`repro.replay.vectorized.ml_prediction_arrays` feeds it a
        whole trace in one call, so both planes run the same float64
        operations in the same order.  The state is read into locals
        once and written back once, and ``w·x`` is computed once per gap
        and kept as the next step's ``ŷ``.  A window sum past
        ``float_info.max / window``, or one that has overflowed, is added
        up from the ring again at every gap, so huge gaps stop poisoning
        the mean once they leave the window.  The gaps are not checked
        here; both callers reject a non-finite gap first.
        """
        # ``-inf < v < inf`` is ``math.isfinite(v)`` without a call per gap.
        inf = math.inf
        lr, window, decay = self.lr, self.window, self.decay
        # The window's running sum is exact enough below ``limit``, under
        # which ``window`` gaps cannot overflow.  A sum past it (inf
        # included) holds a gap that swallows the others, and subtracting
        # that gap when it leaves would take their share along; so such a
        # sum is added up from the ring after every gap, which restores
        # the window's sum once the huge gaps have left.
        limit = sys.float_info.max / window
        w0, w1, w2, w3, w4 = self._weights
        ring, head, total = self._ring, self._head, self._sum
        ewma, jit, count, yhat = self._ewma, self._jitter, self._count, self._yhat
        filled = len(ring)
        if count:
            # The bias feature x0 is always 1.0, so its products fold away.
            _, x1, x2, x3, x4 = self._features
        append_pred = pred.append if pred is not None else None
        append_jitter = jitter.append if jitter is not None else None
        for gap in gaps:
            if count:
                err = gap - yhat
                if -inf < err < inf:
                    step = lr * err / (
                        NLMS_EPSILON
                        + ((((1.0 + x1 * x1) + x2 * x2) + x3 * x3) + x4 * x4)
                    )
                    if -inf < step < inf:
                        w0 += step
                        w1 += step * x1
                        w2 += step * x2
                        w3 += step * x3
                        w4 += step * x4
                # Jitter is the deviation from the pre-update EWMA, like
                # Jacobson's variance estimator.
                dev = gap - ewma
                ewma += decay * dev
                jit += decay * (abs(dev) - jit)
            else:
                ewma = gap
                jit = 0.0
            # Lag window: a ring buffer with a running sum, added up from
            # the ring instead while it is past ``limit``.
            resum = not (-limit < total < limit)
            if filled == window:
                total -= ring[head]
                ring[head] = gap
                head += 1
                if head == window:
                    head = 0
            else:
                ring.append(gap)
                filled += 1
            total += gap
            if resum:
                total = 0.0
                for kept in ring:
                    total += kept
            count += 1
            x1, x2, x3, x4 = gap, total / filled, ewma, jit
            yhat = w0 + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4
            if append_pred is not None:
                # A negative or non-finite ŷ falls back to the window mean.
                if 0.0 <= yhat < inf:
                    append_pred(yhat)
                elif 0.0 <= x2 < inf:
                    append_pred(x2)
                else:
                    append_pred(0.0)
            if append_jitter is not None:
                append_jitter(jit)
        self._weights = [w0, w1, w2, w3, w4]
        self._head, self._sum, self._count, self._yhat = head, total, count, yhat
        self._ewma, self._jitter = ewma, jit
        if count:
            self._features = (1.0, x1, x2, x3, x4)

    def predict(self) -> float:
        """Predicted next inter-arrival gap (always finite, never < 0).

        A learned linear model can momentarily predict a negative or — in
        adversarial float ranges — non-finite gap; those fall back to the
        sliding-window mean (and a non-finite mean to 0), so the
        freshness contract (finite deadlines from finite inputs) holds
        unconditionally.
        """
        if not self._count:
            raise NotWarmedUpError("ml predictor has no gap samples yet")
        p = self._yhat
        if 0.0 <= p < math.inf:
            return p
        p = self._sum / len(self._ring)
        return p if 0.0 <= p < math.inf else 0.0

    def deadline(self, margin: float) -> float:
        """Relative freshness deadline: ``ŷ + margin·(jitter + floor)``.

        Strictly increasing in ``margin`` — the floor keeps the scale
        positive — up to float64 granularity: an increment below the
        prediction's ulp (the bare floor against a huge ŷ) is absorbed.
        The property suite pins exactly that contract.
        """
        if margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {margin!r}")
        return self.predict() + margin * (self._jitter + ML_JITTER_FLOOR)

    # -- checkpointing --------------------------------------------------- #

    def to_dict(self) -> dict[str, Any]:
        """Full state as plain JSON-ready types (checkpoint format)."""
        return {
            "lr": self.lr,
            "window": self.window,
            "decay": self.decay,
            "weights": list(self._weights),
            "ring": list(self._ring),
            "head": self._head,
            "sum": self._sum,
            "ewma": self._ewma,
            "jitter": self._jitter,
            "count": self._count,
            "features": list(self._features) if self._features is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OnlineArrivalPredictor":
        """Inverse of :meth:`to_dict`: the restored predictor replays
        bit-identically to the one that was checkpointed.

        Only a state :meth:`extend` can reach is accepted: ``count >= 0``;
        the ring holds ``min(count, window)`` gaps; ``head`` is 0 while the
        ring fills and an index into it once full; ``features`` is None
        exactly when ``count`` is 0, and otherwise five values led by the
        bias 1.0.
        """
        try:
            out = cls(
                lr=data["lr"], window=data["window"], decay=data["decay"]
            )
            weights = [float(v) for v in data["weights"]]
            ring = [float(v) for v in data["ring"]]
            head = int(data["head"])
            count = int(data["count"])
            feats = data["features"]
            features = (
                tuple(float(v) for v in feats) if feats is not None else None
            )
            out._sum = float(data["sum"])
            out._ewma = float(data["ewma"])
            out._jitter = float(data["jitter"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"bad ml predictor state: {exc}"
            ) from exc
        window = out.window
        if len(weights) != _N_FEATURES:
            raise ConfigurationError(
                f"expected {_N_FEATURES} weights, got {len(weights)}"
            )
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if len(ring) != min(count, window):
            raise ConfigurationError(
                f"ring must hold min(count, window) = {min(count, window)} "
                f"gaps, got {len(ring)}"
            )
        if not (0 <= head < window if len(ring) == window else head == 0):
            raise ConfigurationError(
                f"head {head} is outside the ring: it must be 0 while the "
                f"ring fills and in [0, {window}) once it is full"
            )
        if (features is None) != (count == 0):
            raise ConfigurationError(
                f"features must be None exactly when count is 0 "
                f"(count {count}, features {feats!r})"
            )
        if features is not None:
            if len(features) != _N_FEATURES or features[0] != 1.0:
                raise ConfigurationError(
                    f"features must be {_N_FEATURES} values led by the bias "
                    f"1.0, got {feats!r}"
                )
            # The next step's ŷ, as extend would have left it.
            w, x = weights, features
            out._yhat = w[0] + w[1] * x[1] + w[2] * x[2] + w[3] * x[3] + w[4] * x[4]
        out._weights = weights
        out._ring = ring
        out._head = head
        out._count = count
        out._features = features
        return out

    def reset(self) -> None:
        """Back to the cold-start state of a new predictor."""
        # Start by trusting the sliding mean (weight 1 on that feature):
        # the cold-start prediction is the windowed mean gap, which NLMS
        # then refines — deterministic, no random initialization.
        self._weights = [0.0, 0.0, 1.0, 0.0, 0.0]
        self._ring: list[float] = []
        self._head = 0
        self._sum = 0.0
        self._ewma = 0.0
        self._jitter = 0.0
        self._count = 0
        self._features: tuple[float, ...] | None = None
        # w·x for the current features: the next step's ŷ (unused while
        # count is 0).
        self._yhat = 0.0


class MLFD(TimeoutFailureDetector):
    """Learned failure detector: online NLMS gap prediction + margin.

    Parameters
    ----------
    margin:
        Sweep parameter: multiples of the learned jitter added to the
        predicted arrival (>= 0).  Small values are aggressive, large
        conservative — same Section V semantics as every other family.
    lr:
        NLMS learning rate (see :class:`OnlineArrivalPredictor`).
    window_size:
        Lag-window length; also the warm-up, so the replay convention
        (accounting from received index ``window − 1``) matches the
        streaming ``ready`` flag exactly.
    decay:
        EWMA decay for the average-gap / jitter features.
    """

    name = "ml"

    def __init__(
        self,
        margin: float = 2.0,
        *,
        lr: float = 0.05,
        window_size: int = 16,
        decay: float = 0.1,
    ):
        if margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {margin!r}")
        super().__init__(warmup=max(2, window_size))
        self.margin = float(margin)
        self._predictor = OnlineArrivalPredictor(
            lr=lr, window=window_size, decay=decay
        )

    @property
    def window_size(self) -> int:
        return self._predictor.window

    @property
    def predictor(self) -> OnlineArrivalPredictor:
        """The live learned model (for checkpointing and diagnostics)."""
        return self._predictor

    def _ingest(self, seq: int, arrival: float, send_time: float | None) -> None:
        # Base `observe` updates `_last_arrival` *after* _ingest, so here
        # it still holds the previous heartbeat's arrival time.
        if self._observed > 0:
            self._predictor.update(arrival - self._last_arrival)

    def _next_freshness(self) -> float:
        return self.last_arrival + self._predictor.deadline(self.margin)

    def predicted_gap(self) -> float:
        """The model's current next-gap prediction (diagnostics)."""
        return self._predictor.predict()

    def reset(self) -> None:
        self._predictor.reset()
        self._observed = 0
