"""Sliding sample windows backed by preallocated numpy ring buffers.

Every adaptive detector in the paper keeps "the most recent n samples in a
sliding window" (Sections III and IV-C).  The windows here give O(1)
insertion and O(1) running mean/variance (maintained sums, not rescans), so
streaming detectors stay cheap even with the paper's WS = 1000 default, and
tiny windows — which Section V-C reports are *better* for Chen FD and SFD —
cost nothing.

Numerical note: running sums drift after ~1e7 float64 additions; the
windows recompute their sums from the buffer every ``RECOMPUTE_EVERY``
insertions to keep the error bounded without changing the O(1) amortized
cost.

:class:`SortedWindow` serves the order-statistic detectors instead: it
keeps its samples sorted, so a windowed quantile is an index lookup.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque

import numpy as np

from repro.errors import ConfigurationError, NotWarmedUpError

__all__ = ["SampleWindow", "SortedWindow", "HeartbeatWindow"]

#: Refresh running sums from the raw buffer this often (amortized O(1)).
RECOMPUTE_EVERY = 65536


class SampleWindow:
    """Fixed-capacity sliding window over scalar samples.

    Maintains running first and second moments so ``mean``/``variance``
    are O(1).  Used for the φ FD's inter-arrival window and anywhere a
    plain recent-history statistic is needed.

    Parameters
    ----------
    capacity:
        Window size ``WS`` (number of retained samples), must be >= 1.
    """

    __slots__ = ("_buf", "_capacity", "_count", "_head", "_sum", "_sumsq", "_pushes")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"window capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._buf = np.zeros(self._capacity, dtype=np.float64)
        self._count = 0
        self._head = 0  # next write slot
        self._sum = 0.0
        self._sumsq = 0.0
        self._pushes = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        """True once the warm-up is over (window completely filled)."""
        return self._count == self._capacity

    def push(self, value: float) -> float | None:
        """Insert ``value``; return the evicted sample or ``None``.

        The oldest sample is pushed out once the window is full, exactly as
        described in Section IV-C2.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ConfigurationError(f"window samples must be finite, got {value!r}")
        evicted: float | None = None
        if self.full:
            evicted = float(self._buf[self._head])
            self._sum -= evicted
            self._sumsq -= evicted * evicted
        else:
            self._count += 1
        self._buf[self._head] = value
        self._sum += value
        self._sumsq += value * value
        self._head = (self._head + 1) % self._capacity
        self._pushes += 1
        if self._pushes % RECOMPUTE_EVERY == 0:
            self._refresh_sums()
        return evicted

    def _refresh_sums(self) -> None:
        live = self.values()
        self._sum = float(np.sum(live))
        self._sumsq = float(np.dot(live, live))

    def values(self) -> np.ndarray:
        """Live samples in insertion order (copy)."""
        if self._count < self._capacity:
            return self._buf[: self._count].copy()
        return np.roll(self._buf, -self._head).copy()

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        return self._sum / self._count

    @property
    def variance(self) -> float:
        """Population variance of the live samples (0 for a single sample)."""
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        m = self.mean
        v = self._sumsq / self._count - m * m
        return max(0.0, v)  # guard tiny negative round-off

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def clear(self) -> None:
        self._count = 0
        self._head = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._pushes = 0


class SortedWindow:
    """Fixed-capacity sliding window with exact windowed quantiles.

    A FIFO of the live samples plus the same samples in a sorted list:
    each push inserts the new sample with ``insort`` and deletes the
    evicted one at its ``bisect_left`` position — an O(log W) search plus
    one C ``memmove`` of the list tail, instead of a copy and a selection
    over the whole window per query.  Order statistics are exact elements of
    the window, and :meth:`quantile` repeats numpy's interpolation
    operation for operation, so results are bitwise equal to
    ``np.quantile(window, q)``.

    Parameters
    ----------
    capacity:
        Window size ``WS`` (number of retained samples), must be >= 1.
    """

    __slots__ = ("_fifo", "_sorted", "_capacity")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"window capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._fifo: deque[float] = deque()
        self._sorted: list[float] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._fifo)

    def push(self, value: float) -> float | None:
        """Insert ``value``; return the evicted (oldest) sample or ``None``."""
        value = float(value)
        if not math.isfinite(value):
            raise ConfigurationError(f"window samples must be finite, got {value!r}")
        fifo = self._fifo
        fifo.append(value)
        insort(self._sorted, value)
        if len(fifo) > self._capacity:
            evicted = fifo.popleft()
            del self._sorted[bisect_left(self._sorted, evicted)]
            return evicted
        return None

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of the live samples.

        numpy's default ``"linear"`` method, step by step: virtual index
        ``v = (n − 1)·q``, the maximum once ``v`` reaches ``n − 1``, and
        otherwise numpy's two-sided lerp between the order statistics
        around ``v`` (from below for ``g < 0.5``, from above otherwise).
        """
        s = self._sorted
        n = len(s)
        if n == 0:
            raise NotWarmedUpError("window is empty")
        v = (n - 1) * q
        if v >= n - 1:
            return s[-1]
        lo = math.floor(v)
        g = v - lo
        a = s[lo]
        b = s[lo + 1]
        if g < 0.5:
            return a + (b - a) * g
        return b - (b - a) * (1.0 - g)

    def clear(self) -> None:
        self._fifo.clear()
        self._sorted.clear()


class HeartbeatWindow:
    """Sliding window of received heartbeats ``(sequence, arrival time)``.

    This is the structure Chen's estimator (Eq. 2) consumes: it needs the
    recent arrival times *and* their sequence numbers (losses leave gaps),
    plus the windowed average sending interval ``Δt`` that the paper's SFD
    estimates from the sampling window (Section IV-C2).

    Running sums over arrivals and sequence numbers make Chen's EA a pure
    O(1) formula (see :class:`repro.detectors.estimation.ChenEstimator`).
    """

    __slots__ = (
        "_arr",
        "_seq",
        "_capacity",
        "_count",
        "_head",
        "_sum_arr",
        "_sum_seq",
        "_pushes",
        "_last_seq",
        "_last_arrival",
    )

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ConfigurationError(
                f"heartbeat window capacity must be >= 2, got {capacity!r}"
            )
        self._capacity = int(capacity)
        self._arr = np.zeros(self._capacity, dtype=np.float64)
        self._seq = np.zeros(self._capacity, dtype=np.int64)
        self._count = 0
        self._head = 0
        self._sum_arr = 0.0
        self._sum_seq = 0
        self._pushes = 0
        self._last_seq: int | None = None
        self._last_arrival: float | None = None

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self._capacity

    @property
    def last_seq(self) -> int:
        if self._last_seq is None:
            raise NotWarmedUpError("no heartbeat observed yet")
        return self._last_seq

    @property
    def last_arrival(self) -> float:
        if self._last_arrival is None:
            raise NotWarmedUpError("no heartbeat observed yet")
        return self._last_arrival

    def push(self, seq: int, arrival: float) -> None:
        """Record the heartbeat with sequence ``seq`` arriving at ``arrival``.

        Sequence numbers must be strictly increasing; the replay layer
        orders out-of-order UDP deliveries before feeding detectors.
        """
        arrival = float(arrival)
        seq = int(seq)
        if not math.isfinite(arrival):
            raise ConfigurationError(f"arrival time must be finite, got {arrival!r}")
        if self._last_seq is not None and seq <= self._last_seq:
            raise ConfigurationError(
                f"heartbeat sequence must increase: got {seq} after {self._last_seq}"
            )
        if self.full:
            self._sum_arr -= float(self._arr[self._head])
            self._sum_seq -= int(self._seq[self._head])
        else:
            self._count += 1
        self._arr[self._head] = arrival
        self._seq[self._head] = seq
        self._sum_arr += arrival
        self._sum_seq += seq
        self._head = (self._head + 1) % self._capacity
        self._last_seq = seq
        self._last_arrival = arrival
        self._pushes += 1
        if self._pushes % RECOMPUTE_EVERY == 0:
            self._refresh_sums()

    def _refresh_sums(self) -> None:
        arrs, seqs = self.items()
        self._sum_arr = float(np.sum(arrs))
        self._sum_seq = int(np.sum(seqs))

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """(arrivals, sequences) of the live window, oldest first (copies)."""
        if self._count < self._capacity:
            return self._arr[: self._count].copy(), self._seq[: self._count].copy()
        return (
            np.roll(self._arr, -self._head).copy(),
            np.roll(self._seq, -self._head).copy(),
        )

    @property
    def mean_arrival(self) -> float:
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        return self._sum_arr / self._count

    @property
    def mean_seq(self) -> float:
        if self._count == 0:
            raise NotWarmedUpError("window is empty")
        return self._sum_seq / self._count

    def interval_estimate(self) -> float:
        """Windowed average sending interval ``Δt`` (Section IV-C2).

        Estimated as the arrival span divided by the sequence span, which
        is robust to losses (a gap of g lost heartbeats contributes g+1
        sequence steps and the matching arrival gap).
        """
        if self._count < 2:
            raise NotWarmedUpError("need >= 2 heartbeats to estimate the interval")
        arrs, seqs = self.items()
        seq_span = int(seqs[-1] - seqs[0])
        if seq_span <= 0:
            raise NotWarmedUpError("degenerate sequence span")
        return float(arrs[-1] - arrs[0]) / seq_span

    def clear(self) -> None:
        self._count = 0
        self._head = 0
        self._sum_arr = 0.0
        self._sum_seq = 0
        self._pushes = 0
        self._last_seq = None
        self._last_arrival = None
