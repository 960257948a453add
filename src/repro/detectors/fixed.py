"""Fixed-timeout baseline — the conventional static freshness interval.

Section II-B describes the conventional implementation where "the
freshpoint is fixed": the monitor suspects whenever no heartbeat arrives
within a constant interval of the previous one.  Too short an interval
gives many wrong suspicions; too long gives slow detection.  This detector
is not part of the paper's figure sweeps but is the didactic strawman the
adaptive detectors improve on, and a useful control in ablations.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.detectors.base import TimeoutFailureDetector

__all__ = ["FixedTimeoutFD"]


class FixedTimeoutFD(TimeoutFailureDetector):
    """Static freshness-interval detector.

    Parameters
    ----------
    timeout:
        Constant interval in seconds: the freshness point is always
        ``last arrival + timeout``.
    warmup:
        Heartbeats to observe before answering queries (default 2; a fixed
        timeout needs no statistics, but a minimal warm-up keeps the
        interface contract uniform).
    """

    name = "fixed"

    def __init__(self, timeout: float, *, warmup: int = 2):
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout!r}")
        super().__init__(warmup=warmup)
        self.freshness_offset = float(timeout)

    @property
    def fixed_timeout(self) -> float:
        """The constant interval: a tunable knob stored once, as
        ``freshness_offset``, which batch ingest lanes read directly."""
        return self.freshness_offset

    @fixed_timeout.setter
    def fixed_timeout(self, value: float) -> None:
        self.freshness_offset = float(value)

    def _ingest(self, seq: int, arrival: float, send_time: float | None) -> None:
        pass  # stateless beyond the base's last-arrival tracking

    def _next_freshness(self) -> float:
        return self.last_arrival + self.freshness_offset

    def reset(self) -> None:
        self._observed = 0
