"""Trace-driven replay of failure detectors (the paper's methodology).

"The logged arrival time is used to replay the execution for each FD
scheme.  That implies all the FDs are compared in the same experimental
condition" (Section V).  This subpackage replays a
:class:`~repro.traces.trace.MonitorView` through closed-form vectorized
formulations of every detector — algebraically identical to the streaming
implementations in :mod:`repro.detectors` / :mod:`repro.core` (the test
suite asserts freshness-point agreement) but orders of magnitude faster,
which is what makes sweeping a parameter over multi-million-heartbeat
traces tractable in pure Python + numpy (see the hpc guides' vectorization
mandate).
"""

from repro.replay.vectorized import (
    chen_expected_arrivals,
    chen_freshness,
    bertier_freshness,
    phi_freshness,
    quantile_freshness,
    fixed_freshness,
    ml_prediction_arrays,
    ml_freshness,
    sfd_freshness,
    KernelRun,
)
from repro.replay.engine import (
    ReplayResult,
    ReplaySpec,
    ChenSpec,
    BertierSpec,
    PhiSpec,
    FixedSpec,
    QuantileSpec,
    MLSpec,
    SFDSpec,
    replay,
)

__all__ = [
    "chen_expected_arrivals",
    "chen_freshness",
    "bertier_freshness",
    "phi_freshness",
    "quantile_freshness",
    "fixed_freshness",
    "ml_prediction_arrays",
    "ml_freshness",
    "sfd_freshness",
    "KernelRun",
    "ReplayResult",
    "ReplaySpec",
    "ChenSpec",
    "BertierSpec",
    "PhiSpec",
    "FixedSpec",
    "QuantileSpec",
    "MLSpec",
    "SFDSpec",
    "replay",
]
