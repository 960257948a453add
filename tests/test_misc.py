"""Remaining-corner coverage: report helpers, base-class contracts,
driver memory bounds, CLI CSV flag."""

import numpy as np
import pytest

from repro.analysis.report import format_qos
from repro.core.feedback import FeedbackController, FeedbackDriver, SlotConfig
from repro.detectors import ChenFD
from repro.detectors.base import FailureDetector
from repro.errors import ConfigurationError
from repro.qos.spec import QoSReport, QoSRequirements


class TestFormatQoS:
    def test_one_line(self):
        q = QoSReport(detection_time=0.5, mistake_rate=0.01, query_accuracy=0.999)
        text = format_qos(q)
        assert "\n" not in text
        assert "TD=" in text and "MR=" in text and "QAP=" in text
        assert "99.9" in text


class TestBaseContracts:
    def test_reset_default_raises(self):
        class Stub(FailureDetector):
            name = "stub"

            def observe(self, seq, arrival, send_time=None):
                pass

            @property
            def ready(self):
                return True

            def suspicion(self, now):
                return 0.0

        with pytest.raises(NotImplementedError):
            Stub().reset()

    def test_binary_threshold_default_zero(self):
        fd = ChenFD(0.1, window_size=5)
        assert fd.binary_threshold() == 0.0

    def test_warmup_validation(self):
        from repro.detectors.base import TimeoutFailureDetector

        class Bad(TimeoutFailureDetector):
            name = "bad"

            def _ingest(self, *a):
                pass

            def _next_freshness(self):
                return 0.0

        with pytest.raises(ConfigurationError):
            Bad(warmup=1)

    def test_observed_counter(self):
        fd = ChenFD(0.1, window_size=5)
        for i in range(3):
            fd.observe(i, 0.1 * i)
        assert fd.observed == 3
        assert fd.warmup == 5


class TestDriverMemoryBound:
    def test_checkpoints_stay_bounded(self):
        req = QoSRequirements(max_detection_time=1.0)
        d = FeedbackDriver(
            FeedbackController(req), SlotConfig(10, horizon=5)
        )
        for k in range(10_000):
            d.close_slot(float(k + 1), 1.0, 0.0, 0, 0.0, 0.5 * (k + 1), k + 1)
        # Horizon 5 needs at most horizon+1 retained checkpoints.
        assert len(d._checkpoints) <= 6

    def test_cumulative_mode_keeps_constant_memory(self):
        req = QoSRequirements(max_detection_time=1.0)
        d = FeedbackDriver(FeedbackController(req), SlotConfig(10))
        for k in range(5_000):
            d.close_slot(float(k + 1), 1.0, 0.0, 0, 0.0, 0.5 * (k + 1), k + 1)
        assert len(d._checkpoints) <= 2


class TestCLICsvFlag:
    def test_figure_csv_export(self, capsys, tmp_path):
        from repro.cli import main

        out_dir = tmp_path / "csv"
        assert (
            main(
                [
                    "figure",
                    "--case",
                    "WAN-6",
                    "--scale",
                    "700",
                    "--csv",
                    str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "CSV series" in out
        assert (out_dir / "wan-6_manifest.csv").exists()
        assert (out_dir / "wan-6_sfd.csv").exists()


class TestMonitorViewFastPath:
    def test_sorted_and_unsorted_paths_agree(self):
        from repro.traces import HeartbeatTrace

        rng = np.random.default_rng(0)
        send = np.cumsum(rng.uniform(0.05, 0.15, 500))
        delays = rng.uniform(0.01, 0.2, 500)  # heavy reordering
        t = HeartbeatTrace(send_times=send, delays=delays)
        view = t.monitor_view()
        # Reference: brute-force stale filter.
        arr = send + delays
        order = np.argsort(arr, kind="stable")
        best = -1
        seqs, arrs = [], []
        for i in order:
            if i > best:
                best = i
                seqs.append(i)
                arrs.append(arr[i])
        assert view.seq.tolist() == seqs
        np.testing.assert_allclose(view.arrivals, arrs)
