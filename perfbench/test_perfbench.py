"""Toy-size checks of the benchmark itself: ``python -m pytest perfbench``.

Every workload function runs at a small size, passed as an argument, with
a tracer: each metric BENCHMARK.json names must come out with its unit,
no operation may fail, and the spans file must parse.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import common

sys.path.insert(0, str(common.SRC))

import compare  # noqa: E402
import live  # noqa: E402
import offline  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TOY = {
    "sweep": lambda seed, tracer: offline.sweep(
        seed, 1.0, tracer, size=offline.OfflineSize(heartbeats=3000, window=50)
    ),
    "pipeline": lambda seed, tracer: offline.pipeline(
        seed, 1.0, tracer, size=offline.OfflineSize(heartbeats=20_000, window=50)
    ),
    "live-steady": lambda seed, tracer: live.steady(
        seed, 3.0, tracer,
        shape=live.LiveShape(spec="sfd:window=5", nodes=200, rate_hz=10.0,
                             warmup_s=0.7, main_share=0.6),
    ),
    "live-churn": lambda seed, tracer: live.churn(
        seed, 4.0, tracer,
        shape=live.LiveShape(spec="fixed:timeout=0.3", nodes=200, rate_hz=10.0,
                             warmup_s=1.5, main_share=0.65, failures_per_s=20.0,
                             silence_s=0.5),
    ),
}


def test_workloads_are_the_benchmarked_ones():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TOY)


@pytest.mark.parametrize("workload", sorted(TOY))
def test_toy_run_reports_every_metric(workload, tmp_path):
    tracer = Tracer()
    out = TOY[workload](7, tracer)
    assert out.failed == 0, out.problems
    assert out.attempted >= 1
    for group, reported in (("end_to_end", out.metrics), ("per_layer", out.layers)):
        for metric in SPEC[group]:
            value, unit = reported[metric["name"]]
            assert unit == metric["unit"]
            assert isinstance(value, (int, float))
        assert all(NAME.fullmatch(name) for name in reported)
    for metric in SPEC["end_to_end"]:
        assert out.metrics[metric["name"]][0] > 0
    path = tmp_path / "spans.json"
    tracer.write(path, workload=workload)
    spans = json.loads(path.read_text())
    assert spans["kept"] == len(spans["spans"]) > 0
    ids = {span["id"] for span in spans["spans"]}
    assert all(s["parent"] is None or s["parent"] in ids or spans["dropped"]
               for s in spans["spans"])


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_verdicts():
    old = {s: 100.0 + s % 3 for s in range(10)}
    faster = {s: 80.0 + s % 3 for s in range(10)}
    noisy = {s: 100.0 + (s % 2) * 60 for s in range(10)}
    assert compare.verdict(old, faster, "lower", 0.1) == "improved"
    assert compare.verdict(faster, old, "lower", 0.1) == "regressed"
    assert compare.verdict(old, dict(old), "lower", 0.1) == "unchanged"
    assert compare.verdict(old, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(old, faster, "higher", None) == "-"
