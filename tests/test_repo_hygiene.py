"""Repository hygiene guards.

Tier-1 checks that keep structural regressions out of the tree: no
compiled bytecode under version control, no per-family ``isinstance``
ladders creeping back into the replay package now that dispatch goes
through :mod:`repro.detectors.registry`, no streaming host writing its
own copy of the self-accounting rule or the slot close, no runtime
signature sniffing at the plugin seams, and no documented example that
imports a name the package does not export.
"""

from __future__ import annotations

import ast
import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git not available")
    if out.returncode != 0:
        pytest.skip(f"git {' '.join(args)} failed: {out.stderr.strip()}")
    return out.stdout


def test_no_bytecode_under_version_control():
    tracked = _git("ls-files", "*__pycache__*", "*.pyc").strip()
    assert tracked == "", f"compiled bytecode is committed:\n{tracked}"


def test_gitignore_covers_bytecode():
    text = (REPO / ".gitignore").read_text()
    assert "__pycache__/" in text
    assert "*.pyc" in text


def test_no_oversized_binary_trace_fixtures():
    """Columnar stores and npz traces are build artifacts, not sources:
    anything over 1 MB committed to the tree bloats every clone forever.
    Generate fixtures in-test (synthesize/write_columnar) instead."""
    limit = 1 << 20
    offenders = []
    for name in _git("ls-files", "*.bin", "*.npz").strip().splitlines():
        if not name:
            continue
        path = REPO / name
        if path.exists() and path.stat().st_size > limit:
            offenders.append(f"{name}: {path.stat().st_size} bytes")
    assert not offenders, (
        "oversized binary trace fixtures are committed:\n" + "\n".join(offenders)
    )


def test_no_isinstance_ladders_in_replay():
    """Replay dispatch is registry-driven; per-spec isinstance chains are
    banned (they were exactly what the registry refactor removed)."""
    offenders = []
    for path in (REPO / "src" / "repro" / "replay").glob("*.py"):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "isinstance(spec" in line:
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


#: Call sites with their only homes under ``src/``: the accounting rule
#: lives in ``repro.qos.metrics.account_arrival`` and the slot close in
#: ``repro.core.feedback.FeedbackDriver``.  Every streaming host calls those
#: two, so a host spelling the rule or the record out again is a fork.  The
#: feedback loop itself runs in two places: streaming in
#: ``SelfTuningMonitor`` (SFD included) and offline in ``sfd_evaluate``.
ONE_HOME = {
    "add_mistake(": ("repro/qos/metrics.py",),
    "add_detection_sample(": ("repro/qos/metrics.py",),
    "MistakeAccumulator(": ("repro/qos/metrics.py",),
    "TuningRecord(": ("repro/core/feedback.py",),
    "FeedbackDriver(": ("repro/core/tuning.py", "repro/replay/vectorized.py"),
}


def test_one_accounting_rule_and_one_slot_close():
    src = REPO / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for needle, homes in ONE_HOME.items():
                if needle in line and rel not in homes:
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


#: Kernels, job bodies and executors each have one call contract, so no
#: caller needs to ask a plugin's signature what it accepts.
SIGNATURE_SNIFFING = ("inspect.signature", "takes_keyword")


def test_no_runtime_signature_sniffing():
    src = REPO / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(needle in line for needle in SIGNATURE_SNIFFING):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def _doc_python_blocks():
    """``(file, first line, source)`` of every ```python block in the docs."""
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        text = path.read_text()
        for block in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
            line = text.count("\n", 0, block.start(1)) + 1
            yield path.relative_to(REPO).as_posix(), line, block.group(1)


def test_doc_example_imports_resolve():
    """Each import of a documented example runs on its own: a reader
    copying the example gets no ImportError."""
    failures = []
    imports = 0
    for name, first, source in _doc_python_blocks():
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            failures.append(f"{name}:{first + (exc.lineno or 1) - 1}: {exc.msg}")
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            imports += 1
            stmt = ast.unparse(node)
            try:
                exec(compile(stmt, name, "exec"), {})
            except ImportError as exc:
                failures.append(f"{name}:{first + node.lineno - 1}: {stmt} ({exc})")
    assert imports, "found no imports in the documented examples"
    assert not failures, "\n".join(failures)
