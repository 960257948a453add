"""Repository hygiene guards.

Tier-1 checks that keep structural regressions out of the tree: no
compiled bytecode under version control, no per-family ``isinstance``
ladders creeping back into the replay package now that dispatch goes
through :mod:`repro.detectors.registry`, no streaming host writing its
own copy of the self-accounting rule or the slot close, no runtime
signature sniffing at the plugin seams, no documented example that
imports a name the package does not export, and no cross-reference in
the docs or docstrings that names deleted code.
"""

from __future__ import annotations

import ast
import importlib
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


#: Prose documents whose backticked references must resolve.
#: ``perfbench/README.md`` is left out: it changes only together with the
#: benchmark it describes.
REFERENCE_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/*.md",
    "examples/README.md",
)

#: Backticked spans with a ``/`` that name no file of the tree: paths a run
#: creates, and shard notation.
NOT_PATHS = {"cache/", "i/N", "shard-i-of-N/"}

#: Where a backticked path may be rooted.
PATH_ROOTS = ("", "src", "src/repro", "benchmarks")

_CODE_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
_ROLE = re.compile(r":[a-z]+:`(?:[^`<]*<)?~?(repro(?:\.[A-Za-z_]\w*)+)>?`")
_PATH = re.compile(r"[\w.*-]+(?:/[\w.*-]+)*/?")


def _doc_spans():
    """``(file:line, text)`` of every inline code span outside code blocks."""
    for pattern in REFERENCE_DOCS:
        for path in sorted(REPO.glob(pattern)):
            text = _CODE_FENCE.sub(
                lambda m: "\n" * m.group(0).count("\n"), path.read_text()
            )
            name = path.relative_to(REPO).as_posix()
            for span in _SPAN.finditer(text):
                line = text.count("\n", 0, span.start()) + 1
                yield f"{name}:{line}", span.group(1)


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest, as Sphinx resolves a cross-reference."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        try:
            for part in parts[i:]:
                obj = getattr(obj, part)
        except AttributeError:
            return False
        return True
    return False


def _assert_resolve(refs):
    assert refs, "found no references to check"
    stale = [f"{where}: {dotted}" for where, dotted in refs if not _resolves(dotted)]
    assert not stale, "stale references:\n" + "\n".join(stale)


def test_doc_dotted_references_resolve():
    """Every backticked ``repro.…`` name in the docs imports."""
    refs = []
    for where, text in _doc_spans():
        name = _DOTTED.match(text)
        if name:
            refs.append((where, name.group(0)))
    _assert_resolve(refs)


def test_docstring_roles_resolve():
    """Every Sphinx role (``:func:``, ``:class:``, …) naming ``repro.…``
    in the package's docstrings and comments imports."""
    refs = []
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text()
        name = path.relative_to(REPO).as_posix()
        for role in _ROLE.finditer(text):
            line = text.count("\n", 0, role.start()) + 1
            refs.append((f"{name}:{line}", role.group(1)))
    _assert_resolve(refs)


def test_doc_paths_exist():
    """Every backticked path in the docs names a file or directory of the
    tree, relative to the repo root, ``src/``, ``src/repro/`` or
    ``benchmarks/``; a pytest node id is checked by its file."""
    checked = 0
    missing = []
    for where, text in _doc_spans():
        path = text.split("::")[0]
        if "/" not in path or path.startswith("/") or not _PATH.fullmatch(path):
            continue
        if path in NOT_PATHS:
            continue
        checked += 1
        if not any(any((REPO / root).glob(path.rstrip("/"))) for root in PATH_ROOTS):
            missing.append(f"{where}: {text}")
    assert checked, "found no paths to check"
    assert not missing, "paths that name nothing:\n" + "\n".join(missing)
