"""Packaging: the package needs only NumPy at run time (SciPy is a test
oracle), and every name that the demos and the README use exists."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    """``import ssls, ssls.cli`` loads no third-party package but NumPy, and
    no ``multiprocessing``.

    Every CLI run pays for its imports; only ``compare`` imports
    ``multiprocessing``, when it starts its workers.  NumPy's Cython
    extensions register runtime helper modules (``cython_runtime``,
    ``_cython_<version>``).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ssls, ssls.cli\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "unwanted = (loaded - set(sys.stdlib_module_names)) | (loaded & {'multiprocessing'})\n"
        "print(' '.join(sorted(unwanted)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    unwanted = {
        m for m in result.stdout.split()
        if m not in ("numpy", "ssls", "cython_runtime") and not m.startswith("_cython_")
    }
    assert unwanted == set()


def test_scipy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]]
    assert runtime == ["numpy"]
    test_extra = project["optional-dependencies"]["test"]
    assert any(dep.startswith("scipy") for dep in test_extra)
    assert any(dep.startswith("hypothesis") for dep in test_extra)


def _python_sources():
    """Each demo script, and each ``python`` code block of the README."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md block {i + 1}", block


def _resolve(dotted: str):
    """The object that a dotted ``ssls...`` name refers to."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _documented_names():
    for where, source in _python_sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ssls":
                for alias in node.names:
                    yield where, f"{node.module}.{alias.name}"
    readme = (ROOT / "README.md").read_text()
    for dotted in re.findall(r"`(ssls(?:\.\w+)+)", readme):
        yield "README.md", dotted


def test_demo_and_readme_names_exist():
    names = list(_documented_names())
    assert len(names) > 20
    missing = []
    for where, dotted in names:
        try:
            _resolve(dotted)
        except (ImportError, AttributeError):
            missing.append(f"{where}: {dotted}")
    assert missing == []
