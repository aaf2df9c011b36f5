"""The package needs only NumPy at run time; SciPy is a test oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, ssls, ssls.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(' '.join(loaded))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_scipy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]]
    assert runtime == ["numpy"]
    test_extra = project["optional-dependencies"]["test"]
    assert any(dep.startswith("scipy") for dep in test_extra)
    assert any(dep.startswith("hypothesis") for dep in test_extra)
