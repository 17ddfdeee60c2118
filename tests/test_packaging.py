"""Packaging invariants: a scipy-free runtime and a single-sourced version."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_api_and_cli_import_without_scipy():
    """The runtime never loads scipy: it would cost every cold start ~0.7 s.

    Checked by module presence rather than by timing, which is too noisy
    on shared CI runners to guard anything.
    """
    script = (
        "import json, sys\n"
        "import repro.api, repro.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    config = tomllib.loads((_ROOT / "pyproject.toml").read_text())
    project = config["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
    assert isinstance(repro.__version__, str) and repro.__version__


def test_scipy_is_only_a_dev_dependency():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((_ROOT / "pyproject.toml").read_text())
    runtime = config["project"]["dependencies"]
    assert not any(dep.startswith("scipy") for dep in runtime)
    dev = config["project"]["optional-dependencies"]["dev"]
    assert any(dep.startswith("scipy") for dep in dev)
