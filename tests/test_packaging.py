"""The installed surface: numpy is the only runtime dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dezakit

ROOT = Path(__file__).resolve().parents[1]


def test_cli_loads_no_mpmath():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(dezakit.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    code = "import sys, dezakit.cli; print('\\n'.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "dezakit.cli" in loaded and "numpy" in loaded
    assert [m for m in loaded if m.split(".")[0] == "mpmath"] == []


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]] == ["numpy"]
