"""Every script under ``examples/`` runs to completion (exit 0).

Each example runs in a subprocess from a temporary working directory (some
write report files to the cwd), against this checkout's ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Examples too heavy for the quick inner loop (``make test-fast``).
SLOW = {"mesh_vs_custom.py"}


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(p, id=p.stem,
                     marks=[pytest.mark.slow] if p.name in SLOW else [])
        for p in EXAMPLES
    ],
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
