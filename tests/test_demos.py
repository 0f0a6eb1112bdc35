"""Every narrative script in demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _source_env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_demos_exist():
    assert DEMOS
    # The demos import each name from its module; the package itself loads no submodule.
    code = "import sys, qcompare; print([m for m in sys.modules if m.startswith('qcompare.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_source_env(), cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    # The suite's warning policy: an overflow or invalid value fails the demo.
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          capture_output=True, text=True, env=_source_env(),
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
