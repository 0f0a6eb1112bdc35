"""Every narrative script in demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qcompare

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS
    # The demos import from the package: every name it exports is its home module's object.
    exported = {name: obj for name, obj in vars(qcompare).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert "Estimate" in exported and "TrialStats" not in exported
    for name, obj in exported.items():  # IDEAL, an instance, has its class's __module__
        assert getattr(sys.modules[obj.__module__], name) is obj, name


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # The suite's warning policy: an overflow or invalid value fails the demo.
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
