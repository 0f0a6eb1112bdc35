"""Tests of the benchmark itself; the package's own suite does not collect them.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from harness import Ctx, NonzeroExit, expect  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402


def bench(cwd: Path, *args, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = bench(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, *_ in expected}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"])
        assert any(line.startswith(f"{name} ") for line in lines[:-1]), name


def test_deliberately_wrong_check_counts_as_failed():
    from qcompare import comparison

    def wrong_closed_form(ctx):
        p = ctx.call("comparison.forms_s", comparison.p_success_two, 0.0, 2.0)
        expect(abs(p - (1.0 - math.exp(-4.0))) <= 1e-12, "deliberately wrong closed form")

    def right_closed_form(ctx):
        p = ctx.call("comparison.forms_s", comparison.p_success_two, 0.0, 2.0)
        expect(abs(p - (1.0 - math.exp(-2.0))) <= 1e-12, "closed form")

    def raises(ctx):
        ctx.call(None, comparison.p_symm, [0.0] * 9)

    def exits(ctx):
        raise NonzeroExit("exit 3")

    ctx = Ctx([name for name, *_ in PER_LAYER])
    records = ctx.run_jobs([("wrong", wrong_closed_form), ("raises", raises),
                            ("exits", exits), ("right", right_closed_form)])
    assert [r["status"] for r in records] == ["check", "raised", "exit", "ok"]
    assert all(len(r["samples"]) == 1 for r in records)
    attempted, failed, correct, failing = run.summarize(records)
    assert (attempted, failed, correct) == (4, 3, False)
    assert set(failing) == {"wrong", "raises", "exits"}
    assert ctx.layers["comparison.forms_s"] > 0


def test_benchmark_json_matches_spec_within_its_limits():
    spec = benchmark_json()
    assert json.loads((HERE.parent / "BENCHMARK.json").read_text()) == spec
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_run_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "mc-protocols", "--seed", "1", "--seconds", "1",
                 "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
