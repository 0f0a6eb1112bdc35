"""Benchmark entry point for qcompare.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the root of a source checkout; ``qcompare`` is imported from its
``src``.  One closed-loop client does one job at a time.  Every pass of the
workload's fixed job list runs in a fresh worker process, so caches start
cold and set-up is measured once per pass.  Passes repeat until ``--seconds``
have been spent (at least three passes, or two cycles of a traced run).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` cycles through
plain, traced and allocation passes.  Per-layer times and counts come from
the traced passes, allocation peaks from the allocation passes (whose
``tracemalloc`` overhead would distort times), and ``trace.overhead_frac``
compares traced with plain ``wall_s``.  The spans are written as JSONL under
``perfbench/out/``.  Every metric and every failing job is printed by name;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``failed`` counts
jobs that raised, exited non-zero or failed their output check; ``correct``
is false only when a job returned a wrong result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spec import PER_LAYER, RUN_SECONDS, UNITS, WORKLOADS, benchmark_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
MIN_TRACE_CYCLES = 2
TAIL_PERCENTILE = 90
WORKER_TIMEOUT_S = 120
# One BLAS/OpenMP thread: a single closed-loop client, steadier on a shared host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(workload, seed, scale, mode, pass_id) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--scale", scale, "--mode", mode, "--pass-id", pass_id]
    start = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, **THREAD_ENV), timeout=WORKER_TIMEOUT_S)
    end = time.perf_counter()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for pass {pass_id} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["span"] = {"id": pass_id, "parent": None, "job": None, "name": "pass",
                      "layer": None, "start": start, "end": end, "error": None,
                      "mode": mode}
    return result


def run_passes(workload, seed, scale, seconds, trace) -> list[dict]:
    """Passes until ``seconds`` are spent; a pass expected to overrun is not started."""
    plan = ["plain", "spans", "alloc"] if trace else ["plain"]
    minimum = MIN_TRACE_CYCLES * len(plan) if trace else MIN_PASSES
    passes, durations = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for mode in plan:
            result = run_pass(workload, seed, scale, mode, f"p{len(passes)}")
            passes.append(result)
            durations.append(result["span"]["end"] - result["span"]["start"])
        expected = statistics.median(durations) * len(plan)
        if len(passes) >= minimum and time.perf_counter() + expected > deadline:
            return passes


def best_of_passes(passes) -> tuple[float, list[float]]:
    """Time of the job list and each job's latency, every job taken at its fastest pass.

    On a shared host the speed of every job drifts together, by up to 40% in
    spells of tens of seconds; a job's fastest pass is the reproducible figure.
    """
    totals, latency = {}, {}
    for p in passes:
        for r in p["records"]:
            totals[r["name"]] = min(totals.get(r["name"], math.inf), sum(r["samples"]))
            latency[r["name"]] = min(latency.get(r["name"], math.inf), *r["samples"])
    return sum(totals.values()), sorted(latency.values())


def end_to_end_metrics(passes) -> tuple[dict, dict]:
    wall, latency = best_of_passes(passes)
    latency_ms = [s * 1e3 for s in latency]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": wall,
        "job_p50_ms": statistics.median(latency_ms),
        "job_tail_ms": percentile(latency_ms, TAIL_PERCENTILE),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    beyond = sum(s > metrics["job_tail_ms"] for s in latency_ms)
    notes = {"setup_s": f"median of {len(passes)} passes",
             "wall_s": f"fastest pass of each job, {len(passes)} passes",
             "job_p50_ms": f"{len(latency_ms)} jobs",
             "job_tail_ms": f"p{TAIL_PERCENTILE}, {len(latency_ms)} jobs, {beyond} beyond"}
    return metrics, notes


def per_layer_metrics(passes) -> tuple[dict, dict]:
    def of(mode):
        return [p for p in passes if p["span"]["mode"] == mode]

    metrics = {}
    for name, *_ in PER_LAYER:
        if name not in ("detection.trials_per_s", "trace.overhead_frac"):
            source = of("alloc") if "peak_alloc" in name else of("spans")
            metrics[name] = min(p["layers"][name] for p in source)
    busy = metrics["detection.run_trials_s"]
    metrics["detection.trials_per_s"] = metrics["detection.trials"] / busy if busy else 0.0
    plain_wall, traced_wall = best_of_passes(of("plain"))[0], best_of_passes(of("spans"))[0]
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = {"trace.overhead_frac": f"wall_s {traced_wall:.4f} traced vs {plain_wall:.4f}"}
    return {name: metrics[name] for name, *_ in PER_LAYER}, notes


def summarize(records) -> tuple[int, int, bool, dict]:
    """Jobs attempted and failed, whether every output was right, failing jobs by name."""
    failing = {}
    for r in records:
        if r["status"] != "ok":
            failing.setdefault(r["name"], f"{r['status']}: {r['detail']}")
    failed = sum(r["status"] != "ok" for r in records)
    correct = not any(r["status"] == "check" for r in records)
    return len(records), failed, correct, failing


def versions() -> str:
    parts = [f"python {sys.version.split()[0]}"]
    parts += [f"{pkg} {metadata.version(pkg)}" for pkg in ("numpy", "scipy")]
    parts.append(f"blas_threads {THREAD_ENV['OPENBLAS_NUM_THREADS']} nproc {os.cpu_count()}")
    return ", ".join(parts)


def write_spans(path: Path, passes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in passes:
            for span in [p["span"], *p["spans"]]:
                fh.write(json.dumps({**span, "pass": p["span"]["id"]}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every size, for the benchmark's own tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qcompare" / "__init__.py").is_file():
        print(f"error: no qcompare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        passes = run_passes(args.workload, args.seed, args.scale, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct, failing = summarize([r for p in passes for r in p["records"]])
    if args.trace:
        metrics, notes = per_layer_metrics(passes)
    else:
        metrics, notes = end_to_end_metrics(passes)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} passes of {len(passes[0]['records'])} jobs")
    print(f"# {versions()}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {UNITS[name]}{note}")
    print(f"ops_failed_frac {failed / attempted:.6g}  ({failed} of {attempted} jobs)")
    for name, detail in failing.items():
        print(f"FAILED {name}: {detail}")
    print(f"checks: {attempted - failed} of {attempted} jobs passed, "
          f"outputs {'correct' if correct else 'WRONG'}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "failing": failing, "metrics": metrics, "versions": versions(),
    }, indent=2) + "\n")
    if args.trace:
        write_spans(OUT / f"spans-{stem}.jsonl", passes)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
