"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload NAME [--seeds 1-10] [--trace 0|1]
                               [--write-baseline]

For every metric it prints the median of the per-seed values, the quartile
spread ``(q3 - q1) / median`` (``statistics.quantiles(values, n=4)``), the
metric's bound from ``spec.py`` and, when ``baseline.json`` holds the
workload, the change of the median against the recorded baseline.
``--write-baseline`` stores the medians, spreads and failing jobs in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, RUN_SECONDS, UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json")
                            .read_text())
        runs.append({**result, "failing": detail["failing"], "versions": detail["versions"]})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              f"correct={result['correct']} {values}", flush=True)

    key = f"{args.workload}.trace" if args.trace else args.workload
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    previous = baseline.get(key, {}).get("metrics", {})
    summary = {}
    print(f"\n{'metric':34} {'median':>12} {'spread':>8} {'bound':>6} {'vs base':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": UNITS[name]}
        bound = BOUNDS.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  UNSTEADY"
        base = previous.get(name, {}).get("median")
        change = f"{median / base - 1:+.1%}" if base else "-"
        print(f"{name:34} {median:12.6g} {spread:8.3f} {bound or '-':>6} {change:>8}{flag}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failing = {name: detail for r in runs for name, detail in r["failing"].items()}
    print(f"\nops_failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for name, detail in sorted(failing.items()):
        print(f"FAILED {name}: {detail}")

    if args.write_baseline:
        baseline[key] = {
            "seeds": args.seeds, "seconds": args.seconds, "versions": runs[0]["versions"],
            "metrics": summary, "attempted": attempted, "failed": failed,
            "ops_failed_frac": failed / attempted, "failing": dict(sorted(failing.items())),
        }
        BASELINE.write_text(json.dumps(dict(sorted(baseline.items())), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
