"""One pass of a workload in a fresh interpreter; ``run.py`` starts one per pass.

Set-up ends once ``qcompare`` is imported and the seeded inputs are drawn;
the runner subtracts its spawn time from the ``ready`` time printed here
(both read CLOCK_MONOTONIC).  A ``spans`` pass also times ``import qcompare.cli``
and records spans; an ``alloc`` pass records allocation peaks.  The pass prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports qcompare from the checkout's src)
from harness import Ctx  # noqa: E402
from spec import PER_LAYER  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--mode", choices=("plain", "spans", "alloc"), default="plain")
    parser.add_argument("--pass-id", default="p0")
    args = parser.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed, args.scale)
    ready = time.perf_counter()

    ctx = Ctx([name for name, *_ in PER_LAYER], traced=args.mode == "spans",
              alloc=args.mode == "alloc", pass_id=args.pass_id)
    if ctx.traced:
        start = time.perf_counter()
        import qcompare.cli  # noqa: F401
        ctx.layers["cli.import_s"] = time.perf_counter() - start
    records = ctx.run_jobs(jobs)

    max_rss_kib = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({
        "ready": ready,
        "records": records,
        "rss_mb": max_rss_kib * 1024 / 1e6,
        "layers": ctx.layers,
        "spans": ctx.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
