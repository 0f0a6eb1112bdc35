"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --write-spec``; edit the spec here, not there.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = [
    ("mc-protocols",
     "Monte Carlo lock tests, click trials and key-distribution attacks at 1e5-1e6 trials; "
     "detection, lockkey and pkd do the work and the trial tables set peak memory"),
    ("analytic-oracle",
     "closed forms, AM-GM dominance, N=1024 multiport, cold and warm Fock oracle, attack "
     "optimisation and entropy checks; CPU-bound, detection idle"),
    ("cli-reports",
     "every qcompare subcommand as a fresh subprocess run twice for byte-identical output; "
     "start-up, import, argparse and serialization dominate"),
]

# (name, unit, better, bound).  The host's speed drifts by up to half between
# runs a minute apart, so the timings take the widest bound allowed, which
# setup_s shares; peak memory repeats to 0.1%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("linear.multiport_s", "s", "lower"),
    ("linear.apply_s", "s", "lower"),
    ("linear.modes", "count", "higher"),
    ("comparison.p_symm_s", "s", "lower"),
    ("comparison.p_symm_terms", "count", "lower"),
    ("comparison.forms_s", "s", "lower"),
    ("comparison.calls", "count", "higher"),
    ("fock.apply_cold_s", "s", "lower"),
    ("fock.apply_warm_s", "s", "lower"),
    ("fock.cold_calls", "count", "lower"),
    ("fock.warm_calls", "count", "higher"),
    ("fock.block_entries", "count", "lower"),
    ("detection.run_trials_s", "s", "lower"),
    ("detection.trials", "count", "higher"),
    ("detection.trials_per_s", "1/s", "higher"),
    ("detection.table_mb", "MB", "lower"),
    ("detection.peak_alloc_mb", "MB", "lower"),
    ("lockkey.pass_rate_s", "s", "lower"),
    ("lockkey.pass_rate_peak_alloc_mb", "MB", "lower"),
    ("lockkey.attack_opt_s", "s", "lower"),
    ("lockkey.attack_opt_calls", "count", "higher"),
    ("lockkey.entropy_s", "s", "lower"),
    ("pkd.simulate_s", "s", "lower"),
    ("pkd.driver_s", "s", "lower"),
    ("pkd.driver_rows", "count", "higher"),
    ("pkd.exchange_s", "s", "lower"),
    ("pkd.peak_alloc_mb", "MB", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("svg.line_chart_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
