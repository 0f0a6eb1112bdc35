"""Timing, tracing and failure accounting shared by every benchmark workload.

A job is a function ``job(ctx)`` that makes its calls into the package
through ``ctx.call`` and checks what they return with ``expect``.  Only the
calls are timed: a job's latency sample is the sum of its timed calls, so the
benchmark's own input handling and correctness checks never count as package
time.  A job that raises, exits non-zero or fails a check is recorded as
failed and the next job runs regardless.

In a traced pass every call also leaves a span (name, start, end, parent,
job id) in memory.  In an allocation pass each call that feeds a per-layer
allocation metric runs under ``tracemalloc``, started and stopped around that
call alone; its overhead is large on Python-heavy code, so allocation passes
are kept apart from the passes whose times are reported.  Times come from
``time.perf_counter``, which on Linux reads the system-wide CLOCK_MONOTONIC,
so spans from the runner and from its worker processes share one time axis.
"""

from __future__ import annotations

import time
import tracemalloc


class CheckFailed(Exception):
    """A call returned an output that fails the job's correctness check."""


class NonzeroExit(Exception):
    """A command-line invocation exited with a non-zero status."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ctx:
    """Per-pass recorder: job latency samples, per-layer totals and spans."""

    def __init__(self, layer_names, traced=False, alloc=False, pass_id="p0"):
        self.traced = traced
        self.alloc = alloc
        self.pass_id = pass_id
        self.layers = dict.fromkeys(layer_names, 0.0)
        self.spans: list[dict] = []
        self._job = None
        self._job_span = None
        self._pending = 0.0
        self._samples: list[float] = []

    def call(self, metric, fn, *args, count=None, peak=None, latency=True, **kwargs):
        """Call ``fn(*args, **kwargs)`` and time it.

        ``metric`` names the per-layer time the call adds to (None for none),
        ``count`` a per-layer counter to raise by one, and ``peak`` a per-layer
        allocation peak (MB) to update in allocation passes.  ``latency=False``
        keeps the call out of the job's latency sample.
        """
        measure_alloc = self.alloc and peak is not None
        if measure_alloc:
            tracemalloc.start()
        start = time.perf_counter()
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            if latency:
                self._pending += end - start
            if metric is not None:
                self.layers[metric] += end - start
            if count is not None:
                self.layers[count] += 1
            if measure_alloc:
                self.layers[peak] = max(self.layers[peak],
                                        tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()
            if self.traced:
                self.spans.append({
                    "id": f"{self._job_span}.c{len(self.spans)}",
                    "parent": self._job_span,
                    "job": self._job,
                    "name": f"{fn.__module__}.{fn.__qualname__}",
                    "layer": (metric or "").split(".")[0] or None,
                    "start": start,
                    "end": end,
                    "error": error,
                })

    def add(self, name: str, amount) -> None:
        self.layers[name] += amount

    def peak(self, name: str, value) -> None:
        self.layers[name] = max(self.layers[name], value)

    def split(self) -> None:
        """Close the current latency sample; later calls start a new one."""
        self._samples.append(self._pending)
        self._pending = 0.0

    def run_jobs(self, jobs) -> list[dict]:
        """Run ``[(name, job), ...]`` in order and return one record per job."""
        records = []
        for index, (name, job) in enumerate(jobs):
            self._job, self._job_span = name, f"{self.pass_id}.j{index}"
            self._pending, self._samples = 0.0, []
            start = time.perf_counter()
            status, detail = "ok", None
            try:
                job(self)
            except CheckFailed as exc:
                status, detail = "check", str(exc)
            except NonzeroExit as exc:
                status, detail = "exit", str(exc)
            except Exception as exc:  # any other failure of the package counts, and the run goes on
                status, detail = "raised", f"{type(exc).__name__}: {exc}"
            if self._pending or not self._samples:
                self.split()
            if self.traced:
                self.spans.append({
                    "id": self._job_span, "parent": self.pass_id, "job": name, "name": "job",
                    "layer": None, "start": start, "end": time.perf_counter(),
                    "error": None if status == "ok" else status,
                })
            records.append({"name": name, "samples": self._samples, "status": status,
                            "detail": detail})
        return records
