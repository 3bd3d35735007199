"""One benchmark run: set-up, memory pass, timed phase, and the metrics it yields."""

from __future__ import annotations

import functools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from amnocr import ExecPlan, build_model, load_manifest

from . import layers
from .inputs import Sizes
from .tracing import NullTracer, Tracer, p90, summarise
from .workloads import PARALLEL, SERIAL, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 9


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def memory_pass(wl, null):
    """(model_mb, query_peak_mb): bytes live after ``build_model``, and the largest peak of a round-0 serial item."""
    tracemalloc.start()
    try:
        entries = load_manifest(wl.manifest)
        before = tracemalloc.get_traced_memory()[0]
        wl.model = build_model(entries, wl.mode)
        model_bytes = tracemalloc.get_traced_memory()[0] - before
        del entries
        peak_bytes = 0
        for item in wl.serial_items(null):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            wl.attempt(SERIAL, item)
            peak_bytes = max(peak_bytes, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return model_bytes / 1e6, peak_bytes / 1e6


def time_setup(wl, tracer) -> list[float]:
    """Seconds of ``SETUP_REPS`` set-ups, one after another, before the timed phase."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(tracer)
        times.append(time.perf_counter() - t0)
    return times


def timed_loop(wl, seconds, tracer_for, between=lambda: None, min_rounds=1):
    """Whole rounds until the next would end after ``seconds`` of round time.

    Returns (records, seconds spent in rounds). The round's output checks and
    ``between`` run after every round, off the clock.
    """
    records, spent, r = [], 0.0, 0
    while True:
        tracer = tracer_for(r)
        t0 = time.perf_counter()
        records += [(path, ns, tracer.enabled) for path, ns in wl.round(r, tracer)]
        spent += time.perf_counter() - t0
        r += 1
        wl.run_checks()
        between()
        if r >= min_rounds and spent * (r + 1) / r > seconds:
            return records, spent


def host_metadata(plan) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "plan": {"threads": plan.threads, "chunk": plan.chunk},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(), out_dir: Path = OUT) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    plan = ExecPlan(threads=min(2, nproc()))  # explicit, so AMN_THREADS plays no part
    null = NullTracer()
    tracer = Tracer() if trace else null
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as work:
        wl = WORKLOADS[workload](Path(work), seed, plan, sizes)
        if not trace:
            model_mb, query_peak_mb = memory_pass(wl, null)
        setup_times = time_setup(wl, tracer)
        wl.check_setup()
        wl.round(0, null)  # warm-up, not counted
        wl.run_checks()
        if trace:
            # Untraced and traced rounds alternate, so their difference is the tracing overhead.
            between = functools.partial(layers.yardstick, tracer)
            records, wall = timed_loop(wl, seconds, lambda r: tracer if r % 2 else null, between, 2)
            probe_out = Path(work) / "probe_out"
            probe_out.mkdir()
            layers.Probes(wl, tracer).run(probe_out)
        else:
            records, wall = timed_loop(wl, seconds, lambda r: null)
        wl.final_checks()

    ok = [(path, ns, traced) for path, ns, traced in records if ns is not None]
    serial = [ns for path, ns, traced in ok if path == SERIAL and not traced]
    if trace:
        traced = [ns for path, ns, t in ok if path == SERIAL and t]
        overhead_pct = 100 * (statistics.median(traced) / statistics.median(serial) - 1)
        metrics = layers.metrics(tracer, len(wl.ingest_files), overhead_pct)
        report = {
            "workload": workload,
            "seed": seed,
            "host": host_metadata(plan),
            "setup_s": setup_times,
            "summary": summarise(tracer.spans),
            "spans": [list(s) for s in tracer.spans],
        }
        (out_dir / f"trace-{workload}-{seed}.json").write_text(json.dumps(report), encoding="utf-8")
    else:
        parallel = [ns for path, ns, _ in ok if path == PARALLEL]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "model_mb": {"value": model_mb, "unit": "MB"},
            "latency_ms_p50": {"value": statistics.median(serial) / 1e6, "unit": "ms"},
            "latency_ms_p90": {"value": p90(serial) / 1e6, "unit": "ms"},
            "par_latency_ms_p50": {"value": statistics.median(parallel) / 1e6, "unit": "ms"},
            "items_per_s": {"value": len(ok) / wall, "unit": "1/s"},
            "query_peak_mb": {"value": query_peak_mb, "unit": "MB"},
        }
    for message in (wl.errors + wl.failures)[:10]:
        print(message, file=sys.stderr)
    return {
        "correct": not wl.errors,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": metrics,
    }
