"""Shared test utilities: pattern constructors and host introspection."""

import os
import statistics
import time
import tracemalloc

import numpy as np

from amnocr import ExecPlan, LabeledPattern, Pattern
from amnocr.parallel import _run_team, partition_static


def bipolar(cells, width=None, height=None):
    """Pattern from a flat cell list; defaults to a single row."""
    if width is None:
        width, height = len(cells), 1
    return Pattern(width=width, height=height, cells=cells)


def random_pattern(rng, n, width=None, height=None):
    cells = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    if width is None:
        width, height = n, 1
    return Pattern(width=width, height=height, cells=cells)


def hadamard_rows(order):
    """Rows of the +-1 Sylvester Hadamard matrix; mutually orthogonal."""
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]]).astype(np.int8)
    assert h.shape[0] == order, f"order {order} is not a power of two"
    return [Pattern(width=order, height=1, cells=row) for row in h]


def labeled(patterns, labels=None):
    if labels is None:
        labels = [chr(ord("a") + i) for i in range(len(patterns))]
    return [LabeledPattern(lbl, p) for lbl, p in zip(labels, patterns)]


def peak_bytes(run):
    """The most bytes ``run()`` holds at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def physical_cores():
    """Physical core count from /proc/cpuinfo, else the logical count."""
    try:
        pairs = set()
        cur = {}
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if ":" in line:
                    key, val = (part.strip() for part in line.split(":", 1))
                    cur[key] = val
                elif not line.strip():
                    if "physical id" in cur and "core id" in cur:
                        pairs.add((cur["physical id"], cur["core id"]))
                    cur = {}
        if "physical id" in cur and "core id" in cur:
            pairs.add((cur["physical id"], cur["core id"]))
        if pairs:
            return len(pairs)
    except OSError:
        pass
    return os.cpu_count() or 1


def steal_share(timed):
    """Run ``timed()``; return its result and the share of CPU ticks the hypervisor stole meanwhile.

    The share is the growth of ``steal`` over the growth of all ticks on
    /proc/stat's ``cpu`` line (user through steal; guest time is already in
    user), or ``None`` where that line or its ``steal`` field is absent.
    """

    def ticks():
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    fields = line.split()
                    if fields[:1] == ["cpu"] and len(fields) > 8:
                        return [int(v) for v in fields[1:9]]
        except (OSError, ValueError):
            pass
        return None

    before = ticks()
    result = timed()
    after = ticks()
    if before is None or after is None:
        return result, None
    total = sum(after) - sum(before)
    return result, (after[7] - before[7]) / total if total > 0 else 0.0


def steal_text(share):
    """``share`` from :func:`steal_share` as a verdict fragment."""
    return "steal unknown" if share is None else f"steal {share:.1%} of ticks"


def thread_split_ratio(w, key, rounds=40):
    """Median time of a 2-worker team split of ``key``'s int64 net input on ``w``, over the serial product's.

    The serial side is ``key @ w``. The split hands half of the output
    columns to each worker of ``amnocr.parallel._run_team`` under a 2-thread
    ``partition_static`` plan, so it lays out its team as ``par_net_input``
    does: the calling thread computes the first half and one new thread the
    other. The two alternate for ``rounds`` rounds after one warm-up each, in
    this process. A ratio at or above 1 says the host gave the kernels' team
    layout no gain on this product, without the kernels' checks and copies.
    At n = 1209 it takes about 0.1-0.3 s.
    """
    w = np.asarray(w, dtype=np.int64)
    x = key.cells.astype(np.int64)
    n = w.shape[1]
    out = np.empty(n, dtype=np.int64)

    def half(lo, hi):
        out[lo:hi] = x @ w[:, lo:hi]

    def split():
        _run_team(partition_static(n, ExecPlan(threads=2)), half)

    x @ w, split()  # warm-up
    serial_ts, split_ts = [], []
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        x @ w
        serial_ts.append(time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        split()
        split_ts.append(time.perf_counter_ns() - t0)
    return statistics.median(split_ts) / statistics.median(serial_ts)


def split_text(ratio):
    """``ratio`` from :func:`thread_split_ratio` as a verdict fragment."""
    return f"2-worker team split {ratio:.2f}x serial"
