"""Deterministic data-parallel counterparts of the reference kernels.

The index range 0..n is split into fixed-size blocks handed round-robin to a
worker team (static chunked scheduling). Each output cell has exactly one
writer ("owner computes"): the weight update parallelizes over rows, the net
input over output nodes with each node's full sum done locally. Combined
with integer arithmetic this makes the parallel results bit-identical to the
serial kernels, not merely close.

A worker team is the calling thread, which takes the first worker's blocks,
plus one plain thread per other worker that owns a block, created per call
and joined before the call returns; inputs must not be mutated while a call
is in flight. The heavy lifting happens inside numpy,
which releases the GIL, so teams scale on multi-core hosts. ``AMN_THREADS``
overrides the default team size; a plan asks for at most ``MAX_THREADS``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import ActivationVector, _check_weight_budget, _check_weights
from .errors import _check_int
from .patterns import Pattern

__all__ = ["MAX_THREADS", "ExecPlan", "partition_static", "par_train_pair", "par_net_input"]

THREADS_ENV_VAR = "AMN_THREADS"


# The largest team a plan may ask for; far above any core count this package
# targets, low enough that a typo cannot start thousands of threads.
MAX_THREADS = 256


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return min(os.cpu_count() or 1, MAX_THREADS)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")
    if value > MAX_THREADS:
        raise ValueError(f"{THREADS_ENV_VAR} must be at most {MAX_THREADS}, got {raw!r}")
    return value


@dataclass(frozen=True)
class ExecPlan:
    """Worker count and block size for static chunked scheduling.

    ``threads`` defaults to ``AMN_THREADS`` or the hardware thread count and
    is an integer in [1, ``MAX_THREADS``]. ``chunk`` is an integer >= 1, or
    ``None`` for one block per worker, ceil(n / threads), once n is known.
    Anything else, bool included, is a ``ValueError`` (``errors._check_int``).
    """

    threads: int | None = None
    chunk: int | None = None

    def __post_init__(self):
        if self.threads is None:
            object.__setattr__(self, "threads", _default_threads())
        _check_int("threads", self.threads, 1, MAX_THREADS)
        if self.chunk is not None:
            _check_int("chunk", self.chunk, 1)

    def chunk_for(self, n: int) -> int:
        return self.chunk if self.chunk is not None else math.ceil(n / self.threads)


@dataclass(frozen=True)
class IndexAssignment:
    """Half-open index ranges per worker; a disjoint exact cover of 0..n."""

    n: int
    ranges: tuple[tuple[tuple[int, int], ...], ...]


def partition_static(n: int, plan: ExecPlan) -> IndexAssignment:
    """Split 0..n into consecutive ``chunk``-sized blocks, round-robin.

    Block b covers [b*chunk, min((b+1)*chunk, n)) and goes to worker
    b mod threads; the last block may be short.
    """
    _check_int("index count", n, 1)
    chunk = plan.chunk_for(n)
    per_worker: list[list[tuple[int, int]]] = [[] for _ in range(plan.threads)]
    for b, start in enumerate(range(0, n, chunk)):
        per_worker[b % plan.threads].append((start, min(start + chunk, n)))
    return IndexAssignment(n=n, ranges=tuple(tuple(r) for r in per_worker))


def _run_team(assignment: IndexAssignment, work) -> None:
    """Call ``work(start, end)`` on every range, each worker's ranges on one thread.

    The calling thread takes the first worker with ranges and a new thread
    each other one; a worker whose range list is empty gets none, so a team
    never outnumbers the blocks. Working on the calling thread saves a spawn
    and keeps its core busy rather than asleep in ``join``: on a 2-vCPU host a
    2-thread ``par_net_input`` at n=1209 then took 0.61-0.66 of the serial time
    in 9 runs of 300 calls, against 0.65-1.07 with both workers on new threads.
    Joins all threads and re-raises the first failure.
    """
    failures: list[BaseException] = []

    def guarded(ranges):
        try:
            for start, end in ranges:
                work(start, end)
        except BaseException as exc:  # propagated after join
            failures.append(exc)

    first, *others = [ranges for ranges in assignment.ranges if ranges]
    team = [threading.Thread(target=guarded, args=(ranges,)) for ranges in others]
    for t in team:
        t.start()
    guarded(first)
    for t in team:
        t.join()
    if failures:
        raise failures[0]


def par_train_pair(w: np.ndarray, input_pattern: Pattern, target_pattern: Pattern, plan: ExecPlan) -> np.ndarray:
    """Parallel Hebbian update; bit-identical to :func:`amnocr.core.train_pair`.

    Parallelized over the row index: a worker updates only the weight rows in
    its assigned ranges, so no two workers ever touch the same cell. Their
    blocks add up to one outer product, so the budget is ``train_pair``'s.
    """
    w = _check_weights(w, input=input_pattern, target=target_pattern)
    _check_weight_budget(w.shape[0], matrices=3)
    out = w.copy()
    inp = input_pattern.cells.astype(np.int64)
    tgt = target_pattern.cells.astype(np.int64)

    def work(start, end):
        out[start:end, :] += np.outer(inp[start:end], tgt)

    _run_team(partition_static(out.shape[0], plan), work)
    out.setflags(write=False)
    return out


def par_net_input(w: np.ndarray, key: Pattern, plan: ExecPlan) -> ActivationVector:
    """Parallel net input; bit-identical to :func:`amnocr.core.net_input`.

    Parallelized over the output node index: each a[j] is computed entirely
    by the worker that owns j (full sum over inputs done locally), so there
    is no cross-worker accumulation and no reduction ordering to worry about.
    """
    w64 = _check_weights(w, key=key)
    key64 = key.cells.astype(np.int64)
    a = np.zeros(key.n, dtype=np.int64)

    def work(start, end):
        a[start:end] = key64 @ w64[:, start:end]

    _run_team(partition_static(key.n, plan), work)
    return ActivationVector(width=key.width, height=key.height, a=a)
