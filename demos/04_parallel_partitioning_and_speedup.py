"""Static chunked scheduling made visible, plus a serial vs parallel timing run.

Shows which worker owns which index ranges under a few plans, verifies the
bit-equality contract on random inputs, and times both kernel paths on this
host. The direction of the timing result is machine-relative: with one core
the team overhead makes the parallel path slower, with two or more physical
cores it wins.
"""

import os
import statistics
import time

import numpy as np

from amnocr import (
    ExecPlan,
    Pattern,
    net_input,
    par_net_input,
    par_train_pair,
    partition_static,
    train_pair,
)

print("Round-robin block assignment, n=10, threads=2, chunk=3:")
for worker, ranges in enumerate(partition_static(10, ExecPlan(threads=2, chunk=3))):
    print(f"  worker {worker}: {list(ranges)}")

print("\nDefault chunk is one block per worker (n=1209, threads=4):")
for worker, ranges in enumerate(partition_static(1209, ExecPlan(threads=4))):
    print(f"  worker {worker}: {list(ranges)}")

n = 1209
rng = np.random.default_rng(5)
w = rng.integers(-52, 53, size=(n, n)).astype(np.int64)
inp = Pattern(n, 1, rng.choice([-1, 1], size=n))
tgt = Pattern(n, 1, rng.choice([-1, 1], size=n))
key = Pattern(n, 1, rng.choice([-1, 1], size=n))

print("\nBit-equality check across plans (exact, not approximate):")
want_w = train_pair(w, inp, tgt)
want_a = net_input(w, key)
for plan in (ExecPlan(threads=1), ExecPlan(threads=2, chunk=100), ExecPlan(threads=4, chunk=1)):
    same_w = np.array_equal(par_train_pair(w, inp, tgt, plan), want_w)
    same_a = par_net_input(w, key, plan) == want_a
    print(f"  threads={plan.threads} chunk={plan.chunk}: train {same_w}, net {same_a}")

threads = os.cpu_count() or 1
plan = ExecPlan(threads=threads)
print(f"\nTiming 60 repetitions of (weight update + net input) at n={n}:")


def serial_pass():
    train_pair(w, inp, tgt)
    net_input(w, key)


def parallel_pass():
    par_train_pair(w, inp, tgt, plan)
    par_net_input(w, key, plan)


serial_pass(), parallel_pass()  # warm-up
serial_ns, parallel_ns = [], []
for _ in range(60):  # interleaved so background load hits both paths alike
    t0 = time.perf_counter_ns()
    serial_pass()
    serial_ns.append(time.perf_counter_ns() - t0)
    t0 = time.perf_counter_ns()
    parallel_pass()
    parallel_ns.append(time.perf_counter_ns() - t0)

serial_ms = statistics.median(serial_ns) / 1e6
parallel_ms = statistics.median(parallel_ns) / 1e6
print(f"  serial   median: {serial_ms:8.3f} ms")
print(f"  parallel median: {parallel_ms:8.3f} ms   ({threads} worker(s))")
print(f"  speedup: {serial_ms / parallel_ms:.2f}x")
if threads < 2:
    print("  (single hardware thread here, so the team overhead dominates)")
