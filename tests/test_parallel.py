"""Static partitioning and bit-exact parallel kernel equivalence."""

import threading

import numpy as np
import pytest

import amnocr.parallel
from amnocr import (
    ExecPlan,
    net_input,
    par_net_input,
    par_train_pair,
    partition_static,
    store_patterns,
    train_pair,
    zero_weights,
)
from amnocr.parallel import MAX_THREADS
from helpers import bipolar, physical_cores, random_pattern, split_text, steal_share, steal_text, thread_split_ratio

A = bipolar([1, -1, 1, -1])
B = bipolar([1, 1, -1, -1])


def test_partition_round_robin_example():
    assignment = partition_static(10, ExecPlan(threads=2, chunk=3))
    assert assignment.ranges == (((0, 3), (6, 9)), ((3, 6), (9, 10)))


def test_partition_single_worker_gets_everything():
    assignment = partition_static(10, ExecPlan(threads=1, chunk=4))
    assert assignment.ranges == (((0, 4), (4, 8), (8, 10)),)


def test_partition_default_chunk_is_one_block_per_worker():
    plan = ExecPlan(threads=4)
    assert plan.chunk_for(1209) == 303
    assignment = partition_static(1209, plan)
    assert assignment.ranges == (((0, 303),), ((303, 606),), ((606, 909),), ((909, 1209),))


def test_partition_more_workers_than_blocks():
    assignment = partition_static(3, ExecPlan(threads=8, chunk=2))
    assert assignment.ranges[0] == ((0, 2),)
    assert assignment.ranges[1] == ((2, 3),)
    assert all(r == () for r in assignment.ranges[2:])


def _coverage_is_exact(assignment, n):
    hits = np.zeros(n, dtype=np.int64)
    for ranges in assignment.ranges:
        for start, end in ranges:
            assert 0 <= start < end <= n
            hits[start:end] += 1
    return (hits == 1).all()


def test_partition_disjoint_exact_cover_randomized():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 3000))
        plan = ExecPlan(threads=int(rng.integers(1, 33)), chunk=int(rng.integers(1, n + 5)))
        assert _coverage_is_exact(partition_static(n, plan), n)


def test_partition_rejects_empty_range():
    with pytest.raises(ValueError):
        partition_static(0, ExecPlan(threads=2))


def test_plan_validation():
    with pytest.raises(ValueError):
        ExecPlan(threads=0)
    with pytest.raises(ValueError):
        ExecPlan(threads=2, chunk=0)
    # partition_static would fail later with a TypeError on these.
    for bad in (2.5, "2"):
        with pytest.raises(ValueError, match="threads must be an integer"):
            ExecPlan(threads=bad)
        with pytest.raises(ValueError, match="chunk must be an integer"):
            ExecPlan(threads=2, chunk=bad)
    assert ExecPlan(threads=np.int64(2), chunk=np.int32(3)).chunk_for(10) == 3


def test_plan_env_override(monkeypatch):
    monkeypatch.setenv("AMN_THREADS", "3")
    assert ExecPlan().threads == 3
    assert ExecPlan(threads=5).threads == 5  # explicit value beats the env


def test_plan_env_invalid(monkeypatch):
    monkeypatch.setenv("AMN_THREADS", "zero")
    with pytest.raises(ValueError, match="AMN_THREADS"):
        ExecPlan()
    monkeypatch.setenv("AMN_THREADS", "-2")
    with pytest.raises(ValueError, match="AMN_THREADS"):
        ExecPlan()


def test_plan_thread_ceiling():
    # Only plans are built here; no team is started.
    assert MAX_THREADS == 256
    plan = ExecPlan(threads=MAX_THREADS, chunk=1)
    assert len(partition_static(3, plan).ranges) == MAX_THREADS
    with pytest.raises(ValueError, match="threads must be at most 256, got 257"):
        ExecPlan(threads=MAX_THREADS + 1)


def test_plan_env_above_ceiling(monkeypatch):
    monkeypatch.setenv("AMN_THREADS", str(MAX_THREADS))
    assert ExecPlan().threads == MAX_THREADS
    monkeypatch.setenv("AMN_THREADS", "100000")
    with pytest.raises(ValueError, match="AMN_THREADS must be at most 256, got '100000'"):
        ExecPlan()


def test_plan_default_is_capped(monkeypatch):
    monkeypatch.delenv("AMN_THREADS", raising=False)
    monkeypatch.setattr(amnocr.parallel.os, "cpu_count", lambda: 4096)
    assert ExecPlan().threads == MAX_THREADS


def test_team_starts_threads_only_for_workers_with_blocks(monkeypatch):
    started = []

    class CountedThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(amnocr.parallel.threading, "Thread", CountedThread)
    w, key = store_patterns([A, B]), A
    plan = ExecPlan(threads=8, chunk=1)  # 4 cells make 4 blocks; the caller takes the first
    assert par_net_input(w, key, plan) == net_input(w, key)
    assert len(started) == 3
    assert np.array_equal(par_train_pair(w, A, B, plan), train_pair(w, A, B))
    assert len(started) == 6
    par_net_input(w, key, ExecPlan(threads=2, chunk=4))  # one block, run by the caller
    assert len(started) == 6
    assert not any(t.is_alive() for t in started)


def test_team_failure_is_raised_after_every_worker_is_joined():
    finished = []

    def work(start, end):
        if start == 0:
            raise RuntimeError("worker 0 failed")
        finished.append(start)

    with pytest.raises(RuntimeError, match="worker 0 failed"):
        amnocr.parallel._run_team(partition_static(4, ExecPlan(threads=4, chunk=1)), work)
    assert sorted(finished) == [1, 2, 3]


def test_plan_defaults_to_cpu_count(monkeypatch):
    monkeypatch.delenv("AMN_THREADS", raising=False)
    import os

    assert ExecPlan().threads == (os.cpu_count() or 1)


PLANS = [
    ExecPlan(threads=t, chunk=c) for t in (1, 2, 4) for c in (1, 16, None)
]


@pytest.mark.parametrize("n", [4, 64])
def test_par_train_pair_equals_serial(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        w = rng.integers(-30, 31, size=(n, n)).astype(np.int64)
        inp, tgt = random_pattern(rng, n), random_pattern(rng, n)
        want = train_pair(w, inp, tgt)
        for plan in PLANS:
            assert np.array_equal(par_train_pair(w, inp, tgt, plan), want)


@pytest.mark.parametrize("n", [4, 64])
def test_par_net_input_equals_serial(n):
    rng = np.random.default_rng(n + 1)
    for _ in range(5):
        w = rng.integers(-30, 31, size=(n, n)).astype(np.int64)
        key = random_pattern(rng, n)
        want = net_input(w, key)
        for plan in PLANS:
            assert par_net_input(w, key, plan) == want


def test_par_net_input_frozen_chain():
    w = store_patterns([A, B])
    got = par_net_input(w, A, ExecPlan(threads=2, chunk=1))
    assert got.a.tolist() == [4, -4, 4, -4]


def test_par_net_input_zero_weights_any_plan():
    key = bipolar([1, -1, 1, 1, -1])
    for plan in (ExecPlan(threads=1), ExecPlan(threads=3, chunk=2)):
        assert not par_net_input(zero_weights(5), key, plan).a.any()


def test_par_train_pair_preserves_argument():
    w = zero_weights(4)
    par_train_pair(w, A, B, ExecPlan(threads=2, chunk=1))
    assert not w.any()


def test_par_kernels_validate_dimensions():
    plan = ExecPlan(threads=2)
    with pytest.raises(ValueError):
        par_net_input(zero_weights(4), bipolar([1, -1]), plan)
    with pytest.raises(ValueError):
        par_train_pair(zero_weights(4), bipolar([1, -1]), A, plan)


def test_owner_computes_write_tracking():
    # Simulate the kernels' ownership rule: replaying the assignment must
    # touch every index exactly once, with the round-robin owner.
    for n, threads, chunk in ((17, 3, 2), (1209, 4, 303), (100, 7, 1)):
        assignment = partition_static(n, ExecPlan(threads=threads, chunk=chunk))
        owner = np.full(n, -1, dtype=np.int64)
        for worker_id, ranges in enumerate(assignment.ranges):
            for start, end in ranges:
                assert (owner[start:end] == -1).all(), "cell written twice"
                owner[start:end] = worker_id
        assert (owner >= 0).all(), "cell never written"
        for idx in range(n):
            assert owner[idx] == (idx // chunk) % threads


def test_par_result_is_read_only():
    out = par_train_pair(zero_weights(4), A, B, ExecPlan(threads=2))
    with pytest.raises(ValueError):
        out[0, 0] = 9


@pytest.mark.skipif(physical_cores() < 2, reason="speedup direction needs >= 2 physical cores")
def test_speedup_sanity_machine_relative():
    import statistics
    import time

    n = 1209
    rng = np.random.default_rng(99)
    w = rng.integers(-52, 53, size=(n, n)).astype(np.int64)
    inp, tgt, key = (random_pattern(rng, n) for _ in range(3))
    plan = ExecPlan(threads=physical_cores())

    def serial_pass():
        train_pair(w, inp, tgt)
        net_input(w, key)

    def parallel_pass():
        par_train_pair(w, inp, tgt, plan)
        par_net_input(w, key, plan)

    serial_pass(), parallel_pass()  # warm-up
    serial_ts, parallel_ts = [], []

    def timed_loop():
        for _ in range(100):
            t0 = time.perf_counter_ns()
            serial_pass()
            serial_ts.append(time.perf_counter_ns() - t0)
            t0 = time.perf_counter_ns()
            parallel_pass()
            parallel_ts.append(time.perf_counter_ns() - t0)

    _, steal = steal_share(timed_loop)
    serial, parallel = statistics.median(serial_ts), statistics.median(parallel_ts)
    split = thread_split_ratio(w, key)
    host = (
        f"parallel median {parallel / 1e6:.2f}ms, serial median {serial / 1e6:.2f}ms, "
        f"{steal_text(steal)}, {split_text(split)}"
    )
    print(f"speedup sanity: {host}")
    assert parallel < serial, host
