"""Benchmark harness: timing capture, divergence tripwire, CSV emission."""

import csv
import dataclasses
import importlib
import statistics
from fractions import Fraction

import numpy as np
import pytest

import amnocr.bench
import oracles
from amnocr import (
    ExecPlan,
    InvariantError,
    LabeledPattern,
    ParallelDivergenceError,
    Pattern,
    TimingStats,
    build_model,
    noise_sweep,
    run_benchmark,
    write_matching_levels_csv,
    write_report_csv,
    write_speedup_csv,
    write_sweep_csv,
)
from amnocr.recognize import RecognitionResult
from helpers import bipolar, hadamard_rows, labeled, random_pattern


@pytest.fixture
def ortho_model():
    return build_model(labeled(hadamard_rows(8)))  # labels a..h


def test_timing_stats_derived_consistently():
    assert TimingStats((5, 1, 9, 3, 7)).median == 5
    assert TimingStats((2, 4)).median == 3


def test_timing_stats_rejects_empty():
    with pytest.raises(ValueError):
        TimingStats(())


def test_benchmark_row_shape(ortho_model):
    keys = [LabeledPattern(e.label, e.pattern) for e in ortho_model.entries]
    rows = run_benchmark(ortho_model, keys, ExecPlan(threads=2), runs=5)
    assert [r.key_label for r in rows] == [k.label for k in keys]  # input order
    for row in rows:
        assert len(row.serial.samples) == 5
        assert len(row.parallel.samples) == 5
        assert all(t > 0 for t in row.serial.samples + row.parallel.samples)
        assert row.runs == 5
        assert row.speedup > 0
        assert row.correct and row.predicted_label == row.key_label
        assert row.match_pct == 100.0


def test_benchmark_single_run_single_thread(ortho_model):
    keys = [LabeledPattern("a", ortho_model.entries[0].pattern)]
    rows = run_benchmark(ortho_model, keys, ExecPlan(threads=1, chunk=ortho_model.n), runs=1)
    assert len(rows) == 1
    assert len(rows[0].serial.samples) == 1


def test_benchmark_rejects_empty_keys(ortho_model):
    with pytest.raises(ValueError):
        run_benchmark(ortho_model, [], runs=1)
    with pytest.raises(ValueError):
        run_benchmark(ortho_model, [LabeledPattern("a", ortho_model.entries[0].pattern)], runs=0)


def test_benchmark_nontiming_fields_deterministic(ortho_model):
    rng = np.random.default_rng(9)
    keys = [
        LabeledPattern(e.label, random_pattern(rng, ortho_model.n))
        for e in ortho_model.entries[:4]
    ]
    first = run_benchmark(ortho_model, keys, runs=2)
    second = run_benchmark(ortho_model, keys, runs=2)
    for a, b in zip(first, second):
        assert (a.key_label, a.predicted_label, a.match_pct, a.correct) == (
            b.key_label,
            b.predicted_label,
            b.match_pct,
            b.correct,
        )


def test_divergence_is_a_hard_failure(ortho_model, monkeypatch):
    real = amnocr.bench._recognize_dense

    def sabotaged(model, key, plan=None):
        result = real(model, key)
        if plan is not None:  # parallel path: corrupt the predicted label
            return RecognitionResult(predicted="bogus", scores=result.scores, recalled=result.recalled)
        return result

    monkeypatch.setattr(amnocr.bench, "_recognize_dense", sabotaged)
    keys = [LabeledPattern("a", ortho_model.entries[0].pattern)]
    with pytest.raises(ParallelDivergenceError, match="key 'a'"):
        run_benchmark(ortho_model, keys, runs=1)


def _diverge_parallel(monkeypatch, corrupt):
    """Make the parallel path of run_benchmark return ``corrupt(result)``."""
    real = amnocr.bench._recognize_dense

    def sabotaged(model, key, plan=None):
        result = real(model, key, plan)
        return corrupt(result) if plan is not None else result

    monkeypatch.setattr(amnocr.bench, "_recognize_dense", sabotaged)


def test_divergence_names_the_first_differing_cell(ortho_model, monkeypatch):
    def flip_cells_5_and_6(result):
        cells = result.recalled.cells.copy()
        cells[5:7] = -cells[5:7]
        return dataclasses.replace(result, recalled=Pattern(result.recalled.width, result.recalled.height, cells))

    _diverge_parallel(monkeypatch, flip_cells_5_and_6)
    key = ortho_model.entries[0].pattern  # row 0 of the Hadamard matrix: all +1
    with pytest.raises(ParallelDivergenceError) as exc:
        run_benchmark(ortho_model, [LabeledPattern("a", key)], runs=1)
    assert str(exc.value) == (
        "serial and parallel warm-up recognition disagree for key 'a' at recalled cell 5: serial 1, parallel -1"
    )


def test_divergence_names_the_first_differing_score(ortho_model, monkeypatch):
    def lower_c(result):
        return dataclasses.replace(result, scores={**result.scores, "c": Fraction(699, 7)})

    _diverge_parallel(monkeypatch, lower_c)
    keys = [LabeledPattern("c", ortho_model.entries[2].pattern)]
    with pytest.raises(ParallelDivergenceError, match=r"key 'c' at score of label 'c': serial 100, parallel 699/7$"):
        run_benchmark(ortho_model, keys, runs=1)


def test_divergence_names_both_predicted_labels(ortho_model, monkeypatch):
    _diverge_parallel(monkeypatch, lambda result: dataclasses.replace(result, predicted="bogus"))
    keys = [LabeledPattern("a", ortho_model.entries[0].pattern)]
    with pytest.raises(ParallelDivergenceError, match=r"at predicted label: serial 'a', parallel 'bogus'$"):
        run_benchmark(ortho_model, keys, runs=1)


@pytest.mark.parametrize("mode", ["superposed", "literal"])
@pytest.mark.parametrize("path", ["serial", "parallel"])
def test_a_timed_run_that_differs_from_its_warm_up_is_named(path, mode, monkeypatch):
    model = build_model(labeled(hadamard_rows(8)), mode=mode)  # key 'a' scores 100 for 'a' in both modes
    real = amnocr.bench._recognize_dense
    calls = {"serial": 0, "parallel": 0}

    def sabotaged(model, key, plan=None):
        result = real(model, key, plan)
        name = "parallel" if plan is not None else "serial"
        calls[name] += 1
        if name == path and calls[name] == 3:  # the path's warm-up and run 1 stay clean; run 2 scores 'a' 1/7
            return dataclasses.replace(result, scores={**result.scores, "a": Fraction(1, 7)})
        return result

    monkeypatch.setattr(amnocr.bench, "_recognize_dense", sabotaged)
    with pytest.raises(InvariantError) as exc:
        run_benchmark(model, [LabeledPattern("a", model.entries[0].pattern)], ExecPlan(threads=2), runs=3)
    assert type(exc.value) is InvariantError
    assert str(exc.value) == (
        f"{path} run 2 differs from its warm-up for key 'a' at score of label 'a': warm-up 100, run 1/7"
    )


DENSE_KERNELS = ("zero_weights", "train_pair", "par_train_pair", "net_input", "threshold", "par_net_input")


def test_recognize_binds_no_dense_kernel():
    # Plain recognition is factored; the dense kernels are bench's alone.
    module = importlib.import_module("amnocr.recognize")
    assert [name for name in DENSE_KERNELS if hasattr(module, name)] == []


def _count_kernel_calls(monkeypatch, *names):
    """Count calls the bench module makes to the named kernels; the counts update in place."""
    module = amnocr.bench
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_benchmark_times_the_dense_kernels(ortho_model, monkeypatch):
    # run_benchmark times net_input against par_net_input.
    calls = _count_kernel_calls(monkeypatch, "net_input", "par_net_input")
    key = ortho_model.entries[3].pattern
    run_benchmark(ortho_model, [LabeledPattern("d", key)], ExecPlan(threads=2), runs=3)
    assert calls == {"net_input": 4, "par_net_input": 4}  # one warm-up and three timed runs each


def test_benchmark_times_the_literal_training_kernels(monkeypatch):
    # run_benchmark times the serial and parallel training and recall.
    names = ("zero_weights", "train_pair", "par_train_pair", "net_input", "par_net_input")
    calls = _count_kernel_calls(monkeypatch, *names)
    model = build_model(labeled(hadamard_rows(8)), mode="literal")
    key = model.entries[2].pattern
    run_benchmark(model, [LabeledPattern("c", key)], ExecPlan(threads=2), runs=2)
    # One warm-up and two timed runs per path, each training one matrix per label.
    assert calls == {"zero_weights": 6, "train_pair": 24, "par_train_pair": 24, "net_input": 24, "par_net_input": 24}


# --- CSV emission ---


def _bench_rows(model, n_keys=3, runs=2):
    keys = [LabeledPattern(e.label, e.pattern) for e in model.entries[:n_keys]]
    return run_benchmark(model, keys, ExecPlan(threads=2), runs=runs)


def test_report_csv_layout(ortho_model, tmp_path):
    rows = _bench_rows(ortho_model)
    path = write_report_csv(rows, tmp_path / "report.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,predicted,match_pct,correct,serial_median_ns,parallel_median_ns,speedup,runs"
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("a,a,100.00,true,")


def test_report_csv_round_trip(ortho_model, tmp_path):
    rows = _bench_rows(ortho_model, n_keys=4, runs=3)
    path = write_report_csv(rows, tmp_path / "report.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    for got, row in zip(parsed, rows):
        assert got["label"] == row.key_label
        assert got["predicted"] == row.predicted_label
        assert float(got["match_pct"]) == row.match_pct
        assert got["correct"] == ("true" if row.correct else "false")
        assert float(got["serial_median_ns"]) == float(row.serial.median)
        assert float(got["parallel_median_ns"]) == float(row.parallel.median)
        assert float(got["speedup"]) == round(row.speedup, 4)
        assert int(got["runs"]) == row.runs


def test_report_csv_52_keys_header_plus_rows(glyph_model_52, tmp_path):
    keys = [LabeledPattern(e.label, e.pattern) for e in glyph_model_52.entries]
    rows = run_benchmark(glyph_model_52, keys, ExecPlan(threads=1), runs=1)
    path = write_report_csv(rows, tmp_path / "report.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 53  # header + one row per key
    assert [line.split(",", 1)[0] for line in lines[1:]] == [k.label for k in keys]


def test_matching_levels_csv(ortho_model, tmp_path):
    rows = _bench_rows(ortho_model)
    path = write_matching_levels_csv(rows, tmp_path / "levels.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,match_pct,correct"
    assert lines[1] == "a,100.00,true"


def test_speedup_csv(ortho_model, tmp_path):
    rows = _bench_rows(ortho_model)
    path = write_speedup_csv(rows, tmp_path / "speedup.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    for got, row in zip(parsed, rows):
        assert float(got["speedup"]) == round(row.speedup, 4)
        assert float(got["serial_median_ns"]) == float(row.serial.median)


def test_per_key_csvs_are_byte_exact(ortho_model, tmp_path):
    rng = np.random.default_rng(9)
    keys = [
        LabeledPattern("a", ortho_model.entries[0].pattern),  # recognized
        LabeledPattern("b", random_pattern(rng, ortho_model.n)),  # partial match, missed
        LabeledPattern("c", ortho_model.entries[3].pattern),  # full match of another label
    ]
    rows = [
        dataclasses.replace(r, serial=TimingStats((3, 4)), parallel=TimingStats((2, 2)))
        for r in run_benchmark(ortho_model, keys, runs=2)
    ]
    assert write_report_csv(rows, tmp_path / "report.csv").read_bytes() == (
        b"label,predicted,match_pct,correct,serial_median_ns,parallel_median_ns,speedup,runs\n"
        b"a,a,100.00,true,3.5,2,1.7500,2\n"
        b"b,a,62.50,false,3.5,2,1.7500,2\n"
        b"c,d,100.00,false,3.5,2,1.7500,2\n"
    )
    assert write_matching_levels_csv(rows, tmp_path / "levels.csv").read_bytes() == (
        b"label,match_pct,correct\na,100.00,true\nb,62.50,false\nc,100.00,false\n"
    )
    assert write_speedup_csv(rows, tmp_path / "speedup.csv").read_bytes() == (
        b"label,serial_median_ns,parallel_median_ns,speedup\n"
        b"a,3.5,2,1.7500\nb,3.5,2,1.7500\nc,3.5,2,1.7500\n"
    )


def test_csv_writers_reject_empty(tmp_path):
    for writer in (write_report_csv, write_matching_levels_csv, write_speedup_csv):
        with pytest.raises(ValueError):
            writer([], tmp_path / "x.csv")
    with pytest.raises(ValueError):
        write_sweep_csv([], tmp_path / "x.csv")


# --- noise sweep ---


def test_sweep_zero_rate_is_perfect(ortho_model):
    points = noise_sweep(ortho_model, [0.0], seed=5, runs=1)
    assert points[0].top1_accuracy == 1.0
    assert points[0].mean_best_match_pct == 100.0


def test_sweep_single_pattern_store_full_noise():
    rng = np.random.default_rng(12)
    model = build_model([LabeledPattern("A", random_pattern(rng, 30))])
    points = noise_sweep(model, [1.0], seed=3, runs=1)
    assert points[0].top1_accuracy == 1.0  # argmax over one label cannot miss


def test_sweep_validates_rates(ortho_model):
    with pytest.raises(ValueError):
        noise_sweep(ortho_model, [0.2, 1.3], seed=1)
    with pytest.raises(ValueError):
        noise_sweep(ortho_model, [], seed=1)


def test_sweep_validates_runs(ortho_model):
    with pytest.raises(ValueError, match="runs must be >= 1"):
        noise_sweep(ortho_model, [0.2], seed=1, runs=0)


@pytest.mark.parametrize(
    "store, rates, seeds, plan, runs",
    [
        ("ortho_model", [0.0, 0.1, 0.3, 1.0], (5, 6), ExecPlan(threads=2), 2),
        # Labels run h..a, so a tie for the top score goes to the later entry;
        # at these rates about two keys in three tie.
        ("reversed_hadamard_8", [0.25, 0.5], range(10), None, 1),
        ("literal_hadamard_8", [0.0, 0.3, 1.0], (4,), ExecPlan(threads=2, chunk=3), 1),
        ("glyph_model_52", [0.1, 0.4], (3,), ExecPlan(threads=1), 1),
    ],
)
def test_sweep_equals_the_timed_sweep(request, store, rates, seeds, plan, runs):
    if store == "reversed_hadamard_8":
        model = build_model(labeled(hadamard_rows(8), list("hgfedcba")))
    elif store == "literal_hadamard_8":
        model = build_model(labeled(hadamard_rows(8)), mode="literal")
    else:
        model = request.getfixturevalue(store)
    for seed in seeds:
        assert noise_sweep(model, rates, seed, plan, runs) == oracles.noise_sweep(model, rates, seed, plan, runs)


def test_sweep_runs_no_dense_kernel(ortho_model, monkeypatch):
    names = ("zero_weights", "train_pair", "par_train_pair", "net_input", "par_net_input")
    calls = _count_kernel_calls(monkeypatch, *names)
    literal = build_model(labeled(hadamard_rows(8)), mode="literal")
    for model in (ortho_model, literal):
        noise_sweep(model, [0.0, 0.3], seed=2, plan=ExecPlan(threads=2), runs=3)
    assert calls == dict.fromkeys(names, 0)
    assert "weights" not in ortho_model.__dict__  # W was never built


def test_sweep_csv_round_trip(ortho_model, tmp_path):
    points = noise_sweep(ortho_model, [0.0, 0.25], seed=7, runs=1)
    path = write_sweep_csv(points, tmp_path / "sweep.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert [float(p["rate"]) for p in parsed] == [0.0, 0.25]
    assert float(parsed[0]["top1_accuracy"]) == 1.0
    assert float(parsed[0]["mean_best_match_pct"]) == 100.0


def test_sweep_csv_is_the_same_for_numpy_float_rates(ortho_model, tmp_path):
    numpy_rates = list(np.linspace(0, 0.5, 3))
    assert all(type(rate) is np.float64 for rate in numpy_rates)
    numpy_csv = write_sweep_csv(noise_sweep(ortho_model, numpy_rates, seed=7), tmp_path / "numpy.csv")
    float_csv = write_sweep_csv(noise_sweep(ortho_model, [0.0, 0.25, 0.5], seed=7), tmp_path / "float.csv")
    assert numpy_csv.read_bytes() == float_csv.read_bytes()
    assert [line.split(",")[0] for line in float_csv.read_text().splitlines()] == ["rate", "0.0", "0.25", "0.5"]


def test_sweep_is_deterministic(ortho_model):
    a = noise_sweep(ortho_model, [0.1, 0.3], seed=11, runs=1)
    b = noise_sweep(ortho_model, [0.1, 0.3], seed=11, runs=1)
    assert a == b


def test_speedup_column_matches_medians(ortho_model):
    rows = _bench_rows(ortho_model, n_keys=2, runs=3)
    for row in rows:
        assert row.speedup == row.serial.median / row.parallel.median
        assert statistics.median(row.serial.samples) == row.serial.median
