"""Benchmark harness: timed serial vs parallel recognition, the noise sweep, CSV reports.

For every key :func:`run_benchmark` runs one untimed warm-up per path and
checks that the serial and parallel warm-ups agree, then the same number of
timed serial and timed parallel recognitions, checking each against its
path's warm-up; any divergence aborts the run rather than becoming a report
entry, and names the first differing recalled cell, label score or
predicted label with both values. Both paths recall through
the paper's dense kernels on n x n matrices (:func:`~amnocr.core.net_input`
against :func:`~amnocr.parallel.par_net_input` on W, and in literal mode
:func:`~amnocr.core.train_pair` against :func:`~amnocr.parallel.par_train_pair`
per label), in :func:`_recognize_dense`, the package's one dense recognizer,
not in :func:`~amnocr.recognize.recognize`, whatever its ``plan``. Timings
are integer nanoseconds from a monotonic clock; the median is the headline
statistic because it resists scheduler outliers.
:func:`noise_sweep` times nothing and runs no dense kernel: it ranks each noisy
key with :func:`~amnocr.recognize.recognize`, as ``amnocr recognize`` does.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import format_pct, net_input, threshold, train_pair, zero_weights
from .errors import InvariantError, ParallelDivergenceError, _check_int, _check_rates
from .parallel import ExecPlan, par_net_input, par_train_pair
from .patterns import LabeledPattern, Pattern, flip_noise
from .recognize import RecognitionResult, RecognizerModel, _check_key, _ranked, _superposed_result, recognize

__all__ = [
    "TimingStats",
    "ReportRow",
    "SweepPoint",
    "run_benchmark",
    "noise_sweep",
    "write_report_csv",
    "write_matching_levels_csv",
    "write_speedup_csv",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class TimingStats:
    """Wall-clock samples in nanoseconds, summarized by their median."""

    samples: tuple[int, ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("timing stats need at least one sample")

    @property
    def median(self) -> float | int:
        return statistics.median(self.samples)


@dataclass(frozen=True)
class ReportRow:
    """One benchmarked key: outcome, agreement percentage, and timings."""

    key_label: str
    predicted_label: str
    match_pct: float  # best-match percentage, rounded to cents by format_pct
    correct: bool
    serial: TimingStats
    parallel: TimingStats
    runs: int

    @property
    def speedup(self) -> float:
        return self.serial.median / self.parallel.median


@dataclass(frozen=True)
class SweepPoint:
    """Aggregate recognition quality at one synthetic flip-noise rate."""

    rate: float
    top1_accuracy: float
    mean_best_match_pct: float


def _check_same(error, what: str, label: str, names, first: RecognitionResult, second: RecognitionResult) -> None:
    """Raise ``error`` naming the first difference of ``second`` from ``first`` and both values, if any.

    ``names`` are the words the message puts before the first and the second value.
    """
    difference = first.first_difference(second)
    if difference is not None:
        where, first_value, second_value = difference
        raise error(f"{what} for key {label!r} at {where}: {names[0]} {first_value}, {names[1]} {second_value}")


def _recognize_dense(model: RecognizerModel, key: Pattern, plan: ExecPlan | None = None) -> RecognitionResult:
    """What :func:`~amnocr.recognize.recognize` returns, computed with the paper's dense kernels.

    Superposed mode thresholds the net input on W; literal mode trains an
    n x n matrix on (key, target) and recalls with the key, once per label.
    With a ``plan`` the parallel kernels run, which are bit-identical to the serial ones.
    """
    _check_key(model, key)

    def recall(w):
        return threshold(par_net_input(w, key, plan) if plan else net_input(w, key))

    if model.mode == "superposed":
        return _superposed_result(model, recall(model.weights))
    recalled_by_label, agree = {}, []
    zero = zero_weights(model.n)
    for e in model.entries:
        # Passed on unnamed, each label's matrix is freed before the next one is trained.
        out = recall(par_train_pair(zero, key, e.pattern, plan) if plan else train_pair(zero, key, e.pattern))
        recalled_by_label[e.label] = out
        agree.append(int(np.count_nonzero(out.cells == e.pattern.cells)))
    predicted, scores = _ranked(model, agree)
    return RecognitionResult(predicted=predicted, scores=scores, recalled=recalled_by_label[predicted])


def run_benchmark(
    model: RecognizerModel,
    keys: list[LabeledPattern],
    plan: ExecPlan | None = None,
    runs: int = 5,
) -> list[ReportRow]:
    """Time dense serial and parallel recognition for every key, in input order.

    Per key: one untimed warm-up per execution path, then ``runs`` timed
    serial and ``runs`` timed parallel recognitions with the dense kernels
    (see :func:`_recognize_dense`); each sample times the one recognition
    call. Serial and parallel warm-ups that differ raise
    :class:`ParallelDivergenceError`. Each timed result is compared with its
    path's warm-up after its sample is taken, and one that differs raises
    :class:`InvariantError` naming the path, the run (1 to ``runs``), the
    key, the first differing cell, score or label, and both values.
    """
    if not keys:
        raise ValueError("keys must be nonempty")
    _check_int("runs", runs, 1)
    plan = plan or ExecPlan()
    model.weights  # W is built, and its budget checked, before the first key

    rows: list[ReportRow] = []
    for entry in keys:
        serial = _recognize_dense(model, entry.pattern)
        parallel = _recognize_dense(model, entry.pattern, plan)
        _check_same(
            ParallelDivergenceError, "serial and parallel warm-up recognition disagree", entry.label,
            ("serial", "parallel"), serial, parallel,
        )
        rows.append(
            ReportRow(
                key_label=entry.label,
                predicted_label=serial.predicted,
                match_pct=float(format_pct(serial.scores[serial.predicted])),
                correct=entry.label == serial.predicted,
                serial=_timed_runs(model, entry, None, runs, "serial", serial),
                parallel=_timed_runs(model, entry, plan, runs, "parallel", parallel),
                runs=runs,
            )
        )
    return rows


def _timed_runs(
    model: RecognizerModel, entry: LabeledPattern, plan: ExecPlan | None, runs: int,
    path: str, warm_up: RecognitionResult,
) -> TimingStats:
    """``runs`` timed recognitions of one key on one path, each checked against the path's warm-up."""
    samples = []
    for run in range(1, runs + 1):
        t0 = time.perf_counter_ns()
        result = _recognize_dense(model, entry.pattern, plan)
        samples.append(time.perf_counter_ns() - t0)
        _check_same(
            InvariantError, f"{path} run {run} differs from its warm-up", entry.label,
            ("warm-up", "run"), warm_up, result,
        )
    return TimingStats(tuple(samples))


def noise_sweep(
    model: RecognizerModel,
    rates: list[float],
    seed: int,
    plan: ExecPlan | None = None,
    runs: int = 1,
) -> list[SweepPoint]:
    """Recognition quality vs synthetic flip noise on the stored alphabet.

    For each rate, every stored pattern is corrupted with
    ``flip_noise(pattern, rate, seed + index)`` and ranked by ``recognize``
    against the model it came from; the point reports mean top-1 accuracy and
    the mean best-match percentage (each rounded to cents, as in
    :class:`ReportRow`) over those keys. Nothing is timed, so no point depends
    on ``plan`` or ``runs``; ``runs`` is still validated, as ``bench`` does.
    """
    _check_rates(rates)
    _check_int("runs", runs, 1)
    _check_int("seed", seed, 0)
    points: list[SweepPoint] = []
    for rate in rates:
        results = [recognize(model, flip_noise(e.pattern, rate, seed + i)) for i, e in enumerate(model.entries)]
        points.append(
            SweepPoint(
                rate=rate,
                top1_accuracy=sum(r.predicted == lbl for r, lbl in zip(results, model.labels)) / len(results),
                mean_best_match_pct=statistics.fmean(float(format_pct(r.scores[r.predicted])) for r in results),
            )
        )
    return points


def _numstr(x) -> str:
    """Render a timing number losslessly (integer form when integral)."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _write_csv(path, header, rows_out) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows_out)
    return path


# How each per-key column renders a ReportRow; the report has them all, in this order.
_COLUMNS = {
    "label": lambda r: r.key_label,
    "predicted": lambda r: r.predicted_label,
    "match_pct": lambda r: f"{r.match_pct:.2f}",
    "correct": lambda r: "true" if r.correct else "false",
    "serial_median_ns": lambda r: _numstr(r.serial.median),
    "parallel_median_ns": lambda r: _numstr(r.parallel.median),
    "speedup": lambda r: f"{r.speedup:.4f}",
    "runs": lambda r: r.runs,
}


def _write_columns(rows: list[ReportRow], path, columns) -> Path:
    """One line per row with the named ``_COLUMNS``, under a header of their names."""
    if not rows:
        raise ValueError("no rows to write")
    return _write_csv(path, columns, ([_COLUMNS[c](r) for c in columns] for r in rows))


def write_report_csv(rows: list[ReportRow], path) -> Path:
    """Full per-key report: outcome, match percentage, and both timings."""
    return _write_columns(rows, path, list(_COLUMNS))


def write_matching_levels_csv(rows: list[ReportRow], path) -> Path:
    """Per-key matching level, for plotting recognition quality by glyph.

    Misrecognized keys keep their raw best-match value; the ``correct``
    column lets a consumer reconstruct the stricter award-0-on-miss
    convention without losing data.
    """
    return _write_columns(rows, path, ["label", "match_pct", "correct"])


def write_speedup_csv(rows: list[ReportRow], path) -> Path:
    """Per-key serial vs parallel decision timing, for speedup plots."""
    return _write_columns(rows, path, ["label", "serial_median_ns", "parallel_median_ns", "speedup"])


def write_sweep_csv(points: list[SweepPoint], path) -> Path:
    """Noise-sweep table: one line per flip rate."""
    if not points:
        raise ValueError("no sweep points to write")
    return _write_csv(
        path,
        ["rate", "top1_accuracy", "mean_best_match_pct"],
        ([repr(float(p.rate)), f"{p.top1_accuracy:.4f}", f"{p.mean_best_match_pct:.2f}"] for p in points),
    )
