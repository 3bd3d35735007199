"""Benchmark harness: timed serial vs parallel recognition, the noise sweep, CSV reports.

For every key :func:`run_benchmark` runs warm-ups (discarded), then the same
number of timed serial and timed parallel recognitions, asserting that both
paths produced identical outputs; any divergence aborts the run rather than
becoming a report entry, and names the first differing recalled cell,
label score or predicted label with both values. Both paths recall through
the paper's dense kernels on n x n matrices (:func:`~amnocr.core.net_input`
against :func:`~amnocr.parallel.par_net_input` on W, and in literal mode
:func:`~amnocr.core.train_pair` against :func:`~amnocr.parallel.par_train_pair`
per label), not through the factored recall that
:func:`~amnocr.recognize.recognize` uses on its own. Timings are integer
nanoseconds from a monotonic clock; the median is the headline statistic
(means are also derived) because it resists scheduler outliers.
:func:`noise_sweep` times nothing and runs no dense kernel: it ranks each noisy
key with :func:`~amnocr.recognize.recognize`, as ``amnocr recognize`` does.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path

from .core import format_pct
from .errors import InvariantError, ParallelDivergenceError, _check_int
from .parallel import ExecPlan
from .patterns import LabeledPattern, flip_noise
from .recognize import RecognitionResult, RecognizerModel, _dense_view, recognize, repeat_recognize

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
    """Wall-clock samples in nanoseconds, with derived summary statistics."""

    samples: tuple[int, ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("timing stats need at least one sample")

    @property
    def min(self) -> int:
        return min(self.samples)

    @property
    def max(self) -> int:
        return max(self.samples)

    @property
    def median(self) -> float | int:
        return statistics.median(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)


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


def _check_agreement(what: str, label: str, serial: RecognitionResult, parallel: RecognitionResult) -> None:
    """Raise :class:`ParallelDivergenceError` naming the first difference, if any."""
    difference = serial.first_difference(parallel)
    if difference is not None:
        where, serial_value, parallel_value = difference
        raise ParallelDivergenceError(
            f"serial and parallel {what} disagree for key {label!r} at {where}: "
            f"serial {serial_value}, parallel {parallel_value}"
        )


def run_benchmark(
    model: RecognizerModel,
    keys: list[LabeledPattern],
    plan: ExecPlan | None = None,
    runs: int = 5,
) -> list[ReportRow]:
    """Time dense serial and parallel recognition for every key, in input order.

    Per key: one warm-up per execution path (discarded), then ``runs`` timed
    serial and ``runs`` timed parallel recognitions with the dense kernels
    (see :func:`~amnocr.recognize._dense_view`). Serial/parallel output
    divergence raises :class:`ParallelDivergenceError`; a mean-of-runs score
    differing from the single-run score raises :class:`InvariantError`.
    """
    if not keys:
        raise ValueError("keys must be nonempty")
    _check_int("runs", runs, 1)
    plan = plan or ExecPlan()
    model = _dense_view(model)

    rows: list[ReportRow] = []
    for entry in keys:
        serial_once = repeat_recognize(model, entry.pattern, 1)  # serial warm-up
        parallel_once = repeat_recognize(model, entry.pattern, 1, plan)  # parallel warm-up
        _check_agreement("warm-up recognition", entry.label, serial_once, parallel_once)
        serial = repeat_recognize(model, entry.pattern, runs)
        parallel = repeat_recognize(model, entry.pattern, runs, plan)
        _check_agreement("recognition", entry.label, serial, parallel)
        if serial.scores != serial_once.scores:
            raise InvariantError(
                f"mean-of-{runs}-runs scores differ from a single run for key {entry.label!r}"
            )
        rows.append(
            ReportRow(
                key_label=entry.label,
                predicted_label=serial.predicted,
                match_pct=float(format_pct(serial.scores[serial.predicted])),
                correct=entry.label == serial.predicted,
                serial=TimingStats(serial.timings_ns),
                parallel=TimingStats(parallel.timings_ns),
                runs=runs,
            )
        )
    return rows


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
    if not rates:
        raise ValueError("rates must be nonempty")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must lie in [0, 1], got {rate}")
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
        ([repr(p.rate), f"{p.top1_accuracy:.4f}", f"{p.mean_best_match_pct:.2f}"] for p in points),
    )
