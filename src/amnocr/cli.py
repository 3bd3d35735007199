"""Command-line entry point.

Subcommands: ``ingest`` (BMP glyphs to AMNPAT files), ``recognize`` (rank a
key against a stored alphabet), ``bench`` (timed serial vs parallel study
with CSV reports), ``noise-sweep`` (accuracy vs synthetic flip noise).

Exit codes: 0 success, 1 data error (unreadable or malformed inputs,
dimension mismatches), 2 usage error, 3 internal invariant breach.
Thread count resolution: ``--threads`` flag, then ``AMN_THREADS``, then the
hardware thread count; a flag or variable above ``MAX_THREADS`` (256) is a
usage error.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from .bench import (
    noise_sweep,
    run_benchmark,
    write_matching_levels_csv,
    write_report_csv,
    write_speedup_csv,
    write_sweep_csv,
)
from .core import format_pct
from .errors import AmnError, InvariantError
from .parallel import MAX_THREADS, ExecPlan
from .patterns import (
    BinarizePolicy,
    LabeledPattern,
    decode_bmp,
    load_manifest,
    load_pattern_file,
    pixels_to_pattern,
    write_pattern_text,
)
from .recognize import MODES, build_model, recognize

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _rates_list(raw: str) -> list[float]:
    try:
        rates = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rate list {raw!r}") from None
    if not rates:
        raise argparse.ArgumentTypeError("rate list is empty")
    for r in rates:
        if not 0.0 <= r <= 1.0:
            raise argparse.ArgumentTypeError(f"rate {r} outside [0, 1]")
    return rates


def _int_arg(lo: int, hi: int | None, message: str):
    """An argparse type accepting integers in [lo, hi]; ``hi=None`` leaves it open.

    An out-of-range value is rejected with ``message.format(value)``.
    """

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") from None
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(message.format(value))
        return value

    return parse


_positive_int = _int_arg(1, None, "{} must be >= 1")
_threshold_arg = _int_arg(0, 255, "threshold {} outside [0, 255]")
_seed_arg = _int_arg(0, None, "seed must be non-negative")


def _add_plan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--threads", type=_positive_int, default=None,
        help=f"worker count, at most {MAX_THREADS} (default: AMN_THREADS or all cores)",
    )
    sub.add_argument(
        "--chunk", type=_positive_int, default=None,
        help="indices per block (default: ceil(n/threads))",
    )


def _add_store_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--store", required=True, help="label,path manifest CSV of the stored alphabet")
    sub.add_argument("--mode", choices=MODES, default="superposed", help="recognition mode")
    sub.add_argument(
        "--threshold", type=_threshold_arg, default=128, help="binarize threshold in [0, 255]"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amnocr",
        description="Associative-memory character recognition with bit-exact serial and parallel paths.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="decode BMP glyphs and write AMNPAT pattern files")
    ingest.add_argument("inputs", nargs="+", help="BMP files and/or directories of .bmp files")
    ingest.add_argument("--out", required=True, help="output directory for .amnpat files")
    ingest.add_argument("--threshold", type=_threshold_arg, default=128, help="binarize threshold in [0, 255]")
    ingest.set_defaults(func=cmd_ingest)

    rec = commands.add_parser("recognize", help="rank one key pattern against the stored alphabet")
    _add_store_flags(rec)
    rec.add_argument("--key", required=True, help="key file (BMP or AMNPAT)")
    _add_plan_flags(rec)
    rec.set_defaults(func=cmd_recognize)

    bench = commands.add_parser("bench", help="timed serial vs parallel benchmark over a key set")
    _add_store_flags(bench)
    bench.add_argument("--keys", required=True, help="directory of key files, or a label,path manifest CSV")
    bench.add_argument("--runs", type=_positive_int, default=5, help="timed repetitions per path per key")
    bench.add_argument("--out", default=".", help="directory for report/matching_levels/speedup CSVs")
    _add_plan_flags(bench)
    bench.set_defaults(func=cmd_bench)

    sweep = commands.add_parser("noise-sweep", help="accuracy vs synthetic flip noise on the stored alphabet")
    _add_store_flags(sweep)
    sweep.add_argument("--rates", required=True, type=_rates_list, help="comma-separated flip rates in [0, 1]")
    sweep.add_argument("--seed", required=True, type=_seed_arg, help="base seed for the noise generator")
    sweep.add_argument("--runs", type=_positive_int, default=1, help="timed repetitions per path per key")
    sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    _add_plan_flags(sweep)
    sweep.set_defaults(func=cmd_noise_sweep)

    return parser


def _collect_bmp_inputs(raw_inputs: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in raw_inputs:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(p for p in path.iterdir() if p.suffix.lower() == ".bmp"))
        else:
            files.append(path)
    return files


def cmd_ingest(args) -> int:
    policy = BinarizePolicy(threshold=args.threshold)
    files = _collect_bmp_inputs(args.inputs)
    if not files:
        print("error: no inputs", file=sys.stderr)
        return EXIT_DATA_ERROR
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    written: dict[str, Path] = {}  # stem -> the input whose output has that name
    for path in files:
        try:
            if path.stem in written:
                raise AmnError(f"output {path.stem}.amnpat already written from {written[path.stem]}")
            pattern = pixels_to_pattern(decode_bmp(path.read_bytes()), policy)
            out_path = out_dir / (path.stem + ".amnpat")
            out_path.write_text(write_pattern_text(pattern, path.stem), encoding="utf-8")
        except (AmnError, OSError, ValueError) as exc:  # ValueError: a stem that cannot be a label
            print(f"error: {path}: {exc}", file=sys.stderr)
            failed += 1
            continue
        written[path.stem] = path
        print(f"{path.stem} {out_path} {pattern.width}x{pattern.height}")
    return EXIT_DATA_ERROR if failed else EXIT_OK


def _build_model_from_args(args):
    policy = BinarizePolicy(threshold=args.threshold)
    entries = load_manifest(args.store, policy)
    return build_model(entries, args.mode), policy


def cmd_recognize(args) -> int:
    model, policy = _build_model_from_args(args)
    key = load_pattern_file(args.key, policy)
    if args.mode == "literal":
        print(
            "note: literal mode reproduces the single-pair training rule, which "
            "scores 100.00 for every stored target by construction",
            file=sys.stderr,
        )
    result = recognize(model, key, args.plan)
    for label, score in result.ranked():
        print(f"{label} {format_pct(score)}")
    return EXIT_OK


def _load_keyset(raw: str, policy: BinarizePolicy) -> list[LabeledPattern]:
    path = Path(raw)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix.lower() in (".bmp", ".amnpat"))
        if not files:
            raise AmnError(f"{path}: no .bmp or .amnpat key files")
        return [LabeledPattern(p.stem, load_pattern_file(p, policy)) for p in files]
    return load_manifest(path, policy)


def cmd_bench(args) -> int:
    model, policy = _build_model_from_args(args)
    keys = _load_keyset(args.keys, policy)
    plan = args.plan
    rows = run_benchmark(model, keys, plan, runs=args.runs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(rows, out_dir / "report.csv")
    write_matching_levels_csv(rows, out_dir / "matching_levels.csv")
    write_speedup_csv(rows, out_dir / "speedup.csv")
    chunk_desc = plan.chunk if plan.chunk is not None else "auto"
    print(f"keys {len(rows)} runs {args.runs} threads {plan.threads} chunk {chunk_desc}")
    print(f"top1_accuracy {sum(r.correct for r in rows) / len(rows):.4f}")
    print(f"mean_best_match {statistics.fmean(r.match_pct for r in rows):.2f}")
    print(f"mean_serial_median_ns {statistics.fmean(r.serial.median for r in rows):.0f}")
    print(f"mean_parallel_median_ns {statistics.fmean(r.parallel.median for r in rows):.0f}")
    print(f"mean_speedup {statistics.fmean(r.speedup for r in rows):.4f}")
    return EXIT_OK


def cmd_noise_sweep(args) -> int:
    model, _ = _build_model_from_args(args)
    points = noise_sweep(model, args.rates, args.seed, args.plan, runs=args.runs)
    write_sweep_csv(points, args.out)
    for p in points:
        print(f"rate {p.rate:g} accuracy {p.top1_accuracy:.4f} mean_match {p.mean_best_match_pct:.2f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "threads"):
        try:  # a bad AMN_THREADS, or either above MAX_THREADS, is a usage error
            args.plan = ExecPlan(threads=args.threads, chunk=args.chunk)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (AmnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
