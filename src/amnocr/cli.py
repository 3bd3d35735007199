"""Command-line entry point.

Subcommands: ``ingest`` (BMP glyphs to AMNPAT files), ``recognize`` (rank a
key against a stored alphabet), ``bench`` (timed serial vs parallel study
with CSV reports), ``noise-sweep`` (accuracy vs synthetic flip noise).

Exit codes: 0 success, 1 data error (unreadable or malformed inputs,
dimension mismatches), 2 usage error, 3 internal invariant breach.
Thread count resolution: ``--threads`` flag, then ``AMN_THREADS``, then the
hardware thread count; a flag or variable above ``MAX_THREADS`` (256) is a
usage error.

The CLI checks no flag value itself: each is judged by the rule of the
library call it feeds (``ExecPlan``, ``BinarizePolicy``, ``errors._check_int``
and ``errors._check_rates``), and a value that rule rejects is a usage error
carrying the library's message.
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
from .errors import AmnError, InvariantError, _check_int, _check_rates
from .parallel import MAX_THREADS, ExecPlan
from .patterns import (
    BinarizePolicy,
    LabeledPattern,
    _bmp_pattern,
    _read_file,
    load_manifest,
    load_pattern_file,
    write_pattern_text,
)
from .recognize import MODES, build_model, recognize

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _checked(convert, check):
    """An argparse type: ``convert`` the raw string, then ``check`` it by the library's rule.

    A ``ValueError`` from either becomes an ``ArgumentTypeError``, so argparse
    reports it with the flag's name and exits with a usage error.
    """

    def parse(raw: str):
        try:
            value = convert(raw)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


_runs_arg = _checked(int, lambda v: _check_int("runs", v, 1))
_seed_arg = _checked(int, lambda v: _check_int("seed", v, 0))
_rates_arg = _checked(lambda raw: [float(part) for part in raw.split(",") if part.strip()], _check_rates)


def _add_plan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--threads", type=int, default=None,
        help=f"worker count, at most {MAX_THREADS} (default: AMN_THREADS or all cores)",
    )
    sub.add_argument(
        "--chunk", type=int, default=None,
        help="indices per block (default: ceil(n/threads))",
    )


def _add_store_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--store", required=True, help="label,path manifest CSV of the stored alphabet")
    sub.add_argument("--mode", choices=MODES, default="superposed", help="recognition mode")
    sub.add_argument("--threshold", type=int, default=128, help="binarize threshold in [0, 255]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amnocr",
        description="Associative-memory character recognition with bit-exact serial and parallel paths.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="decode BMP glyphs and write AMNPAT pattern files")
    ingest.add_argument("inputs", nargs="+", help="BMP files and/or directories of .bmp files")
    ingest.add_argument("--out", required=True, help="output directory for .amnpat files")
    ingest.add_argument("--threshold", type=int, default=128, help="binarize threshold in [0, 255]")
    ingest.set_defaults(func=cmd_ingest)

    rec = commands.add_parser("recognize", help="rank one key pattern against the stored alphabet")
    _add_store_flags(rec)
    rec.add_argument("--key", required=True, help="key file (BMP or AMNPAT)")
    _add_plan_flags(rec)
    rec.set_defaults(func=cmd_recognize)

    bench = commands.add_parser("bench", help="timed serial vs parallel benchmark over a key set")
    _add_store_flags(bench)
    bench.add_argument("--keys", required=True, help="directory of key files, or a label,path manifest CSV")
    bench.add_argument("--runs", type=_runs_arg, default=5, help="timed repetitions per path per key")
    bench.add_argument("--out", default=".", help="directory for report/matching_levels/speedup CSVs")
    _add_plan_flags(bench)
    bench.set_defaults(func=cmd_bench)

    sweep = commands.add_parser("noise-sweep", help="accuracy vs synthetic flip noise on the stored alphabet")
    _add_store_flags(sweep)
    sweep.add_argument("--rates", required=True, type=_rates_arg, help="comma-separated flip rates in [0, 1]")
    sweep.add_argument("--seed", required=True, type=_seed_arg, help="base seed for the noise generator")
    sweep.add_argument(
        "--runs", type=_runs_arg, default=1, help="accepted as for bench; the sweep times nothing and ignores it"
    )
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
    files = _collect_bmp_inputs(args.inputs)
    if not files:
        print("error: no inputs", file=sys.stderr)
        return EXIT_DATA_ERROR
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    written: dict[str, Path] = {}  # stem -> the input whose output has that name
    for path in files:
        prefix = ""  # the errors raised up to the read name the input themselves
        try:
            if path.stem in written:
                raise AmnError(f"{path}: output {path.stem}.amnpat already written from {written[path.stem]}")
            data = _read_file(path)
            prefix = f"{path}: "  # the later ones do not
            pattern = _bmp_pattern(data, args.policy)
            del data
            out_path = out_dir / (path.stem + ".amnpat")
            # Encoded first, so that a text that cannot be encoded leaves no file behind.
            out_path.write_bytes(write_pattern_text(pattern, path.stem).encode("utf-8"))
        except (AmnError, OSError, ValueError) as exc:  # ValueError: a stem that cannot be a label
            print(f"error: {prefix}{exc}", file=sys.stderr)
            failed += 1
            continue
        written[path.stem] = path
        print(f"{path.stem} {out_path} {pattern.width}x{pattern.height}")
    return EXIT_DATA_ERROR if failed else EXIT_OK


def _build_model_from_args(args):
    return build_model(load_manifest(args.store, args.policy), args.mode)


def cmd_recognize(args) -> int:
    model = _build_model_from_args(args)
    key = load_pattern_file(args.key, args.policy)
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
    model = _build_model_from_args(args)
    keys = _load_keyset(args.keys, args.policy)
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
    model = _build_model_from_args(args)
    points = noise_sweep(model, args.rates, args.seed, args.plan, runs=args.runs)
    write_sweep_csv(points, args.out)
    for p in points:
        print(f"rate {p.rate:g} accuracy {p.top1_accuracy:.4f} mean_match {p.mean_best_match_pct:.2f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a flag the library rejects, or a bad AMN_THREADS, is a usage error
        args.policy = BinarizePolicy(threshold=args.threshold)
        if hasattr(args, "threads"):
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
