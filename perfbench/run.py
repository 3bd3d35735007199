"""Run one workload of the amnocr benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload alphabet52 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones; the traced run
also writes its spans to ``perfbench/out/trace-<workload>-<seed>.json``.
Without ``src/amnocr`` the benchmark prints an error and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("alphabet52", "noise-sweep", "ingest", "literal")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one amnocr benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "amnocr" / "__init__.py").is_file():
        print(f"error: no amnocr package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import run

    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
