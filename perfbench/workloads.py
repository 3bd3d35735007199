"""The four workloads: their inputs, their set-up, one round of items, and the checks.

Each workload is a closed loop with one client. A round runs the same
operations every time, on the serial path and on the parallel path, and the
path that goes first alternates from round to round. Every output is compared
with an expectation from :mod:`perfbench.oracles` computed before the timed
phase; the comparisons are queued during the round and run after it, off the
clock.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from amnocr import (
    ExecPlan,
    Pattern,
    build_model,
    decode_bmp,
    flip_noise,
    load_manifest,
    load_pattern_file,
    net_input,
    noise_sweep,
    par_net_input,
    par_train_pair,
    pixels_to_pattern,
    recognize,
    store_patterns,
    threshold,
    train_pair,
    write_pattern_text,
    zero_weights,
)

from . import oracles
from .inputs import Sizes, amnpat_text, flip, make_ingest_files, make_store

SERIAL, PARALLEL = "serial", "parallel"
ONE_THREAD = ExecPlan(threads=1)


class Workload:
    """Shared set-up: a seeded glyph store on disk, loaded through a manifest."""

    name = ""
    mode = "superposed"

    def __init__(self, work_dir: Path, seed: int, plan: ExecPlan, sizes: Sizes = Sizes()):
        self.dir = Path(work_dir)
        self.plan = plan
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)
        self.store = make_store(self.dir / "store", sizes, self.rng)
        self.manifest = self.store.bmp_manifest
        self.labels = self.store.labels
        self.model = None
        self.errors: list[str] = []  # wrong outputs
        self.failures: list[str] = []  # operations that raised
        self.pending: list = []  # this round's output checks, each returning an error message or None
        self._items = itertools.count()
        # Every workload writes the ingest files: the traced run's probes time `amnocr ingest` on them.
        self.ingest_files = make_ingest_files(self.dir / "ingest", sizes, self.rng)

    def next_item(self) -> int:
        """A fresh item id, shared by the spans of one item."""
        return next(self._items)

    def setup(self, tracer):
        """Load the store manifest from disk, then build the model: what ``setup_s`` times."""
        with tracer.span("patterns.load_manifest"):
            entries = load_manifest(self.manifest)
        with tracer.span("recognize.build_model"):
            self.model = build_model(entries, self.mode)
        if tracer.enabled:
            with tracer.span("core.store_patterns"):
                store_patterns([e.pattern for e in entries])

    def run_checks(self):
        pending, self.pending = self.pending, []
        self.errors += [m for m in (check() for check in pending) if m]

    def check_setup(self):
        k = len(self.model.entries)
        if self.model.labels != self.labels[:k] or not np.array_equal(
            np.stack([e.pattern.cells for e in self.model.entries]), self.store.cells[:k]
        ):
            self.errors.append(f"{self.name}: the loaded store differs from the glyphs written")

    def round(self, r, tracer) -> list[tuple[str, int | None]]:
        """One key (or rate point, or file set) on both paths; ``None`` marks a failed item."""
        out = []
        for path in (SERIAL, PARALLEL) if r % 2 == 0 else (PARALLEL, SERIAL):
            out.append((path, self.attempt(path, lambda: self.item(r, path, tracer))))
        return out

    def attempt(self, path, fn):
        try:
            return fn()
        except Exception:  # a failed operation is counted, and the loop goes on
            self.failures.append(f"{self.name} {path}: {traceback.format_exc()}")
            return None

    def item(self, r, path, tracer) -> int:
        raise NotImplementedError

    def serial_items(self, tracer) -> list:
        """The serial items of round 0, as calls, for the memory pass."""
        return [lambda: self.item(0, SERIAL, tracer)]

    def final_checks(self):
        self.run_checks()


class Alphabet52(Workload):
    """The paper's protocol: noisy stored glyphs ranked against the superposed store."""

    name = "alphabet52"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        s = self.store
        self.keys, self.expected = [], []
        for rate in self.sizes.key_rates:
            for i in range(len(self.labels)):
                cells = flip(s.cells[i], rate, self.rng)
                self.keys.append(Pattern(s.width, s.height, cells))
                self.expected.append(oracles.superposed(self.labels, s.cells, cells))

    def item(self, r, path, tracer):
        j = r % len(self.keys)
        key, item = self.keys[j], self.next_item()
        serial = path == SERIAL
        t0 = time.perf_counter_ns()
        with tracer.span("recognize.recognize" if serial else "recognize.recognize[par]", item):
            result = recognize(self.model, key, None if serial else self.plan)
        ns = time.perf_counter_ns() - t0
        self.pending.append(lambda: self.check_recall(path, j, result))
        if tracer.enabled:
            if serial:
                with tracer.span("core.net_input", item):
                    act = net_input(self.model.weights, key)
                with tracer.span("core.threshold", item):
                    threshold(act)
            else:
                with tracer.span("parallel.par_net_input", item):
                    par_net_input(self.model.weights, key, self.plan)
        return ns

    def check_recall(self, path, j, result):
        if oracles.matches(result, self.expected[j]):
            return None
        return f"alphabet52 {path}: key {j} differs from P^T(P key)"


def coarse_to_fine(n: int) -> list[int]:
    """0..n-1 as the two ends, then midpoints breadth-first, so any prefix spans the range."""
    order, spans = [0], []
    if n > 1:
        order.append(n - 1)
        spans.append((0, n - 1))
    while spans:
        lo, hi = spans.pop(0)
        if hi - lo > 1:
            mid = (lo + hi) // 2
            order.append(mid)
            spans += [(lo, mid), (mid, hi)]
    return order


class NoiseSweep(Workload):
    """``bench.noise_sweep`` one rate point at a time, as acceptance test c09 calls it.

    The serial item uses c09's one-thread plan; the parallel item passes the
    workload's plan, which only changes the team that ``run_benchmark``'s
    parallel half runs on. A run has time for only a few rate points, so item
    i of the run takes the i-th rate in coarse-to-fine order: rate 0 is always
    checked, and the rest of the checks span the range.
    """

    name = "noise-sweep"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sweep_seed = int(self.rng.integers(0, 2**31))
        s = self.store
        self.expected = {
            rate: oracles.sweep_point(self.labels, s.cells, rate, self.sweep_seed)
            for rate in self.sizes.sweep_rates
        }
        if self.expected[0.0][0] != 1.0:
            self.errors.append("noise-sweep: the oracle does not recall every glyph at rate 0")
        rates = self.sizes.sweep_rates
        self.rates = [rates[i] for i in coarse_to_fine(len(rates))]

    def item(self, r, path, tracer):
        rate = self.rates[(2 * r + (path == PARALLEL)) % len(self.rates)]
        item = self.next_item()
        plan = ONE_THREAD if path == SERIAL else self.plan
        t0 = time.perf_counter_ns()
        with tracer.span("bench.noise_sweep" if path == SERIAL else "bench.noise_sweep[par]", item):
            points = noise_sweep(self.model, [rate], self.sweep_seed, plan)
        ns = time.perf_counter_ns() - t0
        self.pending.append(lambda: self.check_sweep(path, rate, points))
        if tracer.enabled:
            for i, e in enumerate(self.model.entries):
                with tracer.span("patterns.flip_noise", item):
                    flip_noise(e.pattern, rate, self.sweep_seed + i)
        return ns

    def check_sweep(self, path, rate, points):
        got = [(p.rate, p.top1_accuracy, p.mean_best_match_pct) for p in points]
        if got != [(rate, *self.expected[rate])] or (rate == 0.0 and got[0][1] != 1.0):
            return f"noise-sweep {path}: rate {rate} gave {got}, expected {self.expected[rate]}"
        return None


class Literal(Workload):
    """``mode="literal"``: one n x n matrix trained and recalled per label, per key."""

    name = "literal"
    mode = "literal"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        k = self.sizes.literal_labels
        self.labels = self.store.labels[:k]
        self.manifest = self.store.manifest_prefix(k, self.dir / "store" / "store_literal.csv")
        s = self.store
        self.keys = [Pattern(s.width, s.height, flip(s.cells[i % k], 0.1, self.rng)) for i in range(4 * k)]
        self.zero = zero_weights(s.width * s.height)

    def item(self, r, path, tracer):
        key, item = self.keys[r % len(self.keys)], self.next_item()
        serial = path == SERIAL
        t0 = time.perf_counter_ns()
        with tracer.span("recognize.literal" if serial else "recognize.literal[par]", item):
            result = recognize(self.model, key, None if serial else self.plan)
        ns = time.perf_counter_ns() - t0
        self.pending.append(lambda: self.check_literal(path, result))
        if tracer.enabled:
            target = self.model.entries[r % len(self.labels)].pattern
            if serial:
                with tracer.span("core.train_pair", item):
                    train_pair(self.zero, key, target)
            else:
                with tracer.span("parallel.par_train_pair", item):
                    par_train_pair(self.zero, key, target, self.plan)
        return ns

    def check_literal(self, path, result):
        if oracles.literal_ok(result, self.labels):
            return None
        return f"literal {path}: predicted {result.predicted!r}, scores not all 100"


class Ingest(Workload):
    """BMP files to AMNPAT and back; set-up loads the ingested AMNPAT store.

    The package has no parallel ingest, so the parallel path starts
    ``plan.threads`` threads once per round, which share the files out and
    time each one.
    """

    name = "ingest"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.manifest = self.store.amnpat_manifest
        self.out_dir = self.dir / "ingest_out"
        self.out_dir.mkdir()

    def round(self, r, tracer):
        files, out = self.ingest_files, []
        for path in (SERIAL, PARALLEL) if r % 2 == 0 else (PARALLEL, SERIAL):
            if path == SERIAL:
                out += [(SERIAL, self.attempt(SERIAL, lambda: self.ingest_file(f, tracer))) for f in files]
                continue
            width = self.plan.threads
            got = [None] * len(files)

            def work(first):
                for i in range(first, len(files), width):
                    got[i] = self.attempt(PARALLEL, lambda: self.ingest_file(files[i], tracer))

            team = [threading.Thread(target=work, args=(w,)) for w in range(width)]
            for t in team:
                t.start()
            for t in team:
                t.join()
            out += [(PARALLEL, ns) for ns in got]
        return out

    def serial_items(self, tracer):
        return [lambda f=f: self.ingest_file(f, tracer) for f in self.ingest_files]

    def ingest_file(self, f, tracer):
        item = self.next_item()
        target = self.out_dir / f"{f.stem}.amnpat"
        t0 = time.perf_counter_ns()
        with tracer.span("ingest.file", item):
            data = f.path.read_bytes()
            with tracer.span("bmp.decode", item):
                grid = decode_bmp(data)
            with tracer.span("patterns.binarize", item):
                pattern = pixels_to_pattern(grid)
            with tracer.span("patterns.write_text", item):
                target.write_text(write_pattern_text(pattern, f.stem), encoding="utf-8")
            with tracer.span("patterns.read_text", item):
                back = load_pattern_file(target)
        ns = time.perf_counter_ns() - t0
        self.pending.append(lambda: self.check_file(f, grid, pattern, back))
        return ns

    @staticmethod
    def check_file(f, grid, pattern, back):
        img = f.image
        if (grid.width, grid.height) != (img.width, img.height) or not np.array_equal(grid.values, f.intensity):
            return f"ingest: {f.stem} decoded pixels differ from the source luma"
        if not np.array_equal(pattern.cells, f.cells):
            return f"ingest: {f.stem} binarised cells differ from the source grid"
        if back != pattern:
            return f"ingest: {f.stem} AMNPAT read-back differs from what was written"
        return None

    def final_checks(self):
        super().final_checks()
        for f in self.ingest_files:
            target = self.out_dir / f"{f.stem}.amnpat"
            if target.exists():
                text = target.read_text(encoding="utf-8")
                if text != amnpat_text(f.cells, f.image.width, f.image.height, f.stem):
                    self.errors.append(f"ingest: {target.name} is not the AMNPAT v1 text of its cells")


WORKLOADS = {w.name: w for w in (Alphabet52, NoiseSweep, Ingest, Literal)}
