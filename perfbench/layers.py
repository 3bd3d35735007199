"""Per-layer metrics of the traced run, and the probes that fill in layers a workload skips.

Every traced run reports every per-layer metric. A workload's own items and
set-up give spans for the layers it exercises; for each layer with fewer than
``MIN_SAMPLES`` samples afterwards, a probe calls that layer's public function
on the seeded glyph store, so the figure is the layer's cost at the
benchmark's geometry.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics

import numpy as np

from amnocr import (
    LabeledPattern,
    Pattern,
    build_model,
    decode_bmp,
    flip_noise,
    load_manifest,
    load_pattern_file,
    net_input,
    par_net_input,
    par_train_pair,
    pixels_to_pattern,
    recognize,
    run_benchmark,
    threshold,
    train_pair,
    write_pattern_text,
    zero_weights,
)
from amnocr import cli

from . import oracles
from .inputs import amnpat_text
from .tracing import p90

# metric -> (span name, unit); each also reports a ``_p90`` twin.
TIMED = {
    "bmp.decode_ms": ("bmp.decode", "ms"),
    "patterns.binarize_ms": ("patterns.binarize", "ms"),
    "patterns.write_text_ms": ("patterns.write_text", "ms"),
    "patterns.read_text_ms": ("patterns.read_text", "ms"),
    "patterns.load_manifest_ms": ("patterns.load_manifest", "ms"),
    "patterns.flip_noise_ms": ("patterns.flip_noise", "ms"),
    "core.store_patterns_ms": ("core.store_patterns", "ms"),
    "recognize.build_model_ms": ("recognize.build_model", "ms"),
    "core.net_input_ms": ("core.net_input", "ms"),
    "core.threshold_ms": ("core.threshold", "ms"),
    "recognize.score_ms": ("recognize.score", "ms"),
    "parallel.par_net_input_ms": ("parallel.par_net_input", "ms"),
    "parallel.team_overhead_us": ("parallel.team_overhead", "us"),
    "core.train_pair_ms": ("core.train_pair", "ms"),
    "parallel.par_train_pair_ms": ("parallel.par_train_pair", "ms"),
    "bench.run_benchmark_ms": ("bench.run_benchmark", "ms"),
    "cli.ingest_ms": ("cli.ingest", "ms"),
    "cli.recognize_ms": ("cli.recognize", "ms"),
    "host.yardstick_ms": ("host.yardstick", "ms"),
}
SCALE = {"ms": 1e6, "us": 1e3}
RATIOS = {"bench.overhead_ratio": "x", "trace.overhead_pct": "%"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name, (_span, unit) in TIMED.items():
        out += [(name, unit), (name + "_p90", unit)]
    return out + list(RATIOS.items())


@functools.lru_cache(maxsize=1)
def _yardstick_operands():
    matrix = np.random.default_rng(0).integers(-52, 53, size=(1209, 1209))
    return np.random.default_rng(1).choice(np.array([-1, 1]), size=1209), matrix


def yardstick(tracer):
    """A fixed int64 vector-matrix product, the size of superposed recall at 31x39.

    It reads the host's speed, not a program layer's, so that drift can be
    told apart from a change in the program.
    """
    key, matrix = _yardstick_operands()
    with tracer.span("host.yardstick"):
        key @ matrix


MIN_SAMPLES = 20


class Probes:
    """One probe per layer, run only where the workload left fewer than ``MIN_SAMPLES`` samples."""

    def __init__(self, wl, tracer):
        self.wl, self.tracer = wl, tracer
        self.store = wl.store
        self._model = None

    @property
    def model(self):
        """The superposed model of the whole seeded store."""
        if self._model is None:
            self._model = build_model(load_manifest(self.store.bmp_manifest))
        return self._model

    def keys(self, count):
        s = self.store
        return [Pattern(s.width, s.height, s.cells[i % len(s.labels)]) for i in range(count)]

    def run(self, ingest_out):
        probes = {
            "bmp.decode": lambda: self.ingest_layers(ingest_out),
            "patterns.flip_noise": self.flip,
            "core.net_input": self.recall,
            "parallel.par_net_input": self.par_recall,
            "parallel.team_overhead": self.team,
            "core.train_pair": self.train,
            "parallel.par_train_pair": self.par_train,
            "bench.run_benchmark": self.bench,
            "cli.ingest": lambda: self.cli_ingest(ingest_out),
            "cli.recognize": self.cli_recognize,
            "host.yardstick": lambda: [yardstick(self.tracer) for _ in range(20)],
        }
        for span, probe in probes.items():
            if len(self.tracer.durations(span)) < MIN_SAMPLES:
                probe()

    def ingest_layers(self, out_dir):
        t = self.tracer
        for i, path in enumerate(self.store.bmp_paths):
            item, data = self.wl.next_item(), path.read_bytes()
            target = out_dir / f"probe{i:02d}.amnpat"
            with t.span("bmp.decode", item):
                grid = decode_bmp(data)
            with t.span("patterns.binarize", item):
                pattern = pixels_to_pattern(grid)
            with t.span("patterns.write_text", item):
                target.write_text(write_pattern_text(pattern, self.store.labels[i]), encoding="utf-8")
            with t.span("patterns.read_text", item):
                back = load_pattern_file(target)
            if not np.array_equal(back.cells, self.store.cells[i]):
                self.wl.errors.append(f"probe: glyph {i} did not survive BMP -> AMNPAT -> read-back")

    def flip(self):
        for i, key in enumerate(self.keys(52)):
            with self.tracer.span("patterns.flip_noise", self.wl.next_item()):
                flip_noise(key, 0.1, i)

    def recall(self):
        t, model = self.tracer, self.model
        for key in self.keys(52):
            item = self.wl.next_item()
            with t.span("recognize.recognize", item):
                recognize(model, key)
            with t.span("core.net_input", item):
                act = net_input(model.weights, key)
            with t.span("core.threshold", item):
                threshold(act)

    def par_recall(self):
        for key in self.keys(52):
            with self.tracer.span("parallel.par_net_input", self.wl.next_item()):
                par_net_input(self.model.weights, key, self.wl.plan)

    def team(self):
        w, key = np.ones((1, 1), dtype=np.int64), Pattern(1, 1, [1])
        for _ in range(200):
            with self.tracer.span("parallel.team_overhead", self.wl.next_item()):
                par_net_input(w, key, self.wl.plan)

    def _train(self, name, fn):
        s = self.store
        zero = zero_weights(s.width * s.height)
        keys = self.keys(21)
        for key, target in zip(keys, keys[1:]):
            with self.tracer.span(name, self.wl.next_item()):
                fn(zero, key, target)

    def train(self):
        self._train("core.train_pair", train_pair)

    def par_train(self):
        self._train("parallel.par_train_pair", lambda w, a, b: par_train_pair(w, a, b, self.wl.plan))

    def bench(self):
        model = self.model
        for i, key in enumerate(self.keys(10)):
            item, label = self.wl.next_item(), self.store.labels[i % len(self.store.labels)]
            with self.tracer.span("bench.run_benchmark", item):
                run_benchmark(model, [LabeledPattern(label, key)], self.wl.plan, runs=1)
            with self.tracer.span("bench.recognize_ref", item):
                recognize(model, key)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            self.wl.errors.append(f"probe: amnocr {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def cli_ingest(self, out_dir):
        files = self.wl.ingest_files
        argv = ["ingest", *(str(f.path) for f in files), "--out", str(out_dir / "cli")]
        for _ in range(3):
            with self.tracer.span("cli.ingest", self.wl.next_item()):
                self._cli(argv)
        for f in files:
            text = (out_dir / "cli" / f"{f.stem}.amnpat").read_text(encoding="utf-8")
            if text != amnpat_text(f.cells, f.image.width, f.image.height, f.stem):
                self.wl.errors.append(f"probe: amnocr ingest wrote a wrong {f.stem}.amnpat")

    def cli_recognize(self):
        s = self.store
        for i in range(5):
            argv = ["recognize", "--store", str(s.bmp_manifest), "--key", str(s.bmp_paths[i])]
            with self.tracer.span("cli.recognize", self.wl.next_item()):
                printed = self._cli(argv)
            if printed.splitlines() != oracles.ranking_lines(oracles.superposed(s.labels, s.cells, s.cells[i])):
                self.wl.errors.append(f"probe: amnocr recognize ranked glyph {i} wrongly")


def _per_item_difference(tracer, whole, *parts):
    """``whole`` minus ``parts`` for every item that has all of them, in ns."""
    spans = [tracer.by_item(n) for n in (whole, *parts)]
    items = set(spans[0]).intersection(*spans[1:])
    return [spans[0][i] - sum(s[i] for s in spans[1:]) for i in sorted(items)]


def metrics(tracer, cli_files, overhead_pct) -> dict:
    """Every per-layer metric from the spans; durations are medians and p90s over all samples."""
    derived = {
        "recognize.score": _per_item_difference(tracer, "recognize.recognize", "core.net_input", "core.threshold"),
        "cli.ingest": [d / cli_files for d in tracer.durations("cli.ingest")],
    }
    out = {}
    for name, (span, unit) in TIMED.items():
        values = derived.get(span) or tracer.durations(span)
        out[name] = {"value": statistics.median(values) / SCALE[unit], "unit": unit}
        out[name + "_p90"] = {"value": p90(values) / SCALE[unit], "unit": unit}
    run = tracer.by_item("bench.run_benchmark")
    ref = tracer.by_item("bench.recognize_ref")
    out["bench.overhead_ratio"] = {
        "value": statistics.median(run[i] / ref[i] for i in run if i in ref),
        "unit": "x",
    }
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out
