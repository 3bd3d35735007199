"""Tests of the benchmark itself: its oracles, its input encoders, and every workload at a tiny size.

    python -m pytest perfbench/tests
"""

import json
import shutil
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from amnocr import ExecPlan, LabeledPattern, Pattern, build_model, decode_bmp, flip_noise, noise_sweep, recognize  # noqa: E402

from perfbench import inputs, layers, measure, oracles, run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = inputs.Sizes(
    glyph=(9, 11),
    large=(14, 17),
    labels=6,
    literal_labels=3,
    key_rates=(0.0, 0.2),
    sweep_rates=(0.0, 0.1),
    ingest_glyphs=1,
)

# The hand-worked store: W = x1 x1^T + x2 x2^T.
X1, X2 = [1, 1, -1, -1], [1, -1, 1, -1]
W = [[2, 0, 0, -2], [0, 2, -2, 0], [0, -2, 2, 0], [-2, 0, 0, 2]]


def test_oracle_store_is_the_hand_worked_matrix():
    p = np.array([X1, X2])
    assert (p.T @ p).tolist() == W


def test_oracle_recalls_a_stored_pattern_exactly():
    exp = oracles.superposed(("a", "b"), np.array([X1, X2]), np.array(X1))
    assert exp.recalled.tolist() == X1
    assert exp.scores == {"a": Fraction(100), "b": Fraction(50)}
    assert exp.predicted == "a"


def test_oracle_zero_net_input_falls_to_minus_one_and_ties_go_to_the_smallest_label():
    # W @ [1, 1, 1, -1] = [4, 0, 0, -4] by hand.
    exp = oracles.superposed(("b", "a"), np.array([X2, X1]), np.array([1, 1, 1, -1]))
    assert exp.recalled.tolist() == [1, -1, -1, -1]
    assert exp.scores == {"a": Fraction(75), "b": Fraction(75)}
    assert exp.predicted == "a"
    assert oracles.ranking_lines(exp) == ["a 75.00", "b 75.00"]


def test_oracle_agrees_with_the_package_on_the_hand_worked_store():
    model = build_model([LabeledPattern("a", Pattern(4, 1, X1)), LabeledPattern("b", Pattern(4, 1, X2))])
    for key in (X1, X2, [1, 1, 1, -1], [-1, -1, -1, -1]):
        exp = oracles.superposed(("a", "b"), np.array([X1, X2]), np.array(key))
        assert oracles.matches(recognize(model, Pattern(4, 1, key)), exp)
        assert oracles.matches(recognize(model, Pattern(4, 1, key), ExecPlan(threads=2)), exp)


def test_matches_rejects_a_changed_score():
    model = build_model([LabeledPattern("a", Pattern(4, 1, X1)), LabeledPattern("b", Pattern(4, 1, X2))])
    result = recognize(model, Pattern(4, 1, X1))
    exp = oracles.superposed(("a", "b"), np.array([X1, X2]), np.array(X1))
    exp.scores["b"] = Fraction(51)
    assert not oracles.matches(result, exp)


def test_flip_noise_oracle_follows_the_documented_rule():
    cells = np.array([1, -1] * 50, dtype=np.int8)
    for rate, seed in ((0.0, 1), (0.13, 2), (0.5, 3), (1.0, 4)):
        got = flip_noise(Pattern(100, 1, cells), rate, seed).cells
        want = oracles.flip_noise(cells, rate, seed)
        assert np.array_equal(got, want)
        assert int((want != cells).sum()) == round(rate * 100)


def test_sweep_oracle_matches_noise_sweep_and_is_perfect_at_rate_zero():
    rng = np.random.default_rng(5)
    stack = np.stack([inputs.random_cells(rng, 99) for _ in range(6)])
    labels = inputs.ALPHABET[:6]
    model = build_model([LabeledPattern(lbl, Pattern(9, 11, c)) for lbl, c in zip(labels, stack)])
    points = noise_sweep(model, [0.0, 0.3], seed=11, plan=ExecPlan(threads=1))
    for point in points:
        assert (point.top1_accuracy, point.mean_best_match_pct) == oracles.sweep_point(labels, stack, point.rate, 11)
    assert points[0].top1_accuracy == 1.0


def test_coarse_to_fine_order_is_a_permutation_whose_prefixes_span_the_range():
    assert workloads.coarse_to_fine(11) == [0, 10, 5, 2, 7, 1, 3, 6, 8, 4, 9]
    assert workloads.coarse_to_fine(1) == [0]
    assert sorted(workloads.coarse_to_fine(6)) == list(range(6))


def test_literal_property():
    class Result:
        predicted, scores = "A", {"A": Fraction(100), "B": Fraction(100)}

    assert oracles.literal_ok(Result, ("A", "B"))
    Result.scores = {"A": Fraction(100), "B": Fraction(99)}
    assert not oracles.literal_ok(Result, ("A", "B"))


def test_luma_and_threshold_by_hand():
    assert inputs.luma([[0, 0, 0], [255, 255, 255], [1, 0, 0], [2, 0, 0]]).tolist() == [0, 255, 0, 1]
    assert inputs.cells_from_intensity([127, 128, 0, 255]).tolist() == [1, -1, 1, -1]


def test_amnpat_text_by_hand():
    assert inputs.amnpat_text([1, -1, -1, 1], 2, 2, "x") == "AMNPAT 1 2 2 x\n1 -1\n-1 1\n"


def test_bmp_layout_by_hand():
    img = inputs.SourceImage(3, 2, 24, False, np.arange(18).reshape(2, 3, 3))
    data = inputs.encode_bmp(img)
    magic, size, _, _, offset = struct.unpack_from("<2sIHHI", data, 0)
    assert (magic, offset, size, len(data)) == (b"BM", 54, 54 + 2 * 12, 54 + 2 * 12)
    # Bottom-up: the first stored row is the image's last, as BGR, padded from 9 to 12 bytes.
    assert data[54:66] == bytes([11, 10, 9, 14, 13, 12, 17, 16, 15, 0, 0, 0])


@pytest.mark.parametrize("depth", inputs.DEPTHS)
@pytest.mark.parametrize("top_down", (False, True))
def test_encoded_glyphs_decode_to_the_source_luma(depth, top_down):
    rng = np.random.default_rng(depth)
    cells = inputs.random_cells(rng, 13 * 5)
    img = inputs.render(cells, 13, 5, depth, top_down, rng)
    grid = decode_bmp(inputs.encode_bmp(img))
    assert np.array_equal(grid.values, img.intensity)
    assert np.array_equal(inputs.cells_from_intensity(img.intensity), cells)


def test_self_time_subtracts_the_union_of_children():
    spans = [(0, -1, "p", None, 0, 100), (1, 0, "c", None, 10, 30), (2, 0, "c", None, 20, 50), (3, 0, "c", None, 60, 70)]
    assert tracing.self_times(spans) == {0: 50, 1: 20, 2: 30, 3: 10}
    summary = tracing.summarise(spans)
    assert summary["c"]["n"] == 3 and summary["p"]["self_median_ns"] == 50


def test_benchmark_json_names_what_the_code_reports():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.metric_names()


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (False, True))
def test_every_workload_passes_its_checks_at_a_tiny_size(workload, trace, tmp_path):
    result = measure.run(workload, seed=3, seconds=0.3, trace=trace, sizes=TINY, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace:
        assert (tmp_path / f"trace-{workload}-3.json").is_file()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_wrong_decode_is_caught(tmp_path, monkeypatch):
    def bad_decode(data):
        grid = decode_bmp(data)
        values = grid.values.copy()
        values[0] ^= 0xFF
        return type(grid)(grid.width, grid.height, values)

    monkeypatch.setattr(workloads, "decode_bmp", bad_decode)
    result = measure.run("ingest", seed=3, seconds=0.2, trace=False, sizes=TINY, out_dir=tmp_path)
    assert not result["correct"]


def test_a_wrong_recognition_is_caught(tmp_path, monkeypatch):
    def bad_recognize(model, key, plan=None):
        result = recognize(model, key, plan)
        result.predicted = "z"
        return result

    monkeypatch.setattr(workloads, "recognize", bad_recognize)
    result = measure.run("alphabet52", seed=3, seconds=0.2, trace=False, sizes=TINY, out_dir=tmp_path)
    assert not result["correct"]


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "alphabet52", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
