"""Alphabet model construction and ranked recognition."""

import dataclasses
import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnocr import (
    ExecPlan,
    LabeledPattern,
    MemoryBudgetError,
    build_model,
    flip_noise,
    match_score,
    recall,
    recognize,
    store_patterns,
)
from amnocr.bench import _recognize_dense, run_benchmark
from amnocr.recognize import RecognitionResult
from helpers import bipolar, hadamard_rows, labeled, peak_bytes, random_pattern


@pytest.fixture
def hadamard_model():
    return build_model(labeled(hadamard_rows(4)))  # labels a..d


def test_build_model_validates():
    entries = labeled(hadamard_rows(4))
    with pytest.raises(ValueError, match="empty"):
        build_model([])
    with pytest.raises(ValueError, match="duplicate label 'A'"):
        build_model(
            [LabeledPattern("A", entries[0].pattern), LabeledPattern("A", entries[1].pattern)]
        )
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_model(entries + labeled([bipolar([1, -1])], ["x"]))
    with pytest.raises(ValueError, match="mode"):
        build_model(entries, mode="turbo")


def test_model_is_52_capable(glyph_model_52):
    assert glyph_model_52.n == 1209
    assert len(glyph_model_52.labels) == 52


def test_orthogonal_store_recognizes_every_row(hadamard_model):
    for entry in hadamard_model.entries:
        result = recognize(hadamard_model, entry.pattern)
        assert result.predicted == entry.label
        assert result.scores[entry.label] == 100
        assert result.recalled == entry.pattern


def test_orthogonal_store_order_eight():
    model = build_model(labeled(hadamard_rows(8)))
    for entry in model.entries:
        result = recognize(model, entry.pattern)
        assert result.predicted == entry.label
        assert result.scores[entry.label] == 100


def test_single_entry_model_recalls_itself():
    rng = np.random.default_rng(0)
    glyph = random_pattern(rng, 30)
    model = build_model([LabeledPattern("A", glyph)])
    result = recognize(model, glyph)
    assert result.predicted == "A"
    assert result.scores == {"A": Fraction(100)}


def test_scores_equal_match_score_per_label(glyph_model_52):
    rng = np.random.default_rng(6)
    key = random_pattern(rng, glyph_model_52.n, width=31, height=39)
    result = recognize(glyph_model_52, key)
    for entry in glyph_model_52.entries:
        assert result.scores[entry.label] == match_score(result.recalled, entry.pattern)
    assert set(result.scores) == set(glyph_model_52.labels)
    assert all(0 <= s <= 100 for s in result.scores.values())


def test_predicted_attains_maximum(glyph_model_52):
    rng = np.random.default_rng(60)
    key = random_pattern(rng, glyph_model_52.n, width=31, height=39)
    result = recognize(glyph_model_52, key)
    best = max(result.scores.values())
    assert result.scores[result.predicted] == best


def test_tie_breaks_to_lexicographically_smallest():
    rng = np.random.default_rng(2)
    glyph = random_pattern(rng, 24)
    other = random_pattern(rng, 24)
    # Same pattern under two labels forces an exact tie.
    model = build_model(
        [LabeledPattern("z", glyph), LabeledPattern("b", glyph), LabeledPattern("m", other)]
    )
    result = recognize(model, glyph)
    assert result.scores["z"] == result.scores["b"]
    assert result.predicted == "b"


def test_entry_order_never_changes_outcome():
    rng = np.random.default_rng(3)
    entries = labeled([random_pattern(rng, 40) for _ in range(6)])
    key = random_pattern(rng, 40)
    base = recognize(build_model(entries), key)
    for perm_seed in range(4):
        perm = np.random.default_rng(perm_seed).permutation(len(entries))
        shuffled = recognize(build_model([entries[i] for i in perm]), key)
        assert shuffled.predicted == base.predicted
        assert shuffled.scores == base.scores


def test_heavy_noise_produces_cross_glyph_confusions(glyph_model_52):
    # With half the cells flipped the key no longer resembles its own glyph,
    # so some keys must land on another stored label (frozen seed keeps the
    # qualitative outcome deterministic; no specific pairing is asserted).
    from amnocr import flip_noise

    predictions = {
        entry.label: recognize(glyph_model_52, flip_noise(entry.pattern, 0.5, seed=500 + i)).predicted
        for i, entry in enumerate(glyph_model_52.entries)
    }
    assert any(true != got for true, got in predictions.items())


def test_recognize_dimension_mismatch(hadamard_model):
    with pytest.raises(ValueError, match="dimension mismatch"):
        recognize(hadamard_model, bipolar([1, -1]))


def test_recognize_parallel_plan_is_identical(glyph_model_52):
    rng = np.random.default_rng(4)
    key = random_pattern(rng, glyph_model_52.n, width=31, height=39)
    base = recognize(glyph_model_52, key)
    for plan in (ExecPlan(threads=1), ExecPlan(threads=2, chunk=100), ExecPlan(threads=5, chunk=1)):
        assert recognize(glyph_model_52, key, plan).same_outcome(base)


# --- literal mode ---


def test_literal_mode_scores_100_for_every_target():
    rng = np.random.default_rng(5)
    model = build_model(labeled([random_pattern(rng, 36) for _ in range(5)]), mode="literal")
    for _ in range(10):
        key = random_pattern(rng, 36)
        result = recognize(model, key)
        assert all(s == 100 for s in result.scores.values())
        assert result.predicted == "a"  # all-tie falls to the smallest label


def test_literal_mode_parallel_matches_serial():
    rng = np.random.default_rng(50)
    model = build_model(labeled([random_pattern(rng, 20) for _ in range(3)]), mode="literal")
    key = random_pattern(rng, 20)
    base = recognize(model, key)
    assert recognize(model, key, ExecPlan(threads=3, chunk=2)).same_outcome(base)


# --- repetition ---


def test_repeat_matches_single_run(hadamard_model):
    key = hadamard_model.entries[2].pattern
    once = recognize(hadamard_model, key)
    for _ in range(5):
        assert recognize(hadamard_model, key).same_outcome(once)
    (row,) = run_benchmark(hadamard_model, [LabeledPattern("c", key)], runs=5)
    assert row.predicted_label == once.predicted
    assert row.match_pct == float(once.scores[once.predicted])
    assert row.runs == 5
    assert len(row.serial.samples) == 5
    assert all(t > 0 for t in row.serial.samples + row.parallel.samples)


def test_first_difference_names_the_recalled_geometries():
    result = RecognitionResult(predicted="a", scores={"a": Fraction(100)}, recalled=bipolar([1, -1]))
    other = dataclasses.replace(result, recalled=bipolar([1, -1], width=1, height=2))
    assert result.first_difference(other) == ("recalled geometry", "2x1", "1x2")


def test_ranking_is_sorted_best_first(glyph_model_52):
    rng = np.random.default_rng(61)
    key = random_pattern(rng, glyph_model_52.n, width=31, height=39)
    ranking = recognize(glyph_model_52, key).ranked()
    assert [lbl for lbl, _ in ranking][0] == recognize(glyph_model_52, key).predicted
    scores = [s for _, s in ranking]
    assert scores == sorted(scores, reverse=True)
    assert len(ranking) == 52


# --- factored superposed recall against the dense n x n path ---


def _stored(entries):
    return store_patterns([e.pattern for e in entries])


def _assert_matches_dense(model, w, key):
    """recognize(model, key) equals recall through W plus match_score per label."""
    recalled = recall(w, key)
    scores = {e.label: match_score(recalled, e.pattern) for e in model.entries}
    result = recognize(model, key)
    assert result.predicted == min(scores, key=lambda label: (-scores[label], label))
    assert result.scores == scores
    assert result.recalled == recalled


@pytest.fixture(scope="module")
def dense_weights_52(glyph_store_52):
    return _stored(glyph_store_52)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
def test_factored_recall_equals_dense_on_52_glyphs(glyph_model_52, dense_weights_52, rate):
    for i, entry in enumerate(glyph_model_52.entries):
        _assert_matches_dense(glyph_model_52, dense_weights_52, flip_noise(entry.pattern, rate, seed=900 + i))


@pytest.mark.parametrize("order", [4, 8, 16])
def test_factored_recall_equals_dense_on_hadamard_stores(order):
    rng = np.random.default_rng(order)
    entries = labeled(hadamard_rows(order))
    model, w = build_model(entries), _stored(entries)
    for key in [e.pattern for e in entries] + [random_pattern(rng, order) for _ in range(8)]:
        _assert_matches_dense(model, w, key)


def test_factored_recall_equals_dense_single_entry_and_tie():
    rng = np.random.default_rng(7)
    glyph, other = random_pattern(rng, 24), random_pattern(rng, 24)
    single = [LabeledPattern("A", glyph)]
    tied = [LabeledPattern("z", glyph), LabeledPattern("b", glyph), LabeledPattern("m", other)]
    for entries in (single, tied):
        model, w = build_model(entries), _stored(entries)
        for key in (glyph, other, random_pattern(rng, 24)):
            _assert_matches_dense(model, w, key)
    assert recognize(build_model(tied), glyph).predicted == "b"


def test_weights_are_store_patterns_built_once(glyph_store_52, dense_weights_52):
    model = build_model(glyph_store_52)
    w = model.weights
    assert w.dtype == np.int64
    assert np.array_equal(w, dense_weights_52)
    assert not w.flags.writeable
    assert model.weights is w
    entries = labeled(hadamard_rows(8))
    assert np.array_equal(build_model(entries).weights, _stored(entries))
    with pytest.raises(AttributeError):
        model.weights = w


def test_literal_model_has_no_weights_and_no_float64_stack():
    model = build_model(labeled(hadamard_rows(4)), mode="literal")
    assert model.weights is None
    assert model._targets is None
    assert build_model(labeled(hadamard_rows(4)))._targets.dtype == np.float32


# --- the float32 stack against the float64 one ---


@pytest.mark.parametrize("k, n", [(3, 4), (1, 4), (2, 16)])
def test_build_model_keeps_float32_within_its_bound(monkeypatch, k, n):
    # The widest float32 product is max(k * n, 2 * n); lower the bound rather than build such a store.
    module = importlib.import_module("amnocr.core")
    entries = labeled(hadamard_rows(n)[:k])
    bound = max(k, 2) * n
    monkeypatch.setattr(module, "_FLOAT32_EXACT", bound)
    assert build_model(entries)._targets.dtype == np.float32
    monkeypatch.setattr(module, "_FLOAT32_EXACT", bound - 1)
    assert build_model(entries)._targets.dtype == np.float64
    assert build_model(entries, mode="literal")._targets is None


def _float64_model(entries):
    """``build_model(entries)`` with its float32 bound at 0, so the stack falls back to float64."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("amnocr.core"), "_FLOAT32_EXACT", 0)
        model = build_model(entries)
    assert model._targets.dtype == np.float64
    return model


def _assert_float32_matches_float64(model32, model64, key):
    assert model32._targets.dtype == np.float32
    result32, result64 = recognize(model32, key), recognize(model64, key)
    assert result32.first_difference(result64) is None
    assert result32.predicted == result64.predicted


@pytest.fixture(scope="module")
def float64_model_52(glyph_store_52):
    return _float64_model(glyph_store_52)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
def test_float32_stack_equals_float64_on_52_glyphs(glyph_model_52, float64_model_52, rate):
    for i, entry in enumerate(glyph_model_52.entries):
        _assert_float32_matches_float64(glyph_model_52, float64_model_52, flip_noise(entry.pattern, rate, seed=900 + i))


@pytest.mark.parametrize("order", [4, 8, 16])
def test_float32_stack_equals_float64_on_hadamard_stores(order):
    # Random keys against orthogonal rows give a = 0 cells and tied labels.
    rng = np.random.default_rng(order)
    entries = labeled(hadamard_rows(order))
    model32, model64 = build_model(entries), _float64_model(entries)
    for key in [e.pattern for e in entries] + [random_pattern(rng, order) for _ in range(8)]:
        _assert_float32_matches_float64(model32, model64, key)


@pytest.mark.parametrize("bound, dtype, need", [(1 << 24, np.float32, 8 * 8 * 5), (0, np.float64, 8 * 8 * 9)])
def test_build_model_checks_the_stack_budget(monkeypatch, bound, dtype, need):
    # The int8 stack and its float32 or float64 copy: k * n * (1 + itemsize) bytes.
    errors = importlib.import_module("amnocr.errors")
    monkeypatch.setattr(importlib.import_module("amnocr.core"), "_FLOAT32_EXACT", bound)
    entries = labeled(hadamard_rows(8))  # k = n = 8
    monkeypatch.setattr(errors, "MAX_WEIGHT_BYTES", need - 1)
    with pytest.raises(MemoryBudgetError, match=rf"k=8, n=8 needs {need} bytes .* budget of {need - 1} bytes"):
        build_model(entries)
    monkeypatch.setattr(errors, "MAX_WEIGHT_BYTES", need)
    assert build_model(entries)._targets.dtype == dtype


def test_equal_counts_share_one_fraction():
    rng = np.random.default_rng(5)
    glyph, other = random_pattern(rng, 24), random_pattern(rng, 24)
    entries = [LabeledPattern("z", glyph), LabeledPattern("b", glyph), LabeledPattern("m", other)]
    superposed = recognize(build_model(entries), glyph)
    assert superposed.scores["z"] is superposed.scores["b"]
    literal = recognize(build_model(entries, mode="literal"), other)
    assert len({id(s) for s in literal.scores.values()}) == 1


def test_literal_recognitions_share_one_hundred():
    model = build_model(labeled(hadamard_rows(4)), mode="literal")
    first = recognize(model, model.entries[0].pattern)
    second = recognize(model, model.entries[3].pattern)
    assert first.scores["a"] is second.scores["d"]
    assert first.scores["a"] == Fraction(100)


def test_recognition_result_has_slots_and_no_dict(hadamard_model):
    result = recognize(hadamard_model, hadamard_model.entries[0].pattern)
    assert not hasattr(result, "__dict__")
    with pytest.raises(AttributeError):
        result.note = "x"
    other = dataclasses.replace(result, predicted="z")
    assert (other.predicted, other.scores, other.recalled) == ("z", result.scores, result.recalled)
    assert result.predicted == "a"


# Small stores whose labels are not in sorted order and whose glyphs repeat, so labels tie.
@st.composite
def _tied_stores(draw):
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n), min_size=1, max_size=4))
    k = draw(st.integers(1, 7))
    glyphs = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=k, max_size=k))]
    labels = draw(st.permutations(["q", "b", "zz", "a", "m", "ab", "c"]))[:k]
    key = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return [LabeledPattern(lbl, bipolar(g)) for lbl, g in zip(labels, glyphs)], bipolar(key)


# The serial dense kernels, and the parallel ones with more workers than some stores have cells.
DENSE_PLANS = [None, ExecPlan(threads=2, chunk=1), ExecPlan(threads=3, chunk=2)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(store=_tied_stores())
def test_one_pass_ranking_matches_match_score_per_label(store):
    entries, key = store
    recalled = recall(store_patterns([e.pattern for e in entries]), key)
    scores = {e.label: match_score(recalled, e.pattern) for e in entries}
    predicted = min(scores, key=lambda label: (-scores[label], label))
    model = build_model(entries)
    for result in (recognize(model, key), *(_recognize_dense(model, key, plan) for plan in DENSE_PLANS)):
        assert result.scores == scores
        assert list(result.scores) == [e.label for e in entries]
        assert result.predicted == predicted
        assert result.recalled == recalled
    literal_model = build_model(entries, mode="literal")
    for plan in DENSE_PLANS:
        literal = _recognize_dense(literal_model, key, plan)
        assert literal.scores == dict.fromkeys(scores, 100)
        assert literal.predicted == min(scores)


def test_weights_check_the_memory_budget(monkeypatch):
    # The float64 product and its int64 copy: 2 * 8 * n * n bytes.
    errors = importlib.import_module("amnocr.errors")
    model = build_model(labeled(hadamard_rows(4)))
    monkeypatch.setattr(errors, "MAX_WEIGHT_BYTES", 255)
    with pytest.raises(MemoryBudgetError, match=r"n=4 needs 256 bytes .* budget of 255 bytes"):
        model.weights
    assert recognize(model, model.entries[1].pattern).predicted == "b"  # factored recall needs no W
    monkeypatch.setattr(errors, "MAX_WEIGHT_BYTES", 256)
    assert np.array_equal(model.weights, _stored(model.entries))


# --- factored literal recall against the dense per-label path ---

LITERAL_PLANS = [None, ExecPlan(threads=1), ExecPlan(threads=2, chunk=100), ExecPlan(threads=3, chunk=2)]


def _assert_literal_matches_dense(model, key):
    """Factored literal recognition equals training and recalling an n x n matrix per label."""
    for plan in LITERAL_PLANS:
        assert recognize(model, key, plan).first_difference(_recognize_dense(model, key, plan)) is None


@pytest.mark.parametrize("n", [20, 36, 64])
def test_factored_literal_equals_dense_on_random_stores(n):
    rng = np.random.default_rng(400 + n)
    # Labels in reverse order, so the predicted (smallest) label is not the first entry.
    model = build_model(labeled([random_pattern(rng, n) for _ in range(5)], list("edcba")), mode="literal")
    for key in [e.pattern for e in model.entries] + [random_pattern(rng, n) for _ in range(3)]:
        _assert_literal_matches_dense(model, key)


@pytest.mark.parametrize("order", [4, 8, 16])
def test_factored_literal_equals_dense_on_hadamard_stores(order):
    model = build_model(labeled(hadamard_rows(order)), mode="literal")
    for entry in model.entries:
        _assert_literal_matches_dense(model, entry.pattern)


def test_factored_literal_equals_dense_on_glyphs(glyph_store_52):
    model = build_model(glyph_store_52[:6], mode="literal")
    for i, entry in enumerate(model.entries):
        _assert_literal_matches_dense(model, flip_noise(entry.pattern, 0.2, seed=700 + i))


def test_factored_literal_keeps_the_key_geometry():
    # The dense path shapes the recalled pattern like the key, not like the target.
    model = build_model(labeled(hadamard_rows(4)), mode="literal")
    key = bipolar([1, -1, -1, 1], width=2, height=2)
    result = recognize(model, key)
    assert (result.recalled.width, result.recalled.height) == (2, 2)
    assert result.same_outcome(_recognize_dense(model, key))


@pytest.mark.parametrize("plan", [None, ExecPlan(threads=2)])
def test_literal_dense_recognition_holds_three_matrices(plan):
    # Each label's matrix is freed before the next is trained, so the zero
    # matrix, train_pair's copy and one outer product are the most held at once.
    rng = np.random.default_rng(90)
    n = 40 * 40
    model = build_model(labeled([random_pattern(rng, n, 40, 40) for _ in range(3)]), mode="literal")
    key = random_pattern(rng, n, 40, 40)
    assert peak_bytes(lambda: _recognize_dense(model, key, plan)) < 3.5 * 8 * n * n


def test_factored_superposed_recognition_makes_no_int64_copy():
    # The float32 net input (4n bytes) is thresholded where it is, so the most
    # held at once is it and its n-byte mask, or the n recalled cells and their
    # 4n-byte float32 copy; an int64 copy of the net input alone would be 8n.
    rng = np.random.default_rng(91)
    n = 200 * 200
    model = build_model(labeled([random_pattern(rng, n, 200, 200) for _ in range(4)]))
    key = flip_noise(model.entries[2].pattern, 0.2, seed=3)
    assert peak_bytes(lambda: recognize(model, key)) < 8 * n


def test_literal_recognition_copies_no_cells():
    # A key of the target's geometry recalls the stored pattern itself; Pattern(...) would hold 2n.
    rng = np.random.default_rng(92)
    n = 200 * 200
    model = build_model(labeled([random_pattern(rng, n, 200, 200) for _ in range(4)]), mode="literal")
    key = random_pattern(rng, n, 200, 200)
    assert peak_bytes(lambda: recognize(model, key)) < n


def test_literal_recall_in_another_geometry_of_the_same_n():
    rng = np.random.default_rng(93)
    model = build_model(labeled([random_pattern(rng, 12, 4, 3) for _ in range(3)], list("cab")), mode="literal")
    key = random_pattern(rng, 12, 3, 4)
    _assert_literal_matches_dense(model, key)
    recalled = recognize(model, key).recalled
    assert (recalled.width, recalled.height) == (3, 4)
    assert np.array_equal(recalled.cells, model.entries[1].pattern.cells)  # "a", the smallest label
    assert not recalled.cells.flags.writeable
    same = recognize(model, model.entries[0].pattern)
    assert same.recalled is model.entries[1].pattern
    assert not same.recalled.cells.flags.writeable
