"""Alphabet model construction and ranked recognition."""

import importlib
from fractions import Fraction

import numpy as np
import pytest

from amnocr import (
    ExecPlan,
    LabeledPattern,
    build_model,
    flip_noise,
    match_score,
    recall,
    recognize,
    repeat_recognize,
    store_patterns,
)
from amnocr.recognize import _dense_view
from helpers import bipolar, hadamard_rows, labeled, random_pattern


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
    five = repeat_recognize(hadamard_model, key, runs=5)
    assert five.scores == once.scores
    assert five.predicted == once.predicted
    assert five.runs == 5
    assert len(five.timings_ns) == 5
    assert all(t > 0 for t in five.timings_ns)


def test_repeat_runs_one_equals_recognize(hadamard_model):
    key = hadamard_model.entries[0].pattern
    assert repeat_recognize(hadamard_model, key, runs=1).same_outcome(
        recognize(hadamard_model, key)
    )


def test_repeat_mean_of_identical_values_is_exact(hadamard_model):
    key = hadamard_model.entries[1].pattern
    five = repeat_recognize(hadamard_model, key, runs=5)
    assert five.scores[five.predicted] == Fraction(100)


def test_repeat_rejects_zero_runs(hadamard_model):
    with pytest.raises(ValueError, match="runs"):
        repeat_recognize(hadamard_model, hadamard_model.entries[0].pattern, runs=0)


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


def test_literal_model_has_no_weights_and_no_int64_stack():
    model = build_model(labeled(hadamard_rows(4)), mode="literal")
    assert model.weights is None
    assert model._targets.dtype == np.int8
    assert build_model(labeled(hadamard_rows(4)))._targets.dtype == np.int64


def test_build_model_checks_the_int64_recall_bound(monkeypatch):
    # |a[j]| <= k * n; lower the limit rather than allocate a store that breaks int64.
    module = importlib.import_module("amnocr.recognize")
    entries = labeled(hadamard_rows(4)[:2])  # k * n = 8
    monkeypatch.setattr(module, "_INT64_MAX", 8)
    assert build_model(entries).n == 4
    assert build_model(entries, mode="literal").n == 4
    monkeypatch.setattr(module, "_INT64_MAX", 7)
    with pytest.raises(ValueError, match="overflow int64"):
        build_model(entries)


# --- factored literal recall against the dense per-label path ---

LITERAL_PLANS = [None, ExecPlan(threads=1), ExecPlan(threads=2, chunk=100), ExecPlan(threads=3, chunk=2)]


def _assert_literal_matches_dense(model, key):
    """Factored literal recognition equals training and recalling an n x n matrix per label."""
    dense = _dense_view(model)
    for plan in LITERAL_PLANS:
        assert recognize(model, key, plan).first_difference(recognize(dense, key, plan)) is None


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
    assert result.same_outcome(recognize(_dense_view(model), key))
