"""Reference kernel tests, cross-checked against the pure-Python loop oracles.

The expected values for the 4-cell chain (store two patterns, probe with one
of them and with a corrupted copy) were computed with tests/oracles.py before
the kernels existed and are frozen here as literals.
"""

import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import amnocr.core
import oracles
from amnocr import (
    ActivationVector,
    ExecPlan,
    MemoryBudgetError,
    format_pct,
    match_score,
    net_input,
    par_train_pair,
    recall,
    store_patterns,
    threshold,
    train_pair,
    zero_weights,
)
from helpers import bipolar, hadamard_rows, random_pattern

A = bipolar([1, -1, 1, -1])
B = bipolar([1, 1, -1, -1])

STORE_AB = [[2, 0, 0, -2], [0, 2, -2, 0], [0, -2, 2, 0], [-2, 0, 0, 2]]


def test_zero_weights():
    w = zero_weights(4)
    assert w.shape == (4, 4) and w.dtype == np.int64
    assert w.sum() == 0 and not w.any()
    big = zero_weights(1209)
    assert big.shape == (1209, 1209) and not big.any()


def test_weight_budget_is_checked_before_allocating(monkeypatch):
    # Lower the budget rather than allocate a matrix that breaks it.
    monkeypatch.setattr(amnocr.core, "MAX_WEIGHT_BYTES", 8 * 4 * 4)
    assert zero_weights(4).shape == (4, 4)
    with pytest.raises(MemoryBudgetError, match=r"n=5 needs 200 bytes .* budget of 128 bytes"):
        zero_weights(5)
    # store_patterns holds the float64 product and its int64 copy at once.
    with pytest.raises(MemoryBudgetError, match=r"n=4 needs 256 bytes .* budget of 128 bytes"):
        store_patterns([A, B])
    monkeypatch.setattr(amnocr.core, "MAX_WEIGHT_BYTES", 256)
    assert store_patterns([A, B]).tolist() == STORE_AB


def test_train_pair_checks_the_weight_budget(monkeypatch):
    # The argument, its copy and one outer product: 3 * 8 * n * n bytes.
    w = zero_weights(4)
    monkeypatch.setattr(amnocr.core, "MAX_WEIGHT_BYTES", 383)
    with pytest.raises(MemoryBudgetError, match=r"n=4 needs 384 bytes .* budget of 383 bytes"):
        train_pair(w, A, B)
    with pytest.raises(MemoryBudgetError, match=r"n=4 needs 384 bytes .* budget of 383 bytes"):
        par_train_pair(w, A, B, ExecPlan(threads=2))
    monkeypatch.setattr(amnocr.core, "MAX_WEIGHT_BYTES", 384)
    assert np.array_equal(par_train_pair(w, A, B, ExecPlan(threads=2)), train_pair(w, A, B))


def test_zero_weights_rejects_nonpositive():
    with pytest.raises(ValueError):
        zero_weights(0)


def test_train_pair_auto_frozen():
    w = train_pair(zero_weights(4), A, A)
    assert w.tolist() == [[1, -1, 1, -1], [-1, 1, -1, 1], [1, -1, 1, -1], [-1, 1, -1, 1]]


def test_train_pair_hetero_frozen():
    w = train_pair(zero_weights(4), A, B)
    assert w[1][0] == -1  # A_2 * B_1
    assert w.tolist() == oracles.train_pair(oracles.zero_matrix(4), [1, -1, 1, -1], [1, 1, -1, -1])


def test_train_pair_cancellation():
    w = train_pair(zero_weights(4), A, A)
    neg = bipolar((-A.cells).tolist())
    w = train_pair(w, A, neg)
    assert not w.any()


def test_train_pair_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for n in (3, 8, 17):
        w0 = rng.integers(-5, 6, size=(n, n)).astype(np.int64)
        inp, tgt = random_pattern(rng, n), random_pattern(rng, n)
        got = train_pair(w0, inp, tgt)
        want = oracles.train_pair(w0.tolist(), inp.cells.tolist(), tgt.cells.tolist())
        assert got.tolist() == want


def test_train_pair_does_not_mutate_argument():
    w0 = zero_weights(4)
    train_pair(w0, A, B)
    assert not w0.any()


def test_store_frozen_matrix():
    assert store_patterns([A, B]).tolist() == STORE_AB
    assert oracles.store([[1, -1, 1, -1], [1, 1, -1, -1]]) == STORE_AB


@pytest.mark.parametrize("k, n", [(5, 9), (9, 3), (1, 1), (1, 64)])
def test_store_equals_fold(k, n):
    rng = np.random.default_rng(11)
    pats = [random_pattern(rng, n) for _ in range(k)]
    folded = zero_weights(n)
    for p in pats:
        folded = train_pair(folded, p, p)
    assert np.array_equal(store_patterns(pats), folded)


@pytest.mark.parametrize("k, n", [(5, 9), (9, 3), (1, 1), (1, 64)])
def test_store_is_the_same_in_float32_and_float64(monkeypatch, k, n):
    # The stores of test_store_equals_fold; a bound below k forces the float64 product.
    rng = np.random.default_rng(11)
    pats = [random_pattern(rng, n) for _ in range(k)]
    in_float32 = store_patterns(pats)
    monkeypatch.setattr(amnocr.core, "_FLOAT32_EXACT", k - 1)
    in_float64 = store_patterns(pats)
    assert in_float32.dtype == in_float64.dtype == np.int64
    assert np.array_equal(in_float32, in_float64)


def test_exact_float_switches_width_past_two_to_the_24():
    # Only the bound is passed, so no store near 2**24 cells is built.
    assert amnocr.core._exact_float(1 << 24) == np.float32
    assert amnocr.core._exact_float((1 << 24) + 1) == np.float64


def test_float64_is_exact_for_every_stack_the_budget_admits():
    # The int8 stack and its float64 copy take 9 bytes a cell, so k * n <= MAX_WEIGHT_BYTES // 9,
    # and float64 holds every integer up to 2**53; recall sums no more than 2 * k * n.
    assert 2 * (amnocr.core.MAX_WEIGHT_BYTES // 9) < 2**53


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_store_order_independent(order):
    rng = np.random.default_rng(3)
    pats = [random_pattern(rng, 12) for _ in range(3)]
    base = store_patterns(pats)
    assert np.array_equal(base, store_patterns([pats[i] for i in order]))


def test_store_symmetry_diagonal_and_bound():
    rng = np.random.default_rng(5)
    k, n = 7, 20
    pats = [random_pattern(rng, n) for _ in range(k)]
    w = store_patterns(pats)
    assert np.array_equal(w, w.T)
    assert (np.diag(w) == k).all()
    assert np.abs(w).max() <= k


def test_store_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        store_patterns([])
    with pytest.raises(ValueError):
        store_patterns([A, bipolar([1, -1])])


def test_net_input_frozen():
    w = store_patterns([A, B])
    assert net_input(w, A).a.tolist() == [4, -4, 4, -4]


def test_net_input_matches_loop_oracle():
    rng = np.random.default_rng(13)
    for n in (4, 10, 33):
        w = rng.integers(-9, 10, size=(n, n)).astype(np.int64)
        key = random_pattern(rng, n)
        assert net_input(w, key).a.tolist() == oracles.net_input(w.tolist(), key.cells.tolist())


def test_net_input_zero_weights():
    key = bipolar([1, 1, -1])
    assert not net_input(zero_weights(3), key).a.any()


def test_net_input_linear_in_key():
    rng = np.random.default_rng(17)
    w = rng.integers(-20, 21, size=(16, 16)).astype(np.int64)
    x = random_pattern(rng, 16)
    neg = bipolar((-x.cells).tolist())
    assert np.array_equal(net_input(w, neg).a, -net_input(w, x).a)


def test_net_input_activation_bound():
    rng = np.random.default_rng(19)
    k, n = 6, 25
    w = store_patterns([random_pattern(rng, n) for _ in range(k)])
    for _ in range(20):
        key = random_pattern(rng, n)
        assert np.abs(net_input(w, key).a).max() <= k * n


def test_threshold_frozen_and_boundaries():
    av = ActivationVector(4, 1, [4, -4, 4, -4])
    assert threshold(av).cells.tolist() == [1, -1, 1, -1]
    assert threshold(ActivationVector(3, 1, [0, 0, 0])).cells.tolist() == [-1, -1, -1]
    assert threshold(ActivationVector(3, 1, [1, 0, -1])).cells.tolist() == [1, -1, -1]


def test_activation_vector_validation():
    with pytest.raises(ValueError, match=">= 1"):
        ActivationVector(0, 1, [])
    with pytest.raises(ValueError, match="expected 4 activations, got 3"):
        ActivationVector(2, 2, [1, 2, 3])
    # A cast to int64 would store 0, -2**63 and 3.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.array([0.5]), np.array([2**63], dtype=np.uint64), np.array(["3"])):
            with pytest.raises(ValueError, match="int64"):
                ActivationVector(1, 1, a)


def test_net_input_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="must be square"):
        net_input(np.zeros((2, 3), dtype=np.int64), bipolar([1, -1]))


def test_threshold_keeps_geometry():
    av = ActivationVector(2, 3, [5, -5, 0, 7, -1, 2])
    out = threshold(av)
    assert (out.width, out.height) == (2, 3)


def test_recall_frozen_chain():
    w = store_patterns([A, B])
    assert recall(w, A) == A
    flipped = bipolar([1, -1, 1, 1])  # A with its last cell flipped
    got = recall(w, flipped)
    assert got.cells.tolist() == [-1, -1, 1, -1]  # cells 1 and 4 hit net input 0
    assert match_score(got, A) == 75


def test_recall_single_pattern_identity():
    rng = np.random.default_rng(23)
    for n in (4, 16, 130):
        for _ in range(10):
            x = random_pattern(rng, n)
            assert recall(store_patterns([x]), x) == x


@pytest.mark.parametrize("order", [4, 8])
def test_recall_orthogonal_store_exact(order):
    rows = hadamard_rows(order)
    w = store_patterns(rows)
    for row in rows:
        assert recall(w, row) == row


def test_match_score_basics():
    x = bipolar([1, -1, 1, 1, -1])
    assert match_score(x, x) == 100
    assert match_score(x, bipolar((-x.cells).tolist())) == 0
    assert match_score(bipolar([-1, -1, 1, -1]), A) == 75


def test_match_score_exact_rational():
    a = bipolar([1, 1, -1])
    b = bipolar([1, -1, -1])
    assert match_score(a, b) == Fraction(200, 3)


def test_match_score_symmetry_and_complement():
    rng = np.random.default_rng(29)
    for n in (3, 7, 40):
        a, b = random_pattern(rng, n), random_pattern(rng, n)
        nb = bipolar((-b.cells).tolist())
        assert match_score(a, b) == match_score(b, a)
        assert match_score(a, b) + match_score(a, nb) == 100
        assert match_score(a, b) == oracles.match_pct(a.cells.tolist(), b.cells.tolist())


def test_dimension_mismatches_raise():
    short = bipolar([1, -1])
    w4 = zero_weights(4)
    with pytest.raises(ValueError):
        train_pair(w4, short, A)
    with pytest.raises(ValueError):
        net_input(w4, short)
    with pytest.raises(ValueError):
        match_score(A, short)


def test_format_pct():
    assert format_pct(Fraction(75)) == "75.00"
    assert format_pct(Fraction(200, 3)) == "66.67"
    assert format_pct(Fraction(100)) == "100.00"
    assert format_pct(0) == "0.00"


def test_format_pct_negative_values():
    assert format_pct(Fraction(-1, 2)) == "-0.50"
    assert format_pct(-0.25) == "-0.25"
    assert format_pct(Fraction(-200, 3)) == "-66.67"
    assert format_pct(-100) == "-100.00"
    # Ties go to even cents, and a value that rounds to zero cents has no sign.
    assert format_pct(Fraction(-1, 200)) == "0.00"
    assert format_pct(Fraction(-3, 200)) == "-0.02"
    assert format_pct(Fraction(-5, 200)) == "-0.02"


def test_format_pct_positive_values_match_decimal_rounding():
    # i / 800 is exact in Decimal, whose default rounding is also ties-to-even;
    # i = 4 (mod 8) is a tie between two cents, and a step of 7 meets every
    # residue mod 8 across [0, 100].
    for i in range(0, 80_001, 7):
        assert format_pct(Fraction(i, 800)) == format(Decimal(i) / 800, ".2f"), i
