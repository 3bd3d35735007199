"""One integer rule for every count and size a library call receives.

Each entry point below checks its count or size with ``errors._check_int``:
``int`` and NumPy integers pass, while bool, ``np.bool_``, floats and strings
are a ``ValueError`` at the call that receives them, with no NumPy warning,
never a ``TypeError`` several calls later.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnocr import (
    ActivationVector,
    BinarizePolicy,
    ExecPlan,
    LabeledPattern,
    Pattern,
    PixelGrid,
    build_model,
    flip_noise,
    noise_sweep,
    partition_static,
    run_benchmark,
    zero_weights,
)
from amnocr.errors import _check_int
from amnocr.patterns import _from_mask

ONE = ExecPlan(threads=1)
KEY = Pattern(2, 1, [1, -1])
MODEL = build_model([LabeledPattern("a", KEY), LabeledPattern("b", Pattern(2, 1, [1, 1]))])

# name in the message -> (call with the value under test, lo, hi); every call accepts 2.
ENTRY_POINTS = {
    "Pattern width": (lambda v: Pattern(v, 1, [1, -1]), 1, None),
    "Pattern height": (lambda v: Pattern(1, v, [1, -1]), 1, None),
    "PixelGrid width": (lambda v: PixelGrid(v, 1, [0, 255]), 1, None),
    "ActivationVector height": (lambda v: ActivationVector(1, v, [3, -3]), 1, None),
    "_from_mask width": (lambda v: _from_mask(v, 1, np.array([True, False])), 1, None),
    "ExecPlan threads": (lambda v: ExecPlan(threads=v), 1, 256),
    "ExecPlan chunk": (lambda v: ExecPlan(threads=1, chunk=v), 1, None),
    "partition_static index count": (lambda v: partition_static(v, ONE), 1, None),
    "zero_weights weight dimension": (lambda v: zero_weights(v), 1, None),
    "run_benchmark runs": (lambda v: run_benchmark(MODEL, [LabeledPattern("a", KEY)], ONE, runs=v), 1, None),
    "noise_sweep runs": (lambda v: noise_sweep(MODEL, [0.5], 1, ONE, runs=v), 1, None),
    "noise_sweep seed": (lambda v: noise_sweep(MODEL, [0.5], v), 0, None),
    "flip_noise seed": (lambda v: flip_noise(KEY, 0.5, v), 0, None),
    "BinarizePolicy threshold": (lambda v: BinarizePolicy(threshold=v), 0, 255),
}


def _raises(call, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_counts_and_sizes_follow_one_rule(entry):
    call, lo, hi = ENTRY_POINTS[entry]
    name = entry.split(" ", 1)[1]
    for bad in (True, np.True_, 2.0, "2"):
        _raises(call, bad, f"^{name} must be an integer, got {bad!r}$")
    for good in (2, np.int64(2), np.int32(2)):
        call(good)
    for below in (lo - 1, np.int64(lo - 1)):
        _raises(call, below, f"^{name} must be >= {lo}, got {lo - 1}$")
    if hi is not None:
        _raises(call, hi + 1, f"^{name} must be at most {hi}, got {hi + 1}$")


def test_the_two_gaps_the_rule_closes():
    # A float width used to construct and fail later in write_pattern_text with a TypeError;
    # a bool thread count used to pass as a one-worker plan.
    _raises(lambda v: Pattern(v, 1, [1, -1]), 2.0, r"^width must be an integer, got 2\.0$")
    _raises(lambda v: ExecPlan(threads=v), True, r"^threads must be an integer, got True$")


@settings(derandomize=True, deadline=None)
@given(value=st.integers(-300, 300), lo=st.integers(-2, 2), span=st.none() | st.integers(0, 300))
def test_rule_raises_exactly_outside_the_range(value, lo, span):
    hi = None if span is None else lo + span
    inside = lo <= value and (hi is None or value <= hi)
    for v in (value, np.int64(value)):
        if inside:
            _check_int("n", v, lo, hi)
        else:
            with pytest.raises(ValueError, match="^n must be "):
                _check_int("n", v, lo, hi)


@settings(derandomize=True, deadline=None)
@given(value=st.floats(allow_nan=True) | st.text(max_size=3) | st.booleans() | st.none())
def test_rule_rejects_every_non_integer(value):
    with pytest.raises(ValueError, match="^n must be an integer, got "):
        _check_int("n", value, 0)
