"""One flip-rate rule for every entry point that takes a rate.

``flip_noise``, ``noise_sweep`` and ``amnocr noise-sweep --rates`` check their
rates with ``errors._check_rates``: a rate is a real number in [0, 1], not a
bool, ``np.bool_``, string, ``None`` or complex number, and a rate list is
nonempty. The library raises ``ValueError``; the CLI exits 2 with the same
message.
"""

import contextlib
import io
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnocr import LabeledPattern, Pattern, build_model, flip_noise, noise_sweep
from amnocr.cli import build_parser
from amnocr.errors import _check_rates

KEY = Pattern(2, 1, [1, -1])
MODEL = build_model([LabeledPattern("a", KEY), LabeledPattern("b", Pattern(2, 1, [1, 1]))])


def _cli(rates):
    """Parse ``amnocr noise-sweep --rates`` as ``main`` does; a usage error is re-raised with its message."""
    argv = ["noise-sweep", "--store", "store.csv", "--seed", "1", "--rates", ",".join(map(str, rates))]
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            return build_parser().parse_args(argv).rates
    except SystemExit as exc:
        assert exc.code == 2
    raise ValueError(stderr.getvalue().rstrip("\n").split("error: argument --rates: ", 1)[1])


# name -> (call with a list of rates, whether it takes a list, whether it takes Python objects rather than text)
ENTRY_POINTS = {
    "flip_noise": (lambda rates: [flip_noise(KEY, rate, 1) for rate in rates], False, True),
    "noise_sweep": (lambda rates: noise_sweep(MODEL, rates, 1), True, True),
    "noise-sweep --rates": (_cli, True, False),
}


def _raises(call, rates, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(rates)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rates_follow_one_rule(entry):
    call, takes_list, takes_objects = ENTRY_POINTS[entry]
    for good in ([0.0], [1], [0.5, 0.25], [np.float64(0.25)], [np.float32(0.5)], [np.int64(1)]):
        call(good)
    for rate in (-0.1, 1.5, np.float64(1.01), float("nan"), float("inf")):
        _raises(call, [0.5, rate], f"flip rate must lie in [0, 1], got {rate}")
    if takes_list:
        _raises(call, [], "rates must be nonempty")
    if takes_objects:
        call([Fraction(1, 4)])
        for bad in (True, np.True_, "0.5", None, 1j):
            _raises(call, [bad], f"flip rate must be a real number, got {bad!r}")


def test_the_gaps_the_rule_closes():
    # A bool rate used to flip every cell (True * n flips), a bool in a sweep
    # wrote a True row to the CSV, and a string rate was a TypeError.
    _raises(lambda rates: flip_noise(KEY, rates[0], 1), [True], "flip rate must be a real number, got True")
    _raises(lambda rates: noise_sweep(MODEL, rates, 1), [True], "flip rate must be a real number, got True")
    _raises(lambda rates: flip_noise(KEY, rates[0], 1), ["0.5"], "flip rate must be a real number, got '0.5'")


@settings(derandomize=True, deadline=None)
@given(rate=st.floats(allow_nan=True, allow_infinity=True))
def test_rule_raises_exactly_outside_the_unit_interval(rate):
    if 0.0 <= rate <= 1.0:
        _check_rates([rate, np.float64(rate)])
    else:
        for r in (rate, np.float64(rate)):
            with pytest.raises(ValueError, match="^flip rate must lie in "):
                _check_rates([r])
