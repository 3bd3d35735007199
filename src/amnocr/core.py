"""Single-threaded reference kernels for the associative memory network.

The network stores bipolar patterns by superposing Hebbian outer products
into an integer weight matrix and recalls with one synchronous pass: a
signed net-input sum per output node followed by a strict positive
threshold. Everything is exact integer arithmetic, so the data-parallel
counterparts in :mod:`amnocr.parallel` can promise bit-identical results.

Conventions: ``w[i, j]`` connects input node ``i`` to output node ``j``;
weights are int64; returned matrices are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bmp import _Grid
from .errors import _check_budget, _check_int
from .patterns import Pattern, _from_mask

__all__ = [
    "ActivationVector",
    "zero_weights",
    "train_pair",
    "store_patterns",
    "net_input",
    "threshold",
    "recall",
    "match_score",
    "format_pct",
]

# float32 holds every integer of magnitude up to here exactly (see _exact_float).
_FLOAT32_EXACT = 1 << 24


def _exact_float(bound: int) -> np.dtype:
    """float32 when ``bound`` <= 2**24 (``_FLOAT32_EXACT``), float64 otherwise.

    ``bound`` caps the magnitude of every partial sum of a product of +-1
    operands. Each such sum is an integer, so the product is exact in either
    width, in whatever order the terms are added: float32 holds every integer
    up to 2**24 and float64 every integer up to 2**53. So float64 is exact
    for every store the budget admits: recognition's int8 k x n stack and
    its float64 copy take k * n * (1 + 8) bytes, ``errors.MAX_WEIGHT_BYTES``
    (2**30) caps k * n at 119,304,647, and no product on the stack sums past
    max(k, 2) * n <= 2 * k * n < 2**53.
    """
    return np.dtype(np.float32 if bound <= _FLOAT32_EXACT else np.float64)


def _check_weight_budget(n: int, matrices: int = 1) -> None:
    """Raise :class:`MemoryBudgetError` unless ``matrices`` n x n 8-byte matrices fit ``MAX_WEIGHT_BYTES``."""
    _check_budget(f"n={n}", matrices * 8 * n * n, "dense n x n weights")


@dataclass(frozen=True, eq=False)
class ActivationVector(_Grid):
    """Integer net inputs, one per output node, plus the key's geometry.

    The dense kernels (:func:`net_input` and ``par_net_input``) return it.
    After storing k patterns, every entry is bounded by k * n in magnitude
    for a bipolar key, so int64 never saturates at the sizes this package
    targets. ``a`` is stored as int64 by ``_Grid``'s input rule.
    """

    a: np.ndarray

    _size_error = "expected {n} activations, got {size}"
    _value_error = "activations must be integers that int64 holds"

    def __post_init__(self):
        self._freeze("a", np.int64)


def _check_weights(w: np.ndarray, **patterns: Pattern) -> np.ndarray:
    """``w`` as a square int64 array whose side is every named pattern's n.

    Raises ``ValueError`` naming each pattern's n when the side differs.
    """
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    if any(p.n != n for p in patterns.values()):
        sizes = ", ".join(f"{name} has n={p.n}" for name, p in patterns.items())
        raise ValueError(f"dimension mismatch: weights are {n}x{n}, {sizes}")
    return np.asarray(w, dtype=np.int64)


def zero_weights(n: int) -> np.ndarray:
    """A fresh all-zero n x n weight matrix, within ``MAX_WEIGHT_BYTES``."""
    _check_int("weight dimension", n, 1)
    _check_weight_budget(n)
    w = np.zeros((n, n), dtype=np.int64)
    w.setflags(write=False)
    return w


def train_pair(w: np.ndarray, input_pattern: Pattern, target_pattern: Pattern) -> np.ndarray:
    """One Hebbian update: w[i, j] += input[i] * target[j] for every (i, j).

    Returns a new matrix; the argument is not mutated. Integer arithmetic,
    no saturation. The argument, its copy and one outer product are checked
    against ``MAX_WEIGHT_BYTES`` first.
    """
    w = _check_weights(w, input=input_pattern, target=target_pattern)
    _check_weight_budget(w.shape[0], matrices=3)
    out = w.copy()
    out += np.outer(
        input_pattern.cells.astype(np.int64), target_pattern.cells.astype(np.int64)
    )
    out.setflags(write=False)
    return out


def store_patterns(patterns: Sequence[Pattern]) -> np.ndarray:
    """W = PᵀP, where P is the k x n stack of the patterns.

    Equals folding :func:`train_pair` with input == target over the list.
    The product runs in ``_exact_float(k)``, exact because every partial
    sum is an integer of magnitude at most k. Two n x n 8-byte matrices,
    the product and its int64 copy, are checked against ``MAX_WEIGHT_BYTES``
    first.
    """
    if not patterns:
        raise ValueError("cannot store an empty pattern list")
    n = patterns[0].n
    for p in patterns:
        if p.n != n:
            raise ValueError(f"dimension mismatch: patterns with n={n} and n={p.n}")
    _check_weight_budget(n, matrices=2)
    stack = np.stack([p.cells for p in patterns]).astype(_exact_float(len(patterns)))
    w = (stack.T @ stack).astype(np.int64)
    w.setflags(write=False)
    return w


def net_input(w: np.ndarray, key: Pattern) -> ActivationVector:
    """Net input to each output node: a[j] = sum_i key[i] * w[i, j], exactly."""
    a = key.cells.astype(np.int64) @ _check_weights(w, key=key)
    return ActivationVector(width=key.width, height=key.height, a=a)


def threshold(activations: ActivationVector) -> Pattern:
    """Strict signed threshold: +1 where the net input is > 0, else -1.

    Zero falls to -1, which breaks negation symmetry of recall (not of the
    net input itself). The cells are made +-1 from the mask a > 0, so the
    pattern skips the cell scan and copy of ``Pattern(...)``.
    """
    return _from_mask(activations.width, activations.height, activations.a > 0)


def recall(w: np.ndarray, key: Pattern) -> Pattern:
    """One synchronous pass: threshold the net inputs for ``key``."""
    return threshold(net_input(w, key))


def match_score(a: Pattern, b: Pattern) -> Fraction:
    """Agreement percentage between two patterns, as an exact rational.

    100 * (number of positions where the cells agree) / n. Use
    :func:`format_pct` to render the conventional 2-decimal form.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: n={a.n} vs n={b.n}")
    agree = int(np.count_nonzero(a.cells == b.cells))
    return Fraction(100 * agree, a.n)


def format_pct(score: Fraction | float | int) -> str:
    """Render a percentage with exactly two decimals (ties to even)."""
    cents = round(Fraction(score) * 100)
    units, rest = divmod(abs(cents), 100)
    return f"{'-' if cents < 0 else ''}{units}.{rest:02d}"
