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

from .patterns import Pattern

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

# A weight matrix is a plain (n, n) int64 ndarray; no wrapper type is needed
# because the dimension is carried by the shape.
WeightMatrix = np.ndarray


@dataclass(frozen=True, eq=False)
class ActivationVector:
    """Integer net inputs, one per output node, plus the key's geometry.

    After storing k patterns, every entry is bounded by k * n in magnitude
    for a bipolar key, so int64 never saturates at the sizes this package
    targets.
    """

    width: int
    height: int
    a: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.width}x{self.height}")
        a = np.asarray(self.a, dtype=np.int64)
        if a.ndim != 1 or a.size != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} activations, got {a.size}"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.width * self.height

    def __eq__(self, other):
        if not isinstance(other, ActivationVector):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.a, other.a)
        )


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


def zero_weights(n: int) -> WeightMatrix:
    """A fresh all-zero n x n weight matrix."""
    if n < 1:
        raise ValueError(f"weight dimension must be >= 1, got {n}")
    w = np.zeros((n, n), dtype=np.int64)
    w.setflags(write=False)
    return w


def train_pair(w: WeightMatrix, input_pattern: Pattern, target_pattern: Pattern) -> WeightMatrix:
    """One Hebbian update: w[i, j] += input[i] * target[j] for every (i, j).

    Returns a new matrix; the argument is not mutated. Integer arithmetic,
    no saturation.
    """
    out = _check_weights(w, input=input_pattern, target=target_pattern).copy()
    out += np.outer(
        input_pattern.cells.astype(np.int64), target_pattern.cells.astype(np.int64)
    )
    out.setflags(write=False)
    return out


def store_patterns(patterns: Sequence[Pattern]) -> WeightMatrix:
    """Superpose auto-associative updates for every pattern, from zero.

    Equals folding :func:`train_pair` with input == target over the list;
    integer addition makes the result order-independent.
    """
    if not patterns:
        raise ValueError("cannot store an empty pattern list")
    n = patterns[0].n
    for p in patterns:
        if p.n != n:
            raise ValueError(f"dimension mismatch: patterns with n={n} and n={p.n}")
    w = np.zeros((n, n), dtype=np.int64)
    for p in patterns:
        cells = p.cells.astype(np.int64)
        w += np.outer(cells, cells)
    w.setflags(write=False)
    return w


def net_input(w: WeightMatrix, key: Pattern) -> ActivationVector:
    """Net input to each output node: a[j] = sum_i key[i] * w[i, j], exactly."""
    a = key.cells.astype(np.int64) @ _check_weights(w, key=key)
    return ActivationVector(width=key.width, height=key.height, a=a)


def threshold(activations: ActivationVector) -> Pattern:
    """Strict signed threshold: +1 where the net input is > 0, else -1.

    Zero falls to -1, which breaks negation symmetry of recall (not of the
    net input itself).
    """
    cells = np.where(activations.a > 0, 1, -1).astype(np.int8)
    return Pattern(width=activations.width, height=activations.height, cells=cells)


def recall(w: WeightMatrix, key: Pattern) -> Pattern:
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
    return f"{cents // 100}.{cents % 100:02d}"
