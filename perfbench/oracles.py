"""Expected outputs, computed apart from the package under test.

Superposed recall uses the identity W = P^T P, where P is the (k, n) stack of
stored glyphs: the net input for a key is P^T (P key), summed exactly in
int64. Scores, tie-breaks, the two-decimal rounding and the flip-noise rule
are re-derived from their documented definitions.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True, eq=False)
class Expected:
    """One recognition: winning label, exact percentage per label, recalled cells."""

    predicted: str
    scores: dict[str, Fraction]
    recalled: np.ndarray


def best_label(scores: dict[str, Fraction]) -> str:
    """Highest score; ties go to the lexicographically smallest label."""
    top = max(scores.values())
    return min(label for label, s in scores.items() if s == top)


def superposed(labels, stack: np.ndarray, key_cells: np.ndarray) -> Expected:
    """Recall ``key_cells`` through the store P^T P and score it against every glyph."""
    p = np.asarray(stack, dtype=np.int64)
    a = p.T @ (p @ np.asarray(key_cells, dtype=np.int64))
    recalled = np.where(a > 0, 1, -1).astype(np.int8)  # zero falls to -1
    agree = (p == recalled).sum(axis=1)
    n = p.shape[1]
    scores = {label: Fraction(100 * int(c), n) for label, c in zip(labels, agree)}
    return Expected(best_label(scores), scores, recalled)


def matches(result, expected: Expected) -> bool:
    """True when a ``RecognitionResult`` equals ``expected`` exactly."""
    return (
        result.predicted == expected.predicted
        and result.scores == expected.scores
        and np.array_equal(result.recalled.cells, expected.recalled)
    )


def flip_noise(cells: np.ndarray, rate: float, seed: int) -> np.ndarray:
    """``flip_noise``'s documented rule: negate the first round(rate * n) entries of a seeded permutation."""
    out = np.array(cells, dtype=np.int8)
    idx = np.random.default_rng(seed).permutation(out.size)[: round(rate * out.size)]
    out[idx] = -out[idx]
    return out


def round2(score: Fraction) -> float:
    """A percentage rounded to two decimals, ties to even."""
    return round(score * 100) / 100


def sweep_point(labels, stack: np.ndarray, rate: float, seed: int) -> tuple[float, float]:
    """(top-1 accuracy, mean best-match %) of the store's own glyphs under noise at ``rate``.

    Glyph i is corrupted with seed ``seed + i``, as ``noise_sweep`` documents.
    """
    correct, best = [], []
    for i, label in enumerate(labels):
        exp = superposed(labels, stack, flip_noise(stack[i], rate, seed + i))
        correct.append(exp.predicted == label)
        best.append(round2(exp.scores[exp.predicted]))
    return sum(correct) / len(correct), statistics.fmean(best)


def format_pct(score: Fraction) -> str:
    cents = round(score * 100)
    return f"{cents // 100}.{cents % 100:02d}"


def ranking_lines(expected: Expected) -> list[str]:
    """What ``amnocr recognize`` prints: labels best-first, ties by label."""
    ranked = sorted(expected.scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [f"{label} {format_pct(score)}" for label, score in ranked]


def literal_ok(result, labels) -> bool:
    """Literal mode recalls every target exactly: all scores 100, the smallest label wins."""
    scores = result.scores
    return set(scores) == set(labels) and all(s == 100 for s in scores.values()) and result.predicted == min(labels)
