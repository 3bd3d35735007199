"""Alphabet store and ranked recognition.

A :class:`RecognizerModel` holds the labeled glyph alphabet. In the default
``superposed`` mode all glyphs share one weight matrix W = PᵀP, where P is the
k x n stack of stored glyphs, and a key is ranked by how well the recalled
output matches each stored glyph; cross-talk between stored patterns is what
produces partial percentages. Recognition computes the net input as
Pᵀ(P·key), O(kn) instead of the O(n²) product with W, with the same exact
integers; W itself is built only on first access to ``model.weights``.

The ``literal`` mode instead trains a fresh matrix on (key, target) per label
and recalls with the same key. That net input is key·(keyᵀt) = (key·key)·t,
and key·key = n for a bipolar key, so recall reproduces the target exactly and
every score is 100.00; the mode is kept as executable documentation of that
degeneracy. Recognition computes (key·key)·P for all k targets at once, again
O(kn), and never allocates an n x n matrix.

The ``bench`` harness still times the paper's dense serial and parallel
kernels on both modes: :func:`~amnocr.core.net_input` against
:func:`~amnocr.parallel.par_net_input` on W, and, in literal mode,
:func:`~amnocr.core.train_pair` against :func:`~amnocr.parallel.par_train_pair`
per label.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import ActivationVector, match_score, net_input, threshold, train_pair, zero_weights
from .parallel import ExecPlan, par_net_input, par_train_pair
from .patterns import LabeledPattern, Pattern

__all__ = ["MODES", "RecognizerModel", "RecognitionResult", "build_model", "recognize", "repeat_recognize"]

MODES = ("superposed", "literal")

# Superposed recall sums k terms of magnitude <= n, so |a[j]| <= k * n must fit int64.
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class RecognizerModel:
    """Immutable trained alphabet store; safe for concurrent recognition.

    ``_targets`` stacks the alphabet as a (k, n) array P: int64 in superposed
    mode, where every query multiplies by it, and int8 in literal mode, where
    every query scales it by key·key.
    Superposed recognition never needs the n x n matrix W = PᵀP; ``weights``
    builds it on first access, for the dense kernels.
    """

    entries: tuple[LabeledPattern, ...]
    mode: str
    _targets: np.ndarray = field(repr=False)
    _dense: bool = field(default=False, repr=False)  # recall through W (see _dense_view)

    @functools.cached_property
    def weights(self) -> np.ndarray | None:
        """W = ``store_patterns`` of the entries, read-only; ``None`` in literal mode.

        Built as PᵀP in float64, which is exact: every w[i, j] and every partial
        sum is an integer of magnitude <= k, far below 2**53.
        """
        if self.mode != "superposed":
            return None
        p = self._targets.astype(np.float64)
        w = (p.T @ p).astype(np.int64)
        w.setflags(write=False)
        return w

    @property
    def n(self) -> int:
        return self.entries[0].pattern.n

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)


@dataclass(eq=False)
class RecognitionResult:
    """Per-label match percentages plus the winning label.

    ``scores`` maps every stored label to an exact rational percentage in
    [0, 100]; ``predicted`` attains the maximum (ties go to the
    lexicographically smallest label). ``timings_ns`` carries one wall-clock
    sample per run when produced by :func:`repeat_recognize`.
    """

    predicted: str
    scores: dict[str, Fraction]
    recalled: Pattern
    runs: int = 1
    timings_ns: tuple[int, ...] = ()

    def ranked(self) -> list[tuple[str, Fraction]]:
        """Labels best-first; ties broken by ascending label."""
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def same_outcome(self, other: "RecognitionResult") -> bool:
        """True when the non-timing payload is identical."""
        return self.first_difference(other) is None

    def first_difference(self, other: "RecognitionResult") -> tuple[str, str, str] | None:
        """``(where, this value, other value)`` of the first payload difference, or ``None``.

        Looks at the recalled pattern first (its geometry, then the first
        differing cell index), then the per-label scores in this result's
        label order, then the predicted label.
        """
        mine, theirs = self.recalled, other.recalled
        if (mine.width, mine.height) != (theirs.width, theirs.height):
            return "recalled geometry", f"{mine.width}x{mine.height}", f"{theirs.width}x{theirs.height}"
        cells = np.flatnonzero(mine.cells != theirs.cells)
        if cells.size:
            i = int(cells[0])
            return f"recalled cell {i}", str(int(mine.cells[i])), str(int(theirs.cells[i]))
        for label in [*self.scores, *(lbl for lbl in other.scores if lbl not in self.scores)]:
            if self.scores.get(label) != other.scores.get(label):
                return f"score of label {label!r}", str(self.scores.get(label)), str(other.scores.get(label))
        if self.predicted != other.predicted:
            return "predicted label", repr(self.predicted), repr(other.predicted)
        return None


def build_model(entries, mode: str = "superposed") -> RecognizerModel:
    """Validate the alphabet and precompute what the mode needs.

    Superposed mode keeps the alphabet as an int64 stack for factored recall
    and checks that its net inputs, bounded by k * n, fit int64; literal mode
    keeps it as int8, since its net inputs are bounded by n.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    entries = tuple(entries)
    if not entries:
        raise ValueError("cannot build a model from an empty alphabet")
    n = entries[0].pattern.n
    seen: set[str] = set()
    for e in entries:
        if e.pattern.n != n:
            raise ValueError(f"dimension mismatch: label {e.label!r} has n={e.pattern.n}, expected {n}")
        if e.label in seen:
            raise ValueError(f"duplicate label {e.label!r}")
        seen.add(e.label)
    targets = np.stack([e.pattern.cells for e in entries])
    if mode == "superposed":
        if len(entries) * n > _INT64_MAX:
            raise ValueError(f"{len(entries)} patterns of n={n} could overflow int64 recall (|a| <= k*n)")
        targets = targets.astype(np.int64)
    targets.setflags(write=False)
    return RecognizerModel(entries=entries, mode=mode, _targets=targets)


def _dense_view(model: RecognizerModel) -> RecognizerModel:
    """``model`` recalling with the dense serial and parallel kernels, as ``bench`` times it.

    Superposed recall goes through W; literal recall trains an n x n matrix per label.
    """
    view = dataclasses.replace(model, _dense=True)
    view.__dict__["weights"] = model.weights  # share the cached matrix rather than build another
    return view


def _argmax_label(scores: dict[str, Fraction]) -> str:
    best = max(scores.values())
    return min(label for label, s in scores.items() if s == best)


def _scores(model: RecognizerModel, agree) -> dict[str, Fraction]:
    """Per-label percentages from per-label agreeing cell counts, as ``match_score`` gives them."""
    return {e.label: Fraction(100 * int(c), model.n) for e, c in zip(model.entries, agree)}


def recognize(model: RecognizerModel, key: Pattern, plan: ExecPlan | None = None) -> RecognitionResult:
    """Rank ``key`` against every stored glyph; deterministic.

    Both modes recall through a factored form on the calling thread, whatever
    ``plan`` says: its O(kn) arithmetic takes less time than starting a worker
    team. Superposed mode computes a = Pᵀ(P·key), which equals
    ``net_input(model.weights, key)`` exactly. Literal mode computes
    a = (key·key)·t for every stored target t, which equals training a fresh
    matrix on (key, t) and recalling with the key. ``plan`` drives only the
    dense kernels that ``bench`` times: there it runs them on the
    data-parallel path, which is bit-identical to the serial one, so results
    never depend on thread count or chunk size.
    """
    if key.n != model.n:
        raise ValueError(f"dimension mismatch: model has n={model.n}, key has n={key.n}")
    if model._dense and model.mode == "literal":
        return _recognize_literal_dense(model, key, plan)

    p = model._targets
    if model.mode == "superposed":
        if model._dense:
            activations = par_net_input(model.weights, key, plan) if plan else net_input(model.weights, key)
        else:
            activations = ActivationVector(width=key.width, height=key.height, a=(p @ key.cells) @ p)
        recalled = threshold(activations)
        # Bipolar cells agree in (n + p·r) / 2 positions, so this equals
        # match_score(recalled, target) per label, in exact integers.
        scores = _scores(model, (model.n + p @ recalled.cells) // 2)
        return RecognitionResult(predicted=_argmax_label(scores), scores=scores, recalled=recalled)

    # Literal mode: one row of net inputs per target, |a| <= key·key = n.
    key64 = key.cells.astype(np.int64)
    recalled_all = np.where(p.astype(np.int64) * (key64 @ key64) > 0, 1, -1).astype(np.int8)
    scores = _scores(model, np.count_nonzero(recalled_all == p, axis=1))
    predicted = _argmax_label(scores)
    row = recalled_all[model.labels.index(predicted)]
    return RecognitionResult(
        predicted=predicted, scores=scores, recalled=Pattern(width=key.width, height=key.height, cells=row)
    )


def _recognize_literal_dense(model: RecognizerModel, key: Pattern, plan: ExecPlan | None) -> RecognitionResult:
    """Literal mode as the paper runs it: train on (key, target) and recall with the key, per label."""
    scores = {}
    recalled_by_label = {}
    zero = zero_weights(model.n)
    for e in model.entries:
        if plan:
            w = par_train_pair(zero, key, e.pattern, plan)
            activations = par_net_input(w, key, plan)
        else:
            w = train_pair(zero, key, e.pattern)
            activations = net_input(w, key)
        out = threshold(activations)
        recalled_by_label[e.label] = out
        scores[e.label] = match_score(out, e.pattern)
    predicted = _argmax_label(scores)
    return RecognitionResult(predicted=predicted, scores=scores, recalled=recalled_by_label[predicted])


def repeat_recognize(
    model: RecognizerModel, key: Pattern, runs: int = 5, plan: ExecPlan | None = None
) -> RecognitionResult:
    """Run :func:`recognize` ``runs`` times; report mean scores and wall times.

    The algorithm is deterministic, so the mean per-label score equals any
    single run's score; the repetition exists to collect timing samples.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    per_run: list[RecognitionResult] = []
    timings: list[int] = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        result = recognize(model, key, plan)
        timings.append(time.perf_counter_ns() - t0)
        per_run.append(result)
    mean_scores = {
        label: sum(r.scores[label] for r in per_run) / runs for label in per_run[0].scores
    }
    return RecognitionResult(
        predicted=_argmax_label(mean_scores),
        scores=mean_scores,
        recalled=per_run[-1].recalled,
        runs=runs,
        timings_ns=tuple(timings),
    )
