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
and key·key = n > 0 for a bipolar key, so recall reproduces the target exactly
and every score is 100.00; the mode is kept as executable documentation of
that degeneracy. Recognition returns the predicted label's stored target, in
the key's geometry, and does no arithmetic.

:func:`recognize` runs no dense kernel, and its ``plan`` changes nothing. The
paper's dense serial and parallel recall lives in the ``bench`` harness alone:
:func:`~amnocr.core.net_input` against :func:`~amnocr.parallel.par_net_input`
on W, and, in literal mode, :func:`~amnocr.core.train_pair` against
:func:`~amnocr.parallel.par_train_pair` per label.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import _exact_float, store_patterns
from .errors import _check_budget
from .parallel import ExecPlan
from .patterns import LabeledPattern, Pattern, _from_mask

__all__ = ["RecognizerModel", "RecognitionResult", "build_model", "recognize"]

MODES = ("superposed", "literal")
_HUNDRED = Fraction(100)  # every literal score; Fractions are immutable, so one object serves every call


@dataclass(frozen=True, eq=False)
class RecognizerModel:
    """Immutable trained alphabet store; safe for concurrent recognition.

    In superposed mode ``_targets`` stacks the alphabet as a (k, n) array P
    that every query multiplies by, in the float dtype :func:`build_model`
    picks; recall thresholds its net input in that dtype.
    Literal mode keeps no stack, and ``_targets`` is ``None``: recognition
    returns the stored target pattern itself, frozen with read-only cells,
    when the key has its geometry, and the same cells in the key's geometry
    otherwise. Superposed recognition never needs the n x n matrix W = PᵀP;
    ``weights`` builds it on first access, for ``bench``'s dense kernels.
    """

    entries: tuple[LabeledPattern, ...]
    mode: str
    _targets: np.ndarray | None = field(repr=False)

    @functools.cached_property
    def weights(self) -> np.ndarray | None:
        """W = ``store_patterns`` of the entries, read-only; ``None`` in literal mode."""
        if self.mode != "superposed":
            return None
        return store_patterns([e.pattern for e in self.entries])

    @property
    def n(self) -> int:
        return self.entries[0].pattern.n

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)


@dataclass(eq=False, slots=True)
class RecognitionResult:
    """Per-label match percentages plus the winning label.

    ``scores`` maps every stored label to an exact rational percentage in
    [0, 100]; ``predicted`` attains the maximum (ties go to the
    lexicographically smallest label). Labels with the same score may share
    one ``Fraction`` object. The class has slots and no ``__dict__``, since
    one result is built per key.
    """

    predicted: str
    scores: dict[str, Fraction]
    recalled: Pattern

    def ranked(self) -> list[tuple[str, Fraction]]:
        """Labels best-first; ties broken by ascending label."""
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def same_outcome(self, other: "RecognitionResult") -> bool:
        """True when the recalled pattern, every score and the predicted label are identical."""
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

    Superposed mode keeps the alphabet as a stack for factored recall, in
    ``core._exact_float(max(k, 2) * n)``, which says why that is exact: the
    bound caps every partial sum of recall, the overlaps |P·key| <= n, the
    net inputs |a| <= k * n and the agreement sums n + P·r <= 2 * n. The int8
    stack and that copy, k * n * (1 + itemsize) bytes, are checked against
    ``errors.MAX_WEIGHT_BYTES`` first. Literal mode keeps no stack.
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
    k = len(entries)
    targets = None
    if mode == "superposed":
        dtype = _exact_float(max(k, 2) * n)
        _check_budget(f"k={k}, n={n}", k * n * (1 + dtype.itemsize), "the int8 recall stack and its copy")
        targets = np.stack([e.pattern.cells for e in entries]).astype(dtype)
        targets.setflags(write=False)
    return RecognizerModel(entries=entries, mode=mode, _targets=targets)


def _ranked(model: RecognizerModel, agree: Iterable[int]) -> tuple[str, dict[str, Fraction]]:
    """``(predicted, scores)`` from per-label agreeing cell counts, as ``match_score`` scores them.

    Superposed recall, factored or dense, and literal dense recall all rank
    through it. ``agree`` yields one Python ``int`` per entry, in entry
    order. One pass over the entries fills the scores, builds one
    ``Fraction(100 * count, n)`` per distinct count, shared by the labels
    that have it (``Fraction``s are immutable), and picks the winner from the
    integer counts, as the percentage rises with the count: the highest
    count, ties going to the smallest label.
    """
    n = model.n
    by_count: dict[int, Fraction] = {}
    scores: dict[str, Fraction] = {}
    best, predicted = -1, ""
    for e, c in zip(model.entries, agree):
        label = e.label
        score = by_count.get(c)
        if score is None:
            score = by_count[c] = Fraction(100 * c, n)
        scores[label] = score
        if c > best or (c == best and label < predicted):
            best, predicted = c, label
    return predicted, scores


def _check_key(model: RecognizerModel, key: Pattern) -> None:
    """The key check of factored and dense recall alike."""
    if key.n != model.n:
        raise ValueError(f"dimension mismatch: model has n={model.n}, key has n={key.n}")


def _superposed_result(model: RecognizerModel, recalled: Pattern) -> RecognitionResult:
    """The result of a superposed ``recalled`` pattern, factored here or dense in ``bench``."""
    p = model._targets
    # Bipolar cells agree in (n + p·r) / 2 positions, so this equals match_score(recalled, target)
    # per label, an exact integer in p's dtype. A memoryview yields each as a Python float, which
    # int() makes the int Fraction needs, one at a time: no int64 array, no list of k numbers.
    agree = (model.n + np.einsum("kn,n->k", p, recalled.cells.astype(p.dtype))) // 2
    predicted, scores = _ranked(model, map(int, memoryview(agree)))
    return RecognitionResult(predicted=predicted, scores=scores, recalled=recalled)


def recognize(model: RecognizerModel, key: Pattern, plan: ExecPlan | None = None) -> RecognitionResult:
    """Rank ``key`` against every stored glyph; deterministic.

    Both modes recall on the calling thread, and ``plan`` is accepted and
    changes nothing: at most O(kn) arithmetic takes less time than starting
    a worker team. Superposed mode computes a = Pᵀ(P·key), which equals
    ``net_input(model.weights, key)`` exactly, with ``np.einsum`` in the
    stack's dtype (see :func:`build_model`); it never calls BLAS, which
    would start threads of its own. The net input is thresholded in that
    dtype too, a > 0, and :func:`_superposed_result` scores the recall.
    Literal mode does no arithmetic: training a fresh matrix on (key, t) and
    recalling with the key gives the net input (key·key)·t with key·key =
    n > 0, so it recalls every stored target t itself, in the key's
    geometry: the stored pattern itself when the geometries match, the same
    cells reshaped otherwise. Every label then scores the one module-level
    ``Fraction(100)``, shared by every call. ``bench``'s dense serial and
    parallel recall returns exactly what this function returns.
    """
    _check_key(model, key)
    if model.mode == "superposed":
        p = model._targets
        # Both operands in p's dtype: a mixed-dtype einsum casts through a buffer on every call.
        overlaps = np.einsum("kn,n->k", p, key.cells.astype(p.dtype))
        # The net input a = Pᵀ·overlaps is exact in p's dtype, so it is thresholded there, unnamed:
        # it is freed as soon as the mask a > 0 exists.
        return _superposed_result(model, _from_mask(key.width, key.height, np.einsum("k,kn->n", overlaps, p) > 0))

    # Literal mode: every label recalls its own target, so all tie at 100 and the smallest label wins.
    winner = min(model.entries, key=lambda e: e.label)
    target = winner.pattern
    if (target.width, target.height) != (key.width, key.height):
        # The same n cells in the key's geometry, as the dense path shapes its recall.
        target = _from_mask(key.width, key.height, target.cells > 0)
    # A stored pattern is frozen and its cells read-only, so the result can share it.
    return RecognitionResult(predicted=winner.label, scores=dict.fromkeys(model.labels, _HUNDRED), recalled=target)

