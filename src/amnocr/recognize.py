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

Only the ``bench`` harness times the paper's dense serial and parallel
kernels, on both modes: :func:`~amnocr.core.net_input` against
:func:`~amnocr.parallel.par_net_input` on W, and, in literal mode,
:func:`~amnocr.core.train_pair` against :func:`~amnocr.parallel.par_train_pair`
per label. The noise sweep ranks its noisy keys with :func:`recognize`.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    _check_budget,
    _exact_float,
    net_input,
    store_patterns,
    threshold,
    train_pair,
    zero_weights,
)
from .errors import _check_int
from .parallel import ExecPlan, par_net_input, par_train_pair
from .patterns import LabeledPattern, Pattern, _from_mask

__all__ = ["RecognizerModel", "RecognitionResult", "build_model", "recognize", "repeat_recognize"]

MODES = ("superposed", "literal")


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
    ``weights`` builds it on first access, for the dense kernels.
    """

    entries: tuple[LabeledPattern, ...]
    mode: str
    _targets: np.ndarray | None = field(repr=False)
    _dense: bool = field(default=False, repr=False)  # recall through W (see _dense_view)

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

    Superposed mode keeps the alphabet as a stack for factored recall, in
    ``core._exact_float(max(k, 2) * n)``, which says why that is exact: the
    bound caps every partial sum of recall, the overlaps |P·key| <= n, the
    net inputs |a| <= k * n and the agreement sums n + P·r <= 2 * n. The int8
    stack and that copy, k * n * (1 + itemsize) bytes, are checked against
    ``MAX_WEIGHT_BYTES`` first. Literal mode keeps no stack.
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


def _dense_view(model: RecognizerModel) -> RecognizerModel:
    """``model`` recalling with the dense serial and parallel kernels, as ``bench`` times it.

    Superposed recall goes through W; literal recall trains an n x n matrix per label.
    """
    view = dataclasses.replace(model, _dense=True)
    view.__dict__["weights"] = model.weights  # share the cached matrix rather than build another
    return view


def _argmax_label(scores: dict) -> str:
    """The label with the highest value; ties go to the smallest label."""
    best = max(scores.values())
    return min(label for label, s in scores.items() if s == best)


def _ranked(model: RecognizerModel, agree: list[int]) -> tuple[str, dict[str, Fraction]]:
    """``(predicted, scores)`` from per-label agreeing cell counts, as ``match_score`` scores them.

    Superposed recall and literal dense recall both rank through it.
    ``agree`` holds one Python ``int`` per entry, in entry order. The
    percentage 100 * count / n rises with the count, so the winner is read
    from the integer counts. One ``Fraction`` is built per distinct count and
    shared by the labels that have it; ``Fraction``s are immutable.
    """
    n = model.n
    counts = dict(zip(model.labels, agree))
    pct = {c: Fraction(100 * c, n) for c in set(agree)}
    return _argmax_label(counts), {label: pct[c] for label, c in counts.items()}


def recognize(model: RecognizerModel, key: Pattern, plan: ExecPlan | None = None) -> RecognitionResult:
    """Rank ``key`` against every stored glyph; deterministic.

    Both modes recall on the calling thread, whatever ``plan`` says: at most
    O(kn) arithmetic takes less time than starting a worker team. Superposed
    mode computes a = Pᵀ(P·key), which equals
    ``net_input(model.weights, key)`` exactly, with ``np.einsum`` in the
    stack's dtype (see :func:`build_model`); it never calls BLAS, which
    would start threads of its own. The net input is thresholded in that
    dtype too, a > 0. The winner is picked from integer agreement counts.
    Literal mode does no arithmetic: training a fresh matrix on (key, t) and
    recalling with the key gives the net input (key·key)·t with key·key =
    n > 0, so it recalls every stored target t itself, in the key's
    geometry: the stored pattern itself when the geometries match, the same
    cells reshaped otherwise. Every label then scores one shared
    ``Fraction(100)``. ``plan`` drives only the dense kernels that ``bench``
    times: there it runs them on the data-parallel path, which is
    bit-identical to the serial one, so results never depend on thread
    count or chunk size.
    """
    if key.n != model.n:
        raise ValueError(f"dimension mismatch: model has n={model.n}, key has n={key.n}")
    if model._dense and model.mode == "literal":
        return _recognize_literal_dense(model, key, plan)

    if model.mode == "superposed":
        p = model._targets
        if model._dense:
            recalled = _recall_dense(model.weights, key, plan)
        else:
            # Both operands in p's dtype: a mixed-dtype einsum casts through a buffer on every call.
            overlaps = np.einsum("kn,n->k", p, key.cells.astype(p.dtype))
            # The net input a = Pᵀ·overlaps is exact in p's dtype, so it is thresholded there, unnamed:
            # it is freed as soon as the mask a > 0 exists.
            recalled = _from_mask(key.width, key.height, np.einsum("k,kn->n", overlaps, p) > 0)
        # Bipolar cells agree in (n + p·r) / 2 positions, so this equals
        # match_score(recalled, target) per label, in exact integers; int64, as Fraction takes no floats.
        agree = ((model.n + np.einsum("kn,n->k", p, recalled.cells.astype(p.dtype))) // 2).astype(np.int64)
        predicted, scores = _ranked(model, agree.tolist())
        return RecognitionResult(predicted=predicted, scores=scores, recalled=recalled)

    # Literal mode: every label recalls its own target, so all tie at 100 and the smallest label wins.
    winner = min(model.entries, key=lambda e: e.label)
    target = winner.pattern
    if (target.width, target.height) != (key.width, key.height):
        # The same n cells in the key's geometry, as the dense path shapes its recall.
        target = _from_mask(key.width, key.height, target.cells > 0)
    # A stored pattern is frozen and its cells read-only, so the result can share it.
    return RecognitionResult(predicted=winner.label, scores=dict.fromkeys(model.labels, Fraction(100)), recalled=target)


def _recall_dense(w: np.ndarray, key: Pattern, plan: ExecPlan | None) -> Pattern:
    """Threshold ``key``'s net input on W, through the parallel kernel when there is a ``plan``."""
    return threshold(par_net_input(w, key, plan) if plan else net_input(w, key))


def _recognize_literal_dense(model: RecognizerModel, key: Pattern, plan: ExecPlan | None) -> RecognitionResult:
    """Literal mode as the paper runs it: train on (key, target) and recall with the key, per label."""
    recalled_by_label = {}
    agree = []
    zero = zero_weights(model.n)
    for e in model.entries:
        # Passed on unnamed, each label's matrix is freed before the next one is trained.
        out = _recall_dense(
            par_train_pair(zero, key, e.pattern, plan) if plan else train_pair(zero, key, e.pattern), key, plan
        )
        recalled_by_label[e.label] = out
        agree.append(int(np.count_nonzero(out.cells == e.pattern.cells)))
    predicted, scores = _ranked(model, agree)
    return RecognitionResult(predicted=predicted, scores=scores, recalled=recalled_by_label[predicted])


def repeat_recognize(
    model: RecognizerModel, key: Pattern, runs: int = 5, plan: ExecPlan | None = None
) -> RecognitionResult:
    """Run :func:`recognize` ``runs`` times; report mean scores and wall times.

    The algorithm is deterministic, so the mean per-label score equals any
    single run's score; the repetition exists to collect timing samples.
    """
    _check_int("runs", runs, 1)
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
