"""Bipolar patterns and their on-disk formats.

A :class:`Pattern` is a fixed-length vector over {+1, -1} with width/height
metadata, the unit every kernel in this package consumes. This module covers
the conversions around it: binarizing decoded pixel grids, the AMNPAT v1
text format, store manifests, and deterministic synthetic noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bmp import PixelGrid, _Grid, decode_bmp
from .errors import InvariantError, ManifestError, PatternFormatError, _check_int, _check_rates

__all__ = [
    "Pattern",
    "BinarizePolicy",
    "LabeledPattern",
    "pixels_to_pattern",
    "write_pattern_text",
    "read_pattern_text",
    "load_pattern_file",
    "load_manifest",
    "flip_noise",
]

AMNPAT_MAGIC = "AMNPAT"
AMNPAT_VERSION = "1"

_ONE, _MINUS_ONE = ord("1"), 0xFF  # the bytes read_pattern_text turns "1" and "-1" tokens into


@dataclass(frozen=True, eq=False)
class Pattern(_Grid):
    """Row-major bipolar vector: every cell is exactly +1 or -1, stored as int8 by ``_Grid``'s input rule."""

    cells: np.ndarray

    _size_error = "expected {n} cells for a {width}x{height} pattern, got {size}"
    _value_error = "pattern cells must all be +1 or -1"

    def __post_init__(self):
        self._freeze("cells", np.int8, lambda cells: np.all(np.abs(cells) == 1))

    def rows(self) -> np.ndarray:
        """The cells as a (height, width) view."""
        return self.cells.reshape(self.height, self.width)

    def __repr__(self):
        return f"Pattern({self.width}x{self.height})"


@dataclass(frozen=True)
class BinarizePolicy:
    """How pixel intensities map to bipolar cells.

    With the defaults, ink pixels (intensity below 128) become +1 and the
    light background becomes -1. Set ``foreground_is_dark=False`` for
    light-on-dark sources.
    """

    threshold: int = 128
    foreground_is_dark: bool = True

    def __post_init__(self):
        _check_int("threshold", self.threshold, 0, 255)


@dataclass(frozen=True)
class LabeledPattern:
    """A glyph identifier paired with its stored pattern. Labels are case-sensitive, nonempty and one line."""

    label: str
    pattern: Pattern

    def __post_init__(self):
        _check_label(self.label)


def _check_label(label: str) -> None:
    """Raise ``ValueError`` unless ``label`` is nonempty and has no line boundary read_pattern_text splits at."""
    if not label:
        raise ValueError("label must be nonempty")
    if label.splitlines() != [label]:
        raise ValueError("label must not contain newlines")


def pixels_to_pattern(grid: PixelGrid, policy: BinarizePolicy | None = None) -> Pattern:
    """Binarize a pixel grid into a bipolar pattern under ``policy``."""
    policy = policy or BinarizePolicy()
    dark = grid.values < policy.threshold
    foreground = dark if policy.foreground_is_dark else ~dark
    return _from_mask(grid.width, grid.height, foreground)


def _from_mask(width: int, height: int, mask: np.ndarray) -> Pattern:
    """The pattern with +1 where ``mask`` is true and -1 elsewhere.

    Checks the geometry as :class:`Pattern` does, but not the cells: they are
    made here, fresh and +-1 by construction, so they are neither scanned
    nor copied again.
    """
    Pattern._check_geometry(width, height, mask)
    cells = mask.astype(np.int8)
    cells *= 2
    cells -= 1
    cells.setflags(write=False)
    pattern = object.__new__(Pattern)  # skips __post_init__
    # Set as the frozen dataclass sets its fields; reading __dict__ would give each pattern its own dict.
    object.__setattr__(pattern, "width", width)
    object.__setattr__(pattern, "height", height)
    object.__setattr__(pattern, "cells", cells)
    return pattern


def write_pattern_text(pattern: Pattern, label: str) -> str:
    """Serialize to AMNPAT v1 text.

    Line 1 is ``AMNPAT 1 <width> <height> <label>``, followed by one line per
    pattern row of space-separated ``1``/``-1`` tokens. Newline-terminated,
    no trailing spaces.
    """
    _check_label(label)
    # One sign byte and one separator byte per cell, then "0" widens to "-1".
    body = np.empty((pattern.height, pattern.width, 2), dtype=np.uint8)
    body[..., 0] = pattern.rows() > 0
    body[..., 0] += ord("0")
    body[..., 1] = ord(" ")
    body[:, -1, 1] = ord("\n")
    header = f"{AMNPAT_MAGIC} {AMNPAT_VERSION} {pattern.width} {pattern.height} {label}\n"
    return header + body.tobytes().replace(b"0", b"-1").decode("ascii")


def read_pattern_text(text: str) -> tuple[Pattern, str]:
    """Parse AMNPAT v1 text; exact inverse of :func:`write_pattern_text`."""
    lines = text.splitlines()
    if not lines:
        raise PatternFormatError("empty pattern text")
    header = lines[0].split(" ", 4)
    if header[0] != AMNPAT_MAGIC:
        raise PatternFormatError(f"bad magic {header[0]!r}, expected {AMNPAT_MAGIC!r}")
    if len(header) < 5:
        raise PatternFormatError(f"malformed header line {lines[0]!r}")
    if header[1] != AMNPAT_VERSION:
        raise PatternFormatError(f"unsupported format version {header[1]!r}")
    try:
        width, height = int(header[2]), int(header[3])
    except ValueError:
        raise PatternFormatError(f"non-integer dimensions in header {lines[0]!r}") from None
    label = header[4]
    if width < 1 or height < 1 or not label:
        raise PatternFormatError(f"malformed header line {lines[0]!r}")

    body = lines[1:]
    found = sum(1 for line in body if line.strip())
    if found != height:
        raise PatternFormatError(f"row count mismatch: header says {height}, found {found} rows")
    rows = body[:height]
    for r, line in enumerate(rows):  # before allocating, so the text bounds the cell count
        if line.count(" ") + 1 != width:
            raise PatternFormatError(
                f"column count mismatch at row {r}: expected {width} tokens, got {line.count(' ') + 1}"
            )
    # Every character becomes one byte and every "-1" one 0xFF byte, which
    # ASCII bytes never are. The rows hold width * height - 1 spaces, so the
    # tokens are all "1" or "-1" exactly when that leaves 2 * width * height - 1
    # bytes with "1" or 0xFF at every even position. The dels keep one copy of
    # the rows alive at a time.
    joined = " ".join(rows)
    del lines, body, rows
    ascii_rows = joined.encode("ascii", "replace")
    del joined
    codes = np.frombuffer(ascii_rows.replace(b"-1", bytes([_MINUS_ONE])), dtype=np.uint8)
    del ascii_rows
    tokens = codes[0::2]
    if codes.size != 2 * width * height - 1 or not np.all((tokens == _ONE) | (tokens == _MINUS_ONE)):
        _raise_first_bad_token(text.splitlines()[1 : height + 1])
    return _from_mask(width, height, tokens == _ONE), label


def _raise_first_bad_token(rows: list[str]) -> None:
    for r, line in enumerate(rows):
        for token in line.split(" "):
            if token not in ("1", "-1"):
                raise PatternFormatError(f"invalid token {token!r} at row {r} (must be 1 or -1)")
    raise InvariantError("the bulk token check rejected rows that hold only 1 and -1")


def load_pattern_file(path: str | Path, policy: BinarizePolicy | None = None) -> Pattern:
    """Load one glyph file, sniffing BMP ('BM') vs AMNPAT content.

    BMP files are decoded and binarized with ``policy``; AMNPAT files are
    already bipolar (their embedded label is ignored here).
    """
    path = Path(path)
    data = path.read_bytes()
    if data.startswith(b"BM"):
        return pixels_to_pattern(decode_bmp(data), policy or BinarizePolicy())
    if data.startswith(AMNPAT_MAGIC.encode()):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PatternFormatError(f"{path}: AMNPAT text is not UTF-8: {exc}") from None
        del data  # the text repeats the file's bytes; keep one copy through the parse
        pattern, _ = read_pattern_text(text)
        return pattern
    raise PatternFormatError(f"{path}: neither a BMP nor an AMNPAT file")


def load_manifest(path: str | Path, policy: BinarizePolicy | None = None) -> list[LabeledPattern]:
    """Load a ``label,path`` CSV manifest into labeled patterns.

    Relative entry paths resolve against the manifest's directory. BMP
    entries are decoded and binarized with ``policy``; AMNPAT entries are
    read as-is (the manifest label wins over the embedded one). All patterns
    must share one width x height.
    """
    policy = policy or BinarizePolicy()
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ManifestError(f"{path}: empty manifest")
            if header != ["label", "path"]:
                raise ManifestError(f"{path}: bad header {header!r}, expected ['label', 'path']")
            rows = [(reader.line_num, row) for row in reader if row]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ManifestError(f"{path}: {exc}") from None

    if not rows:
        raise ManifestError(f"{path}: empty store (manifest has a header but no rows)")

    entries: list[LabeledPattern] = []
    seen: set[str] = set()
    for line_num, row in rows:
        if len(row) != 2 or not row[0]:
            raise ManifestError(f"{path}:{line_num}: expected 'label,path', got {row!r}")
        label, entry = row
        try:
            _check_label(label)
        except ValueError as exc:
            raise ManifestError(f"{path}:{line_num}: {exc}") from None
        if "\x00" in entry:
            raise ManifestError(f"{path}:{line_num}: path {entry!r} contains a NUL character")
        if label in seen:
            raise ManifestError(f"{path}:{line_num}: duplicate label {label!r}")
        seen.add(label)
        entry_path = path.parent / entry  # an absolute entry replaces the manifest's directory
        try:
            pattern = load_pattern_file(entry_path, policy)
        except OSError as exc:
            raise ManifestError(f"{path}:{line_num}: cannot read {entry_path}: {exc}") from exc
        first = entries[0].pattern if entries else pattern
        if (pattern.width, pattern.height) != (first.width, first.height):
            raise ManifestError(
                f"{path}:{line_num}: dimension mismatch for label {label!r}: "
                f"{pattern.width}x{pattern.height} != {first.width}x{first.height}"
            )
        entries.append(LabeledPattern(label=label, pattern=pattern))
    return entries


def flip_noise(pattern: Pattern, rate: float, seed: int) -> Pattern:
    """Flip the sign of exactly ``round(rate * n)`` distinct cells.

    The flipped indices are the first ``round(rate * n)`` entries of a seeded
    pseudo-random permutation of ``0..n``, so the same seed and inputs always
    give the same output. The flip count uses Python ``round`` semantics
    (ties at exact halves go to the even count).
    """
    _check_rates([rate])
    _check_int("seed", seed, 0)
    flips = int(round(rate * pattern.n))  # NumPy 1.x's round of a NumPy float is a NumPy float
    rng = np.random.default_rng(seed)
    indices = rng.permutation(pattern.n)[:flips]
    cells = pattern.cells.copy()
    cells[indices] = -cells[indices]
    return Pattern(width=pattern.width, height=pattern.height, cells=cells)
