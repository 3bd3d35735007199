"""Bipolar patterns and their on-disk formats.

A :class:`Pattern` is a fixed-length vector over {+1, -1} with width/height
metadata, the unit every kernel in this package consumes. This module covers
the conversions around it: binarizing decoded pixel grids, the AMNPAT v1
text format, store manifests, and deterministic synthetic noise.

AMNPAT text is read on one of two paths. Text laid out exactly as
:func:`write_pattern_text` writes it (a one-line header, then ``height`` rows
of ``width`` tokens, one space between tokens and ``"\\n"`` after each row)
is decoded straight from its UTF-8 bytes in fixed-stride views: a file's
bytes as read, or a str's encoding. Everything else goes to the line
reader: CRLF or CR line ends, any other line boundary, blank or trailing
lines, non-ASCII rows and every malformed text. Both paths parse the header
with one function. Only the line reader judges rows and tokens, and it
decodes the rows it has checked with the same fixed-stride code, so a text
reads the same, or fails with the same error, on either path.
"""

from __future__ import annotations

import csv
import errno
import io
import os
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISDIR

import numpy as np

from .bmp import PixelGrid, _decode, _Grid
from .errors import InvariantError, ManifestError, PatternFormatError, _check_budget, _check_int, _check_rates

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

# The byte that stands for a "-1" token while text is bytes: no ASCII or
# UTF-8 text holds it, so it cannot clash with a label.
_MINUS_ONE = b"\xff"


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
        # The binarize rule, once: the cell of each luma as an int8 byte, 0x01 for +1 and 0xFF for -1.
        dark, light = (b"\x01", b"\xff") if self.foreground_is_dark else (b"\xff", b"\x01")
        object.__setattr__(self, "_signs", dark * self.threshold + light * (256 - self.threshold))


# Frozen, so every call without a policy can share this one and its table.
_DEFAULT_POLICY = BinarizePolicy()


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
    policy = policy or _DEFAULT_POLICY
    cells = np.frombuffer(grid.values.tobytes().translate(policy._signs), np.int8)
    Pattern._check_geometry(grid.width, grid.height, cells)
    return Pattern._adopt(grid.width, grid.height, cells)


# The int8 cell of each byte of a bool mask: -1 for false (0), +1 for true (1).
_MASK_SIGNS = b"\xff\x01".ljust(256, b"\0")


def _from_mask(width: int, height: int, mask: np.ndarray) -> Pattern:
    """The pattern with +1 where the bool array ``mask`` is true and -1 elsewhere.

    Checks the geometry as :class:`Pattern` does, but not the cells: they are
    made here, fresh and +-1 by construction, so they are neither scanned
    nor copied again.
    """
    Pattern._check_geometry(width, height, mask)
    return Pattern._adopt(width, height, np.frombuffer(mask.tobytes().translate(_MASK_SIGNS), np.int8))


def write_pattern_text(pattern: Pattern, label: str) -> str:
    """Serialize to AMNPAT v1 text.

    Line 1 is ``AMNPAT 1 <width> <height> <label>``, followed by one line per
    pattern row of space-separated ``1``/``-1`` tokens. Newline-terminated,
    no trailing spaces.
    """
    _check_label(label)
    # surrogatepass round-trips any str label, lone surrogates too.
    head = f"{AMNPAT_MAGIC} {AMNPAT_VERSION} {pattern.width} {pattern.height} {label}\n".encode(
        "utf-8", "surrogatepass"
    )
    # The header, then one sign byte and one separator byte per cell, in one
    # buffer: int8 +1 and -1 are the bytes 0x01 and 0xFF, and "| 0x30" makes
    # them "1" and the "-1" placeholder, which widens in the one replace.
    text = bytearray(len(head) + 2 * pattern.n)
    text[: len(head)] = head
    body = np.frombuffer(text, dtype=np.uint8, offset=len(head)).reshape(pattern.height, pattern.width, 2)
    np.bitwise_or(pattern.rows().view(np.uint8), ord("0"), out=body[..., 0])
    body[..., 1] = ord(" ")
    body[:, -1, 1] = ord("\n")
    del body  # the view keeps the buffer alive; without it the buffer is freed once replaced
    text = text.replace(_MINUS_ONE, b"-1")
    return text.decode("utf-8", "surrogatepass")


def read_pattern_text(text: str) -> tuple[Pattern, str]:
    """Parse AMNPAT v1 text; exact inverse of :func:`write_pattern_text`.

    Text in the written layout, whatever its label, is decoded from its
    UTF-8 bytes; any other text, and every malformed one, goes through the
    line reader, which raises the :class:`PatternFormatError` that names the
    fault.
    """
    return _read_written(text.encode("utf-8", "surrogatepass")) or _read_lines(text)


def _read_header(line: str) -> tuple[int, int, str]:
    """The width, height and label of an AMNPAT header line."""
    header = line.split(" ", 4)
    if header[0] != AMNPAT_MAGIC:
        raise PatternFormatError(f"bad magic {header[0]!r}, expected {AMNPAT_MAGIC!r}")
    if len(header) < 5:
        raise PatternFormatError(f"malformed header line {line!r}")
    if header[1] != AMNPAT_VERSION:
        raise PatternFormatError(f"unsupported format version {header[1]!r}")
    try:
        width, height = int(header[2]), int(header[3])
    except ValueError:
        raise PatternFormatError(f"non-integer dimensions in header {line!r}") from None
    label = header[4]
    if width < 1 or height < 1 or not label:
        raise PatternFormatError(f"malformed header line {line!r}")
    return width, height, label


def _read_written(raw: bytes) -> tuple[Pattern, str] | None:
    """Parse ``raw`` laid out exactly as :func:`write_pattern_text` lays it out, or return ``None``.

    ``raw`` is UTF-8, lone surrogates allowed, so it holds no ``_MINUS_ONE``
    byte. A header line with no line boundary of ``str.splitlines`` in it is
    the line reader's first line too, so its errors are raised here as they
    are there. Any other departure from the layout returns ``None``.
    """
    end = raw.find(b"\n")
    if end < 0:
        return None
    line = raw[:end].decode("utf-8", "surrogatepass")
    if line.splitlines() != [line]:
        return None
    width, height, label = _read_header(line)
    codes = raw.replace(b"-1", _MINUS_ONE)  # a "-1" in the label shifts the body too
    cells = _decode_rows(codes, codes.index(b"\n") + 1, width, height)
    return None if cells is None else (Pattern._adopt(width, height, cells), label)


def _decode_rows(codes: bytes, start: int, width: int, height: int) -> np.ndarray | None:
    """The cells of the rows ``codes[start:]`` holds, each "-1" token already one ``_MINUS_ONE`` byte.

    The rows must be ``height`` lines of ``width`` tokens, "1" or
    ``_MINUS_ONE``, with one space between tokens and "\\n" after each row:
    tokens at even offsets and separators at odd ones. Anything else returns
    ``None``. The checks are reductions, so the cells are the one array
    made.
    """
    n = width * height
    if len(codes) - start != 2 * n:
        return None
    pairs = np.frombuffer(codes, dtype=np.uint8, count=2 * n, offset=start)
    seps = pairs[1::2].reshape(height, width)
    if width > 1 and not seps[:, :-1].min() == ord(" ") == seps[:, :-1].max():
        return None
    if not seps[:, -1].min() == ord("\n") == seps[:, -1].max():
        return None
    # As int8 the tokens are 49 and -1. The only bytes at least 49 as uint8
    # and between -1 and 49 as int8 are those two, so three bounds check them;
    # np.minimum then makes 49 a +1 cell and leaves -1 a -1 cell.
    cells = pairs[0::2].view(np.int8).copy()
    if cells.min() < -1 or cells.max() > ord("1") or cells.view(np.uint8).min() < ord("1"):
        return None
    return np.minimum(cells, 1, out=cells)


def _read_lines(text: str) -> tuple[Pattern, str]:
    """Parse AMNPAT v1 text line by line, raising the error that names its first fault."""
    lines = text.splitlines()
    if not lines:
        raise PatternFormatError("empty pattern text")
    width, height, label = _read_header(lines[0])
    body = lines[1:]
    found = sum(1 for line in body if line.strip())
    if found != height:
        raise PatternFormatError(f"row count mismatch: header says {height}, found {found} rows")
    rows = body[:height]
    del lines, body
    for r, line in enumerate(rows):  # before allocating, so the text bounds the cell count
        if line.count(" ") + 1 != width:
            raise PatternFormatError(
                f"column count mismatch at row {r}: expected {width} tokens, got {line.count(' ') + 1}"
            )
    # The rows now hold width space-separated fields each, so they are in the
    # written layout exactly when every field is a token. A non-ASCII
    # character becomes "?", which no token is.
    codes = "\n".join([*rows, ""]).encode("ascii", "replace").replace(b"-1", _MINUS_ONE)
    cells = _decode_rows(codes, 0, width, height)
    if cells is None:
        _raise_first_bad_token(rows)
    return Pattern._adopt(width, height, cells), label


def _raise_first_bad_token(rows: list[str]) -> None:
    for r, line in enumerate(rows):
        for token in line.split(" "):
            if token not in ("1", "-1"):
                raise PatternFormatError(f"invalid token {token!r} at row {r} (must be 1 or -1)")
    raise InvariantError("the fixed-stride decoder rejected rows that hold only 1 and -1")


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # O_BINARY: no newline translation on Windows


def _read_file(name: str | Path) -> bytes:
    """The bytes of the file ``name``, whose size is checked against ``errors.MAX_WEIGHT_BYTES`` first.

    Every file the package reads, manifest, glyph or ``ingest`` input, is
    read here. A file of the size ``fstat`` states takes one ``os.read``
    call, with no file object made. Every error is the one ``open`` and
    ``read`` raise.
    """
    fd = os.open(name, _READ_FLAGS)
    try:
        stat = os.fstat(fd)
        if S_ISDIR(stat.st_mode):  # open() names the file in this error; os.read would not
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(name))
        size = stat.st_size
        del stat  # its two dozen field objects would otherwise be held through the read
        _check_budget(str(name), size, "the file's contents")
        data = os.read(fd, size + 1)
        if len(data) > size:  # a file that grew, or a pipe: read on to its end
            with open(fd, "rb", closefd=False) as fh:
                data += fh.read()
        return data
    finally:
        os.close(fd)


def _bmp_pattern(data: bytes, policy: BinarizePolicy) -> Pattern:
    """``pixels_to_pattern(decode_bmp(data), policy)``, with no pixel grid made: the cells come straight from ``data``."""
    width, height, cells = _decode(data, policy._signs)
    return Pattern._adopt(width, height, cells.view(np.int8))


def load_pattern_file(path: str | Path, policy: BinarizePolicy | None = None) -> Pattern:
    """Load one glyph file, sniffing BMP ('BM') vs AMNPAT content.

    BMP files are decoded and binarized with ``policy``; AMNPAT files are
    already bipolar (their embedded label is ignored here). A file larger
    than ``errors.MAX_WEIGHT_BYTES`` raises :class:`MemoryBudgetError` before
    it is read.
    """
    return _load_file(str(Path(path)), policy or _DEFAULT_POLICY)


def _load_file(name: str, policy: BinarizePolicy) -> Pattern:
    """:func:`load_pattern_file` of ``name``, a ``Path``'s string, which its errors name."""
    data = _read_file(name)
    if data.startswith(b"BM"):
        return _bmp_pattern(data, policy)
    if not data.startswith(AMNPAT_MAGIC.encode()):
        raise PatternFormatError(f"{name}: neither a BMP nor an AMNPAT file")
    try:
        text = None if data.isascii() else data.decode("utf-8")  # an ASCII file's str is made only if needed
    except UnicodeDecodeError as exc:
        raise PatternFormatError(f"{name}: AMNPAT text is not UTF-8: {exc}") from None
    # Strict UTF-8 holds no surrogate, so data is the encoding read_pattern_text would make of its text.
    read = _read_written(data)
    if read is None:
        text = text or data.decode("utf-8")
        del data  # the text repeats the file's bytes; keep one copy through the parse
        read = _read_lines(text)
    return read[0]


def _entry_path(directory: str, entry: str) -> str:
    """``str(Path(directory, entry))``, with no ``Path`` made for a plain entry.

    ``directory`` is a ``Path``'s string. ``Path`` keeps a relative POSIX
    entry with no empty or "." component as it is written; any other entry,
    an absolute one included, goes through it.
    """
    bounded = f"/{entry}/"
    if os.sep == "/" and "//" not in bounded and "/./" not in bounded:
        return entry if directory == "." else os.path.join(directory, entry)
    return str(Path(directory, entry))


def load_manifest(path: str | Path, policy: BinarizePolicy | None = None) -> list[LabeledPattern]:
    """Load a ``label,path`` CSV manifest into labeled patterns.

    Relative entry paths resolve against the manifest's directory. BMP
    entries are decoded and binarized with ``policy``; AMNPAT entries are
    read as-is (the manifest label wins over the embedded one). All patterns
    must share one width x height. The manifest and each entry larger than
    ``errors.MAX_WEIGHT_BYTES`` raise :class:`MemoryBudgetError` before they are
    read.
    """
    policy = policy or _DEFAULT_POLICY
    path = Path(path)
    try:
        # One strict decode, split at universal newlines left untranslated, as a
        # text file opened with newline="" splits. No text file object is made:
        # its decoder's name string would linger in CPython's type attribute
        # cache and make a later call's memory depend on where it was allocated.
        reader = csv.reader(io.StringIO(_read_file(path).decode("utf-8"), newline=""))
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

    directory = str(path.parent)
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
        entry_path = _entry_path(directory, entry)  # an absolute entry replaces the manifest's directory
        try:
            pattern = _load_file(entry_path, policy)
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
