"""Brute-force reference implementations used to cross-check the library.

The kernel references are deliberately plain Python over lists of ints:
explicit double/triple loops, no numpy, no shared code with the package under
test. These were written first, against the update and recall rules
themselves, and the frozen expected values in the test modules were computed
with them.

The format references (``decode_bmp``, ``write_pattern_text`` and
``read_pattern_text``) are the package's original per-pixel and per-token
loops, kept verbatim when the package moved to whole-array codecs. They build
the package's own result types (``PixelGrid``, ``Pattern``) and raise its own
error classes with the same messages, so the fuzz tests can require the
package to return equal results or raise the same error as these for every
input.

The sweep reference (``noise_sweep``) is the package's original sweep, kept
verbatim when the package moved to ranking noisy keys with ``recognize``: it
runs the timed dense benchmark for every key and keeps only the outcomes.
"""

import statistics
import struct
from fractions import Fraction

import numpy as np

from amnocr.bench import SweepPoint, run_benchmark
from amnocr.bmp import PixelGrid
from amnocr.errors import (
    BmpBitDepthError,
    BmpCompressionError,
    BmpHeaderError,
    BmpPaletteError,
    BmpTruncatedError,
    PatternFormatError,
)
from amnocr.patterns import LabeledPattern, Pattern, flip_noise


def zero_matrix(n):
    return [[0] * n for _ in range(n)]


def train_pair(w, input_cells, target_cells):
    """Hebbian outer-product update, one cell at a time."""
    n = len(input_cells)
    out = [row[:] for row in w]
    for i in range(n):
        for j in range(n):
            out[i][j] = out[i][j] + input_cells[i] * target_cells[j]
    return out


def store(pattern_list):
    """Fold auto-associative updates over the list, starting from zero."""
    n = len(pattern_list[0])
    w = zero_matrix(n)
    for cells in pattern_list:
        w = train_pair(w, cells, cells)
    return w


def net_input(w, key_cells):
    """a_j = sum_i key_i * w[i][j], exact integer sums."""
    n = len(key_cells)
    out = []
    for j in range(n):
        total = 0
        for i in range(n):
            total += key_cells[i] * w[i][j]
        out.append(total)
    return out


def threshold(activations):
    """+1 on strictly positive net input, else -1 (zero falls to -1)."""
    return [1 if a > 0 else -1 for a in activations]


def recall(w, key_cells):
    return threshold(net_input(w, key_cells))


def match_pct(a_cells, b_cells):
    """Agreement percentage as an exact rational."""
    assert len(a_cells) == len(b_cells)
    agree = sum(1 for x, y in zip(a_cells, b_cells) if x == y)
    return Fraction(100 * agree, len(a_cells))


def hamming(a_cells, b_cells):
    assert len(a_cells) == len(b_cells)
    return sum(1 for x, y in zip(a_cells, b_cells) if x != y)


# --- format references: the original loops ---

_FILE_HEADER = struct.Struct("<2sIHHI")
_SUPPORTED_DEPTHS = (1, 4, 8, 24)
AMNPAT_MAGIC = "AMNPAT"
AMNPAT_VERSION = "1"


def _luma(r: int, g: int, b: int) -> int:
    # Integer luma, half rounds up; keeps decoding bit-exact across platforms.
    return (299 * r + 587 * g + 114 * b + 500) // 1000


def decode_bmp(data: bytes) -> PixelGrid:
    """Decode a BMP file's bytes to a top-down :class:`PixelGrid`.

    Raises a distinct :class:`~amnocr.errors.BmpError` subclass for each
    failure mode: malformed header, unsupported compression, unsupported bit
    depth, palette index out of range, truncated palette or pixel data.
    """
    if len(data) < _FILE_HEADER.size:
        raise BmpHeaderError(f"file too short for a BMP header ({len(data)} bytes)")
    magic, _file_size, _r1, _r2, data_offset = _FILE_HEADER.unpack_from(data, 0)
    if magic != b"BM":
        raise BmpHeaderError(f"missing 'BM' magic, got {magic!r}")

    if len(data) < 14 + 4:
        raise BmpHeaderError("file ends inside the DIB header size field")
    (header_size,) = struct.unpack_from("<I", data, 14)
    if header_size < 40:
        raise BmpHeaderError(f"unsupported DIB header size {header_size} (need BITMAPINFOHEADER or later)")
    if len(data) < 14 + header_size:
        raise BmpHeaderError("file ends inside the DIB header")

    width, height, planes, depth, compression, _img_size = struct.unpack_from(
        "<iiHHII", data, 18
    )
    (colors_used,) = struct.unpack_from("<I", data, 46)

    if width < 1:
        raise BmpHeaderError(f"invalid width {width}")
    if height == 0:
        raise BmpHeaderError("invalid height 0")
    if planes != 1:
        raise BmpHeaderError(f"invalid plane count {planes}")
    if compression != 0:
        raise BmpCompressionError(f"unsupported compression type {compression} (only uncompressed BI_RGB)")
    if depth not in _SUPPORTED_DEPTHS:
        raise BmpBitDepthError(f"unsupported bit depth {depth} (supported: 1, 4, 8, 24)")

    palette: list[int] | None = None
    palette_start = palette_end = 14 + header_size
    if depth <= 8:
        entries = colors_used if colors_used else 1 << depth
        if entries > (1 << depth):
            raise BmpHeaderError(
                f"palette declares {entries} entries, more than a {depth}-bit file can address"
            )
        palette_end = palette_start + 4 * entries
        if palette_end > len(data):
            raise BmpTruncatedError(
                f"palette truncated: needs {4 * entries} bytes, file has {len(data) - palette_start}"
            )
        palette = []
        for k in range(entries):
            b, g, r, _ = data[palette_start + 4 * k : palette_start + 4 * k + 4]
            palette.append(_luma(r, g, b))

    if data_offset < palette_end:
        raise BmpHeaderError(
            f"pixel data offset {data_offset} points inside the headers and palette, which end at {palette_end}"
        )

    top_down = height < 0
    n_rows = -height if top_down else height
    row_stride = ((width * depth + 31) // 32) * 4
    pixel_end = data_offset + row_stride * n_rows
    if pixel_end > len(data):
        raise BmpTruncatedError(
            f"pixel data truncated: needs {row_stride * n_rows} bytes "
            f"at offset {data_offset}, file has {max(0, len(data) - data_offset)}"
        )

    values = np.empty(width * n_rows, dtype=np.uint8)
    for out_row in range(n_rows):
        src_row = out_row if top_down else n_rows - 1 - out_row
        row = data[data_offset + src_row * row_stride :][:row_stride]
        base = out_row * width
        if depth == 24:
            for col in range(width):
                b, g, r = row[3 * col : 3 * col + 3]
                values[base + col] = _luma(r, g, b)
        else:
            for col in range(width):
                if depth == 8:
                    index = row[col]
                elif depth == 4:
                    byte = row[col // 2]
                    index = (byte >> 4) if col % 2 == 0 else (byte & 0x0F)
                else:  # depth == 1, most significant bit first
                    index = (row[col // 8] >> (7 - col % 8)) & 1
                if index >= len(palette):
                    raise BmpPaletteError(
                        f"palette index {index} out of range ({len(palette)} entries) "
                        f"at row {out_row}, column {col}"
                    )
                values[base + col] = palette[index]

    return PixelGrid(width=width, height=n_rows, values=values)


def write_pattern_text(pattern: Pattern, label: str) -> str:
    """Serialize to AMNPAT v1 text.

    Line 1 is ``AMNPAT 1 <width> <height> <label>``, followed by one line per
    pattern row of space-separated ``1``/``-1`` tokens. Newline-terminated,
    no trailing spaces.
    """
    if not label:
        raise ValueError("label must be nonempty")
    if label.splitlines() != [label]:  # any line boundary read_pattern_text would split at
        raise ValueError("label must not contain newlines")
    lines = [f"{AMNPAT_MAGIC} {AMNPAT_VERSION} {pattern.width} {pattern.height} {label}"]
    for row in pattern.rows():
        lines.append(" ".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


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
    if sum(1 for line in body if line.strip()) != height:
        raise PatternFormatError(
            f"row count mismatch: header says {height}, "
            f"found {sum(1 for line in body if line.strip())} rows"
        )
    rows = body[:height]
    for r, line in enumerate(rows):  # before allocating, so the text bounds the cell count
        if line.count(" ") + 1 != width:
            raise PatternFormatError(
                f"column count mismatch at row {r}: expected {width} tokens, got {line.count(' ') + 1}"
            )
    cells = np.empty(width * height, dtype=np.int8)
    for r, line in enumerate(rows):
        for c, token in enumerate(line.split(" ")):
            if token == "1":
                cells[r * width + c] = 1
            elif token == "-1":
                cells[r * width + c] = -1
            else:
                raise PatternFormatError(f"invalid token {token!r} at row {r} (must be 1 or -1)")
    return Pattern(width=width, height=height, cells=cells), label


# --- sweep reference: the original per-key timed sweep ---


def noise_sweep(model, rates, seed, plan=None, runs=1):
    """Recognition quality vs synthetic flip noise on the stored alphabet.

    For each rate, every stored pattern is corrupted with
    ``flip_noise(pattern, rate, seed + index)`` and used as a key against the
    model it came from; the point reports mean top-1 accuracy and the mean
    best-match percentage over those keys.
    """
    if not rates:
        raise ValueError("rates must be nonempty")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must lie in [0, 1], got {rate}")
    points: list[SweepPoint] = []
    for rate in rates:
        keys = [
            LabeledPattern(e.label, flip_noise(e.pattern, rate, seed + i))
            for i, e in enumerate(model.entries)
        ]
        rows = run_benchmark(model, keys, plan, runs)
        points.append(
            SweepPoint(
                rate=rate,
                top1_accuracy=sum(r.correct for r in rows) / len(rows),
                mean_best_match_pct=statistics.fmean(r.match_pct for r in rows),
            )
        )
    return points
