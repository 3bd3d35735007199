"""Native BMP decoder for glyph images: binarize the palette, not the pixels.

Supports uncompressed BITMAPINFOHEADER files at bit depths 1, 4, 8 and 24.
One parser, ``_decode(data, lookup)``, checks the headers and makes one byte
per pixel, ``lookup[luma]`` for a 256-byte ``lookup``. :func:`decode_bmp`
passes no table, so each byte is the luma itself, and returns a
:class:`PixelGrid`. The glyph loader in ``patterns`` passes a
``BinarizePolicy``'s table of int8 signs, so its bytes are a pattern's cells.
After the headers are checked, decoding works on whole arrays:

1. The pixel rows are one ``np.frombuffer`` view of shape (rows, padded row
   bytes), reversed for bottom-up files (positive height field), so row 0 is
   always the top row and nothing is copied.
2. Before any per-pixel array is made, width x height x ``_BYTES_PER_PIXEL``
   is checked against ``errors.MAX_WEIGHT_BYTES``.
3. 24-bit rows go to integer luma over their B, G, R bytes, then through
   ``lookup``.
4. A paletted file's lumas, at most 256, go through ``lookup`` first. Its
   rows are split into colour-table indices: ``np.unpackbits`` for 1-bit
   (most significant bit first), a high/low nibble split for 4-bit and a
   plain slice for 8-bit. Each cuts the row padding off at ``width``, so pad
   bits never reach the palette check.
5. An index past a short colour table is reported at its first top-down
   (row, column). The rest become their bytes in one ``bytes.translate``
   through the looked-up palette, so no pixel of a paletted file is ever a
   luma.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    BmpBitDepthError,
    BmpCompressionError,
    BmpHeaderError,
    BmpPaletteError,
    BmpTruncatedError,
    _check_budget,
    _check_int,
)

__all__ = ["PixelGrid", "decode_bmp"]

_FILE_HEADER = struct.Struct("<2sIHHI")
_SUPPORTED_DEPTHS = (1, 4, 8, 24)


@dataclass(frozen=True, eq=False)
class _Grid:
    """A ``width`` x ``height`` grid held as one row-major 1-D array, top row first.

    The input rule of :class:`PixelGrid`, ``Pattern`` and ``ActivationVector``:
    both dimensions are integers >= 1, not bool, and the array is 1-D with
    ``width * height`` entries, each a bool, integer or float that the class's
    integer dtype holds exactly. Strings, complex numbers, Python objects, 1.5,
    NaN, 256 for uint8 and 2**63 for int64 raise ``ValueError``. The array is
    stored as a fresh read-only copy in that dtype. Grids are unhashable, and
    equal when type, geometry and entries are.
    """

    width: int
    height: int

    _size_error: ClassVar[str]  # formatted with n, width, height and size
    _value_error: ClassVar[str]

    @property
    def n(self) -> int:
        return self.width * self.height

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        array = self.__match_args__[-1]  # the one field a subclass adds
        return (self.width, self.height) == (other.width, other.height) and np.array_equal(
            getattr(self, array), getattr(other, array)
        )

    @classmethod
    def _check_geometry(cls, width: int, height: int, array: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``array`` is one row-major vector for a ``width`` x ``height`` grid."""
        _check_int("width", width, 1)
        _check_int("height", height, 1)
        if array.ndim != 1 or array.size != width * height:
            raise ValueError(cls._size_error.format(n=width * height, width=width, height=height, size=array.size))

    def _freeze(self, field: str, dtype: type, rule=None) -> None:
        """Check ``field`` by the input rule, and ``rule(array)`` if given, then store it frozen as ``dtype``."""
        raw = np.asarray(getattr(self, field))
        self._check_geometry(self.width, self.height, raw)
        if raw.dtype.kind not in "biuf" or (rule is not None and not rule(raw)):
            raise ValueError(self._value_error)
        if raw.dtype == dtype:
            frozen = raw.copy()
        else:
            bounds = np.iinfo(dtype)
            low, high = np.float64(bounds.min), np.float64(bounds.max + 1)
            # Outside [low, high), NaN included, a float casts to a platform-defined value.
            if raw.dtype.kind == "f" and not np.all((raw >= low) & (raw < high)):
                raise ValueError(self._value_error)
            frozen = raw.astype(dtype)
            if not np.array_equal(frozen, raw):  # a fraction, or an integer the cast wrapped
                raise ValueError(self._value_error)
        frozen.setflags(write=False)
        object.__setattr__(self, field, frozen)

    @classmethod
    def _adopt(cls, width: int, height: int, array: np.ndarray):
        """The grid that takes ``array``, fresh and valid for ``cls`` by construction, as it is: no scan, no copy."""
        array.setflags(write=False)
        grid = object.__new__(cls)  # skips __post_init__
        # Set as the frozen dataclass sets its fields; reading __dict__ would give each grid its own dict.
        object.__setattr__(grid, "width", width)
        object.__setattr__(grid, "height", height)
        object.__setattr__(grid, cls.__match_args__[-1], array)
        return grid


@dataclass(frozen=True, eq=False)
class PixelGrid(_Grid):
    """Row-major grid of 8-bit intensities, top row first.

    ``values`` holds one per pixel, integers in [0, 255], stored as uint8 by :class:`_Grid`'s input rule.
    """

    values: np.ndarray

    _size_error = "expected {n} values for a {width}x{height} grid, got {size}"
    _value_error = "pixel intensities must be integers in [0, 255]"

    def __post_init__(self):
        self._freeze("values", np.uint8)


# B, G, R weights of the integer luma. The int32 accumulator is spelled out:
# under NumPy 1.x promotion a uint8 array times an int32 scalar is computed in
# uint16, where 299 * 255 wraps.
_LUMA_WEIGHTS = np.array([114, 587, 299], dtype=np.int32)


def _luma(bgr: np.ndarray) -> np.ndarray:
    """Integer luma of the (..., 3) B, G, R bytes, half rounding up, as int32 values in [0, 255].

    Integer arithmetic keeps decoding bit-exact across platforms.
    """
    # einsum casts the bytes to int32 in small buffers, where matmul would
    # copy a 24-bit file's pixels whole (12 bytes a pixel); on a palette's at
    # most 256 entries matmul is the faster.
    if bgr.ndim == 2:
        acc = np.matmul(bgr, _LUMA_WEIGHTS, dtype=np.int32)
    else:
        acc = np.einsum("...k,k->...", bgr, _LUMA_WEIGHTS, dtype=np.int32)
    acc += 500
    acc //= 1000
    return acc


# The 4-bit nibble split's operands, typed: a Python int costs each ufunc call
# a dtype resolution.
_FOUR, _LOW_NIBBLE = np.uint8(4), np.uint8(0x0F)

# The most bytes decoding holds per pixel beyond the file's own: a 24-bit
# file's int32 luma and its looked-up byte; a paletted file holds at most
# three (its indices, their bytes and the looked-up bytes).
_BYTES_PER_PIXEL = 5


def decode_bmp(data: bytes) -> PixelGrid:
    """Decode a BMP file's bytes to a top-down :class:`PixelGrid`.

    Raises a distinct :class:`~amnocr.errors.BmpError` subclass for each
    failure mode: malformed header, unsupported compression, unsupported bit
    depth, palette index out of range, truncated palette or pixel data. A
    file whose pixels would take more than ``errors.MAX_WEIGHT_BYTES`` to
    decode raises :class:`~amnocr.errors.MemoryBudgetError` before they are.
    """
    width, height, values = _decode(data, None)
    return PixelGrid._adopt(width, height, values)


def _decode(data: bytes, lookup: bytes | None) -> tuple[int, int, np.ndarray]:
    """The width and height of the BMP ``data`` and one byte per pixel, row-major, top row first.

    Each pixel's byte is ``lookup[luma]`` for a 256-byte ``lookup``, such as
    a ``BinarizePolicy``'s table of int8 cells, or the luma itself when
    ``lookup`` is ``None``. A paletted file looks up its palette's at most
    256 lumas, then its pixels' indices through the result; a 24-bit file
    looks up each pixel's luma. The bytes are a fresh uint8 array.
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

    palette = b""
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
        bgrx = np.frombuffer(data, np.uint8, 4 * entries, palette_start).reshape(entries, 4)
        palette = _luma(bgrx[:, :3]).astype(np.uint8).tobytes().translate(lookup)

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
    # After the truncation check, so that a header's claim alone never raises it.
    _check_budget(f"a {width}x{n_rows} BMP", _BYTES_PER_PIXEL * width * n_rows, "its decoded pixels")

    rows = np.frombuffer(data, np.uint8, row_stride * n_rows, data_offset).reshape(n_rows, row_stride)
    if not top_down:
        rows = rows[::-1]
    if depth == 24:
        lumas = _luma(rows[:, : 3 * width].reshape(n_rows, width, 3)).reshape(-1).astype(np.uint8)  # owns its bytes
        return width, n_rows, lumas if lookup is None else np.frombuffer(lumas.tobytes().translate(lookup), np.uint8)
    if depth == 8:
        indices = rows[:, :width]
    elif depth == 4:
        packed = rows[:, : (width + 1) // 2]
        nibbles = np.empty((n_rows, 2 * packed.shape[1]), dtype=np.uint8)
        np.right_shift(packed, _FOUR, out=nibbles[:, 0::2])
        np.bitwise_and(packed, _LOW_NIBBLE, out=nibbles[:, 1::2])
        indices = nibbles[:, :width]
    else:  # depth == 1, most significant bit first
        indices = np.unpackbits(rows, axis=1, count=width)
    if len(palette) < (1 << depth) and indices.max() >= len(palette):
        row, col = divmod(int(np.argmax(indices >= len(palette))), width)  # first in top-down order
        raise BmpPaletteError(
            f"palette index {indices[row, col]} out of range ({len(palette)} entries) "
            f"at row {row}, column {col}"
        )
    return width, n_rows, np.frombuffer(indices.tobytes().translate(palette.ljust(256, b"\0")), np.uint8)
