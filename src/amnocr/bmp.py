"""Native BMP decoder for glyph images.

Supports uncompressed BITMAPINFOHEADER files at bit depths 1, 4, 8 and 24.
Paletted pixels are resolved through the colour table and then to a single
intensity with integer luma; 24-bit pixels go straight to luma. Rows are
de-padded (BMP pads each row to a 4-byte boundary) and bottom-up files
(positive height field) are flipped so the returned grid is always in
top-to-bottom row order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BmpBitDepthError,
    BmpCompressionError,
    BmpHeaderError,
    BmpPaletteError,
    BmpTruncatedError,
)

__all__ = ["PixelGrid", "decode_bmp"]

_FILE_HEADER = struct.Struct("<2sIHHI")
_SUPPORTED_DEPTHS = (1, 4, 8, 24)


@dataclass(frozen=True, eq=False)
class PixelGrid:
    """Row-major grid of 8-bit intensities, top row first.

    ``values`` has one entry per pixel, each in [0, 255], and
    ``len(values) == width * height``.
    """

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {self.width}x{self.height}")
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 1 or values.size != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} values for a "
                f"{self.width}x{self.height} grid, got {values.size}"
            )
        if values.size and (values.min() < 0 or values.max() > 255):
            raise ValueError("pixel intensities must lie in [0, 255]")
        values = values.astype(np.uint8)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.width * self.height

    def __eq__(self, other):
        if not isinstance(other, PixelGrid):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.values, other.values)
        )


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
