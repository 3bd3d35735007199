"""Decoder tests over hand-constructed fixture bytes (see tests/bmpbytes.py)."""

import struct
import warnings

import numpy as np
import pytest

import amnocr.errors
from amnocr import (
    BmpBitDepthError,
    BmpCompressionError,
    BmpHeaderError,
    BmpPaletteError,
    BmpTruncatedError,
    MemoryBudgetError,
    PixelGrid,
    decode_bmp,
    load_pattern_file,
)
from amnocr.bmp import _BYTES_PER_PIXEL
from bmpbytes import glyph_index_rows, grayscale_palette, make_bmp
from helpers import peak_bytes


def test_glyph_geometry_4bit():
    rows = glyph_index_rows(31, 39, seed=1)
    grid = decode_bmp(make_bmp(rows, depth=4))
    assert (grid.width, grid.height) == (31, 39)
    assert grid.values.size == 1209


def test_white_identity_24bit():
    grid = decode_bmp(make_bmp([[(255, 255, 255)]], depth=24))
    assert (grid.width, grid.height) == (1, 1)
    assert grid.values.tolist() == [255]


def test_8bit_grayscale_palette_2x2():
    # Checkerboard indices through the identity grayscale palette.
    grid = decode_bmp(make_bmp([[0, 255], [255, 0]], depth=8))
    assert grid.values.tolist() == [0, 255, 255, 0]


def test_rows_come_out_top_down():
    rows = [[0, 0, 0], [255, 255, 255]]  # black row above white row
    grid = decode_bmp(make_bmp(rows, depth=8))
    assert grid.values.tolist() == [0, 0, 0, 255, 255, 255]


@pytest.mark.parametrize("depth", [1, 4, 8, 24])
def test_bottom_up_equals_top_down(depth):
    if depth == 24:
        rng = np.random.default_rng(depth)
        rows = [
            [tuple(int(v) for v in rng.integers(0, 256, 3)) for _ in range(5)] for _ in range(4)
        ]
    else:
        rng = np.random.default_rng(depth)
        rows = rng.integers(0, 1 << depth, size=(4, 5)).tolist()
    up = decode_bmp(make_bmp(rows, depth, bottom_up=True))
    down = decode_bmp(make_bmp(rows, depth, bottom_up=False))
    assert up == down


def test_1bit_packing_msb_first():
    rows = [[1, 0, 1, 1, 0, 0, 1, 0, 1]]  # 9 pixels: crosses a byte boundary
    grid = decode_bmp(make_bmp(rows, depth=1))
    assert grid.values.tolist() == [255, 0, 255, 255, 0, 0, 255, 0, 255]


def test_4bit_odd_width_ignores_pad_nibble():
    rows = [[15, 0, 15], [0, 15, 0]]
    grid = decode_bmp(make_bmp(rows, depth=4))
    assert grid.values.tolist() == [255, 0, 255, 0, 255, 0]


def test_24bit_luma_weights():
    # Pure channels pin the 299/587/114 integer weighting (half rounds up).
    # Red also pins the accumulator's width: 299 * 255 does not fit in uint16.
    grid = decode_bmp(make_bmp([[(255, 0, 0), (0, 255, 0), (0, 0, 255)]], depth=24))
    assert grid.values.tolist() == [76, 150, 29]


def test_1bit_pad_bits_past_a_short_palette_decode():
    # One palette entry, so a set pad bit would be index 1, out of range.
    data = bytearray(make_bmp([[0, 0, 0]], depth=1, palette=[(255, 255, 255)], colors_used=1))
    start = 14 + 40 + 4
    data[start] |= 0x1F  # the five bits after the three pixels
    data[start + 1 : start + 4] = b"\xff\xff\xff"  # the row's pad bytes
    assert decode_bmp(bytes(data)).values.tolist() == [255, 255, 255]


def test_4bit_pad_nibble_past_a_short_palette_decodes():
    data = bytearray(make_bmp([[1, 2, 3]], depth=4, palette=grayscale_palette(4)[:8], colors_used=8))
    start = 14 + 40 + 4 * 8
    assert data[start + 1] == 0x30
    data[start + 1] |= 0x0F  # pad nibble 15, past the 8 palette entries
    data[start + 2 : start + 4] = b"\xff\xff"
    assert decode_bmp(bytes(data)).values.tolist() == [17, 34, 51]


def test_palette_error_names_first_top_down_pixel_in_both_row_orders():
    # Stored bottom-up, the index-12 row comes first in the file; the top-down first bad pixel is the 9.
    rows = [[0, 1, 2], [3, 9, 4], [12, 0, 0]]
    for bottom_up in (True, False):
        blob = make_bmp(rows, depth=4, bottom_up=bottom_up, palette=grayscale_palette(4)[:8], colors_used=8)
        with pytest.raises(BmpPaletteError, match=r"palette index 9 out of range \(8 entries\) at row 1, column 1$"):
            decode_bmp(blob)


def test_palette_respected_not_just_indices():
    palette = [(0, 0, 0)] * 16
    palette[3] = (255, 255, 255)
    grid = decode_bmp(make_bmp([[3, 0]], depth=4, palette=palette))
    assert grid.values.tolist() == [255, 0]


def test_row_padding_dropped():
    # Width 2 at 8 bpp leaves 2 pad bytes per row; values must be unaffected.
    grid = decode_bmp(make_bmp([[7, 9], [11, 13]], depth=8))
    assert grid.values.tolist() == [7, 9, 11, 13]


def test_colors_used_header_field():
    grid = decode_bmp(make_bmp([[3, 1]], depth=4, palette=grayscale_palette(4)[:8], colors_used=8))
    assert grid.values.tolist() == [51, 17]


def test_bad_magic():
    data = bytearray(make_bmp([[0]], depth=8))
    data[:2] = b"XX"
    with pytest.raises(BmpHeaderError, match="magic"):
        decode_bmp(bytes(data))


def test_short_file_is_header_error():
    with pytest.raises(BmpHeaderError):
        decode_bmp(b"BM\x00")


def test_unsupported_compression():
    data = bytearray(make_bmp([[0]], depth=8))
    data[30] = 1  # BI_RLE8
    with pytest.raises(BmpCompressionError, match="compression"):
        decode_bmp(bytes(data))


def test_unsupported_bit_depth():
    data = bytearray(make_bmp([[(1, 2, 3)]], depth=24))
    data[28] = 16
    with pytest.raises(BmpBitDepthError, match="bit depth"):
        decode_bmp(bytes(data))


def test_palette_index_out_of_range():
    blob = make_bmp([[12, 1]], depth=4, palette=grayscale_palette(4)[:8], colors_used=8)
    with pytest.raises(BmpPaletteError, match="palette index 12"):
        decode_bmp(blob)


def test_truncated_pixel_data():
    blob = make_bmp(glyph_index_rows(8, 8, seed=2), depth=4, truncate=5)
    with pytest.raises(BmpTruncatedError, match="pixel data"):
        decode_bmp(blob)


def test_oversized_palette_declaration():
    blob = make_bmp([[0]], depth=4, colors_used=300)
    with pytest.raises(BmpHeaderError, match="palette"):
        decode_bmp(blob)


def test_pixel_offset_inside_headers_is_header_error():
    # With offset 0 the 4x2 1-bit file would decode its own header bytes as pixels.
    data = bytearray(make_bmp([[0, 1, 0, 1], [1, 0, 1, 0]], depth=1))
    assert decode_bmp(bytes(data)).values.tolist() == [0, 255, 0, 255, 255, 0, 255, 0]
    for offset in (0, 14 + 40, 14 + 40 + 7):  # header start, palette start, inside the palette
        data[10:14] = offset.to_bytes(4, "little")
        with pytest.raises(BmpHeaderError, match="offset"):
            decode_bmp(bytes(data))


def test_pixel_grid_validation():
    with pytest.raises(ValueError):
        PixelGrid(2, 2, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        PixelGrid(1, 1, [300])  # out of range
    with pytest.raises(ValueError):
        PixelGrid(0, 1, [])  # no width
    # A cast to uint8 would store 1, 0 (with a ComplexWarning), 7, 255, 0 and 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1.5, 1j, "7", -1, 256.0, np.nan):
            with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
                PixelGrid(1, 1, [value])


def test_pixel_grid_stores_a_read_only_copy():
    source = np.array([0, 255], dtype=np.uint8)
    grid = PixelGrid(2, 1, source)
    assert not np.shares_memory(grid.values, source) and not grid.values.flags.writeable
    assert grid == PixelGrid(2, 1, [0, 255]) and grid.values.dtype == np.uint8


def test_decoding_is_checked_against_the_budget_before_the_pixels_are(tmp_path, monkeypatch):
    # A 64x64 1-bit file is 574 bytes, far below what decoding it holds.
    data = make_bmp(np.random.default_rng(3).integers(0, 2, (64, 64)).tolist(), depth=1)
    path = tmp_path / "g.bmp"
    path.write_bytes(data)
    need = _BYTES_PER_PIXEL * 64 * 64
    monkeypatch.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", need - 1)
    message = f"^a 64x64 BMP needs {need} bytes for its decoded pixels, over the budget of {need - 1} bytes"
    for decode in (lambda: decode_bmp(data), lambda: load_pattern_file(path)):
        with pytest.raises(MemoryBudgetError, match=message):
            decode()

    def rejected():
        with pytest.raises(MemoryBudgetError):
            decode_bmp(data)

    assert peak_bytes(rejected) < 64 * 64  # less than one byte a pixel was allocated
    monkeypatch.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", need)
    assert decode_bmp(data).values.size == load_pattern_file(path).n == 64 * 64


def test_a_header_claim_alone_stays_a_truncation_error(monkeypatch):
    # The budget check follows the truncation check: a file whose header claims
    # 4000x4000 pixels and holds none fails as it did before the check existed.
    data = bytearray(make_bmp([[0]], depth=1)[: 14 + 40 + 8])  # headers and palette only
    data[18:26] = struct.pack("<ii", 4000, 4000)
    monkeypatch.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", 0)
    with pytest.raises(BmpTruncatedError, match="pixel data truncated: needs 2000000 bytes"):
        decode_bmp(bytes(data))
