"""Property tests: the decoders turn any input into a result or a typed error.

``decode_bmp``, ``read_pattern_text`` and ``load_manifest`` are fed arbitrary
bytes and text, and inputs built near their formats so that the deeper checks
are reached. Each must return a valid result or raise its own
:class:`~amnocr.errors.AmnError` subclass, never ``struct.error``,
``IndexError``, ``MemoryError`` or any other exception. The runs are
derandomized, so a failure reproduces on every run.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnocr import (
    BmpError,
    ManifestError,
    PatternFormatError,
    decode_bmp,
    load_manifest,
    read_pattern_text,
    write_pattern_text,
)
from bmpbytes import glyph_index_rows, make_bmp
from helpers import random_pattern

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

# Integers a header field may hold: small ones that pass or fail the checks,
# and the extremes of the field's type.
SIGNED = st.one_of(st.integers(-4, 40), st.sampled_from([2**31 - 1, -(2**31), 65536]))
UNSIGNED = st.one_of(st.integers(0, 300), st.sampled_from([2**32 - 1, 2**31, 65536]))


@st.composite
def bmp_headers(draw):
    """A file and DIB header with arbitrary fields, followed by arbitrary bytes."""
    depth = draw(st.sampled_from([0, 1, 2, 4, 8, 16, 24, 32]))
    header_size = draw(st.sampled_from([40, 40, 40, 12, 39, 108, 2**32 - 1]))
    palette_end = 14 + 40 + (4 << depth if depth <= 8 else 0)
    offset = draw(st.one_of(st.integers(palette_end - 4, palette_end + 8), UNSIGNED))
    fields = (
        header_size,
        draw(SIGNED),  # width
        draw(SIGNED),  # height
        draw(st.sampled_from([1, 1, 1, 0, 2])),  # planes
        depth,
        draw(st.sampled_from([0, 0, 0, 1, 3])),  # compression
        draw(UNSIGNED),  # image size
        0,
        0,
        draw(st.one_of(st.just(0), UNSIGNED)),  # colours used
        0,
    )
    head = struct.pack("<2sIHHI", b"BM", draw(UNSIGNED), 0, 0, offset) + struct.pack("<IiiHHIIiiII", *fields)
    return head + draw(st.binary(max_size=1200))


@st.composite
def mutated_bmps(draw):
    """A valid BMP with some bytes overwritten, then possibly truncated."""
    depth = draw(st.sampled_from([1, 4, 8, 24]))
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    pixel = st.integers(0, (1 << min(depth, 8)) - 1)
    rows = draw(st.lists(st.lists(pixel, min_size=width, max_size=width), min_size=height, max_size=height))
    if depth == 24:
        rows = [[(v, v, v) for v in row] for row in rows]
    blob = bytearray(make_bmp(rows, depth, bottom_up=draw(st.booleans())))
    for _ in range(draw(st.integers(0, 6))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob[: draw(st.integers(0, len(blob)))])


def _check_bmp(data):
    try:
        grid = decode_bmp(data)
    except BmpError:
        return
    assert grid.values.size == grid.width * grid.height


@FUZZ
@given(st.binary(max_size=300))
def test_decode_bmp_arbitrary_bytes(data):
    _check_bmp(data)


@FUZZ
@given(bmp_headers())
def test_decode_bmp_arbitrary_headers(data):
    _check_bmp(data)


@FUZZ
@given(mutated_bmps())
def test_decode_bmp_mutated_files(data):
    _check_bmp(data)


# --- AMNPAT text ---

TOKENS = st.sampled_from(["1", "-1", "1", "-1", "0", "", "+1", "x", "1 ", "\t1"])
DIMENSIONS = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([10**12, 10**30, 2**63, "1_0", "٣", "0x4", "", " 4"]),
)


@st.composite
def amnpat_texts(draw):
    """An AMNPAT-like header followed by rows of tokens."""
    magic = draw(st.sampled_from(["AMNPAT", "AMNPAT", "AMNPAT", "amnpat", "AMNPAT2"]))
    version = draw(st.sampled_from(["1", "1", "1", "2", ""]))
    rows = draw(st.lists(st.lists(TOKENS, max_size=7).map(" ".join), max_size=7))
    width, height = draw(DIMENSIONS), draw(st.one_of(DIMENSIONS, st.just(len(rows))))
    label = draw(st.text(max_size=5))
    newline = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\r"]))
    return newline.join([f"{magic} {version} {width} {height} {label}", *rows]) + draw(st.sampled_from(["", "\n"]))


def _check_pattern_text(text):
    try:
        pattern, label = read_pattern_text(text)
    except PatternFormatError:
        return
    assert label
    assert pattern.cells.size == pattern.width * pattern.height


@FUZZ
@given(st.text(max_size=300))
def test_read_pattern_text_arbitrary_text(text):
    _check_pattern_text(text)


@FUZZ
@given(amnpat_texts())
def test_read_pattern_text_near_format(text):
    _check_pattern_text(text)


@FUZZ
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1), st.text(min_size=1, max_size=8))
def test_pattern_text_round_trips(width, height, seed, label):
    pattern = random_pattern(np.random.default_rng(seed), width * height, width=width, height=height)
    if label.splitlines() != [label]:  # would not stay on the header line
        with pytest.raises(ValueError, match="line"):
            write_pattern_text(pattern, label)
        return
    assert read_pattern_text(write_pattern_text(pattern, label)) == (pattern, label)


# --- manifests ---


@pytest.fixture(scope="module")
def entry_dir():
    """Files a manifest entry may name: good, mismatched, corrupt and unreadable ones."""
    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)
        rng = np.random.default_rng(5)
        for name, (w, h) in {"a": (3, 2), "b": (3, 2), "tall": (2, 3)}.items():
            (root / f"{name}.amnpat").write_text(write_pattern_text(random_pattern(rng, w * h, w, h), name))
        (root / "g.bmp").write_bytes(make_bmp(glyph_index_rows(3, 2, seed=1), depth=4))
        (root / "cut.bmp").write_bytes(make_bmp(glyph_index_rows(3, 2, seed=1), depth=4, truncate=3))
        (root / "bad.amnpat").write_text("AMNPAT 1 3 2 bad\n1 1\n")
        (root / "latin.amnpat").write_bytes(b"AMNPAT 1 1 1 \xe9t\xe9\n1\n")
        (root / "junk.txt").write_bytes(b"\x00\x01junk")
        (root / "empty.amnpat").write_bytes(b"")
        (root / "sub").mkdir()
        yield root


# Entry paths: the files above, missing or odd names, and arbitrary text that
# stays inside the directory (no separators, so no file elsewhere is read).
ENTRY_PATHS = st.one_of(
    st.sampled_from(
        ["a.amnpat", "b.amnpat", "tall.amnpat", "g.bmp", "cut.bmp", "bad.amnpat", "latin.amnpat",
         "junk.txt", "empty.amnpat", "sub", "missing.amnpat", "", ".", "x\x00y", "a" * 300]
    ),
    st.text(st.characters(blacklist_characters="/\\"), max_size=12),
)
FIELD = st.one_of(st.text(max_size=6), st.sampled_from(["a", "b", "A", '"q,x"', '"', "label", "path"]))


@st.composite
def manifest_texts(draw):
    """A manifest-like CSV: an optional right header, then label/path rows."""
    header = draw(st.sampled_from(["label,path", "label,path", "label,path", "path,label", "label", ""]))
    rows = draw(
        st.lists(
            st.one_of(
                st.tuples(FIELD, ENTRY_PATHS).map(",".join),
                st.lists(FIELD, max_size=4).map(",".join),
            ),
            max_size=6,
        )
    )
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header, *rows]) + newline


def _check_manifest(root, data: bytes):
    path = root / "store.csv"
    path.write_bytes(data)
    try:
        entries = load_manifest(path)
    except (ManifestError, BmpError, PatternFormatError):
        return
    assert entries
    assert len({e.label for e in entries}) == len(entries)
    assert len({(e.pattern.width, e.pattern.height) for e in entries}) == 1


@FUZZ
@given(st.binary(max_size=200))
def test_load_manifest_arbitrary_bytes(entry_dir, data):
    _check_manifest(entry_dir, b"label,path\n" + data)
    _check_manifest(entry_dir, data)


@FUZZ
@given(manifest_texts())
def test_load_manifest_near_format(entry_dir, text):
    _check_manifest(entry_dir, text.encode("utf-8", "surrogatepass"))
