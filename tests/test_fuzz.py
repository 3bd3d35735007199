"""Property tests: the decoders turn any input into a result or a typed error.

``decode_bmp``, ``read_pattern_text`` and ``load_manifest`` are fed arbitrary
bytes and text, and inputs built near their formats so that the deeper checks
are reached. Each must return a valid result or raise its own
:class:`~amnocr.errors.AmnError` subclass, never ``struct.error``,
``IndexError``, ``MemoryError`` or any other exception. The BMP and AMNPAT
properties are also differential: the package's whole-array codecs must return
what the per-pixel and per-token loops in ``oracles`` return, or raise the
same error class with the same message, and the glyph loader must return
what ``pixels_to_pattern(decode_bmp(data), policy)`` returns, or fail alike.
The CLI is run on small stores, and ``ingest`` on their glyphs as BMP files,
under a ``MAX_WEIGHT_BYTES`` drawn around each command's need, and must exit
1 with the budget message exactly when a check is over it. The runs are
derandomized, so a failure reproduces on every run.
"""

import csv
import io
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amnocr.errors
import oracles
from amnocr import (
    BinarizePolicy,
    BmpError,
    ManifestError,
    PatternFormatError,
    decode_bmp,
    load_manifest,
    pixels_to_pattern,
    read_pattern_text,
    write_pattern_text,
)
from amnocr.bmp import _BYTES_PER_PIXEL
from amnocr.cli import main
from amnocr.patterns import _bmp_pattern
from bmpbytes import glyph_index_rows, make_bmp
from helpers import hadamard_rows, random_pattern

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


@st.composite
def paletted_bmps(draw):
    """A well-formed 1-, 4- or 8-bit BMP whose palette and pixel bytes, padding included, are arbitrary.

    A palette shorter than the depth can address makes some of those bytes
    out-of-range indices, inside or past the row's ``width`` pixels.
    """
    depth = draw(st.sampled_from([1, 4, 8]))
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    entries = draw(st.integers(1, 1 << depth))
    fields = (40, width, height * draw(st.sampled_from([1, -1])), 1, depth, 0, 0, 0, 0, entries, 0)
    head = struct.pack("<2sIHHI", b"BM", 0, 0, 0, 14 + 40 + 4 * entries) + struct.pack("<IiiHHIIiiII", *fields)
    size = 4 * entries + ((width * depth + 31) // 32) * 4 * height
    return head + draw(st.binary(min_size=size, max_size=size))


def _same_as_oracle(new, oracle, *args):
    """``new(*args)`` equals ``oracle(*args)``, or both raise one error class with one message."""
    try:
        want = oracle(*args)
    except Exception as exc:  # noqa: BLE001 - any exception the oracle raises must be matched
        with pytest.raises(type(exc)) as got:
            new(*args)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        raise
    assert new(*args) == want
    return want


def _check_bmp(data):
    try:
        grid = _same_as_oracle(decode_bmp, oracles.decode_bmp, data)
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


@FUZZ
@given(paletted_bmps())
def test_decode_bmp_arbitrary_pixel_bytes(data):
    _check_bmp(data)


@st.composite
def glyph_bmps(draw):
    """A valid BMP at any supported depth and row order; a paletted one may declare a short palette."""
    depth = draw(st.sampled_from([1, 4, 8, 24]))
    width, height = draw(st.integers(1, 33)), draw(st.integers(1, 5))
    byte = st.integers(0, 255)
    palette, colors_used, pixel = None, 0, st.tuples(byte, byte, byte)
    if depth <= 8:
        entries = draw(st.integers(1, 1 << depth))
        palette = draw(st.lists(st.tuples(byte, byte, byte), min_size=entries, max_size=entries))
        colors_used = 0 if entries == 1 << depth and draw(st.booleans()) else entries
        pixel = st.integers(0, entries - 1)
    rows = draw(st.lists(st.lists(pixel, min_size=width, max_size=width), min_size=height, max_size=height))
    return make_bmp(rows, depth, bottom_up=draw(st.booleans()), palette=palette, colors_used=colors_used)


POLICIES = st.builds(BinarizePolicy, st.sampled_from([0, 1, 128, 255]), st.booleans())


def _check_loader(data, policy):
    """The glyph loader's cells are ``pixels_to_pattern(decode_bmp(data), policy)``'s, or both raise alike."""
    try:
        pattern = _same_as_oracle(
            lambda d: _bmp_pattern(d, policy), lambda d: pixels_to_pattern(decode_bmp(d), policy), data
        )
    except BmpError:
        return
    assert not pattern.cells.flags.writeable and not _bmp_pattern(data, policy).cells.flags.writeable


@FUZZ
@given(glyph_bmps(), POLICIES)
def test_loader_binarizes_as_decode_then_pixels_to_pattern(data, policy):
    _check_loader(data, policy)


@FUZZ
@given(st.one_of(mutated_bmps(), paletted_bmps(), bmp_headers()), POLICIES)
def test_loader_fails_as_decode_then_pixels_to_pattern(data, policy):
    _check_loader(data, policy)


# --- AMNPAT text ---

TOKENS = st.sampled_from(["1", "-1", "1", "-1", "0", "", "+1", "x", "1 ", "\t1"])
# A "-1" in a label is replaced with the body's before the body is located.
MINUS_ONE_LABELS = st.sampled_from(["-1", "x-1", "-1 -1", "a b", "\u00e9-1"])
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
    label = draw(st.one_of(st.text(max_size=5), MINUS_ONE_LABELS))
    newline = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\r"]))
    return newline.join([f"{magic} {version} {width} {height} {label}", *rows]) + draw(st.sampled_from(["", "\n"]))


def _check_pattern_text(text):
    try:
        pattern, label = _same_as_oracle(read_pattern_text, oracles.read_pattern_text, text)
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
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.one_of(st.text(min_size=1, max_size=8), MINUS_ONE_LABELS),
)
def test_pattern_text_round_trips(width, height, seed, label):
    pattern = random_pattern(np.random.default_rng(seed), width * height, width=width, height=height)
    if label.splitlines() != [label]:  # would not stay on the header line
        with pytest.raises(ValueError, match="line"):
            _same_as_oracle(write_pattern_text, oracles.write_pattern_text, pattern, label)
        return
    text = _same_as_oracle(write_pattern_text, oracles.write_pattern_text, pattern, label)
    assert _same_as_oracle(read_pattern_text, oracles.read_pattern_text, text) == (pattern, label)


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


# Line endings, UTF-8 characters of two to four bytes, and bytes that break UTF-8.
TEXT_PIECES = st.sampled_from(
    [b"a", b",", b"\r", b"\n", b"\r\n", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80", b"\xc3", b"\x80", b"\xff"]
)


# The bytes a text-mode file decodes at a time (io.TextIOWrapper's chunk size),
# where a reader that decodes in chunks would split the text.
TEXT_CHUNK = 8192


@st.composite
def chunk_straddling_bytes(draw):
    """Lines of text up to a little before a chunk boundary, then drawn pieces across it."""
    lead = max(0, draw(st.integers(0, 2)) * TEXT_CHUNK - draw(st.integers(0, 12)))
    return (b"label,glyph.bmp\n" * (lead // 16 + 1))[:lead] + b"".join(draw(st.lists(TEXT_PIECES, max_size=16)))


def _rows_until_error(rows) -> list:
    """The rows read, then the message of the ``csv.Error`` that ended them, if one did."""
    read = []
    try:
        read.extend(rows)
    except csv.Error as exc:
        read.append(str(exc))
    return read


@FUZZ
@given(chunk_straddling_bytes())
def test_manifest_rows_match_text_mode(entry_dir, data):
    path = entry_dir / "text.csv"
    path.write_bytes(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The whole file is decoded at once, so the error names the absolute position, not one inside a chunk.
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: {exc}"
        return
    with open(path, newline="", encoding="utf-8") as fh:
        expected = _rows_until_error(csv.reader(fh))
    handed = []  # the lines load_manifest hands csv.reader
    reader = csv.reader

    def spy(lines):
        handed.extend(lines)
        return reader(handed)

    with pytest.MonkeyPatch.context() as mp, pytest.raises(ManifestError):  # no header here is "label,path"
        mp.setattr(csv, "reader", spy)
        load_manifest(path)
    assert _rows_until_error(reader(handed)) == expected


# --- the CLI against the memory budget ---

CLI_RUNS = settings(max_examples=40, deadline=None, derandomize=True)


def _budget_needs(command, mode, k, n, manifest, sizes, bmp_sizes):
    """The bytes each budget check of ``command`` asks for, in the order they are made.

    Loading a manifest first checks its size (``manifest``), and loading a
    glyph file checks its size (``sizes``, the store's files in manifest
    order), for the store and then for the keys; ``ingest``
    checks the size of each BMP input (``bmp_sizes``) and then what decoding
    its one row of ``n`` pixels holds (``_BYTES_PER_PIXEL * n``). A superposed
    model checks its int8 stack and float32 copy (5 * k * n); superposed
    ``bench`` then builds W (a float product and its int64 copy, 16 * n * n).
    Literal ``bench`` starts from ``zero_weights`` (8 * n * n), and each
    ``train_pair`` holds three n x n matrices (24 * n * n). A literal model
    checks nothing.
    """
    model = [5 * k * n] if mode == "superposed" else []
    dense = [8 * n * n, 24 * n * n] if mode == "literal" else [16 * n * n]
    return {
        "recognize": [manifest, *sizes, *model, sizes[0]],  # the key is the first glyph's file
        "noise-sweep": [manifest, *sizes, *model],
        "bench": [manifest, *sizes, *model, manifest, *sizes, *dense],  # the keys are the store's manifest
        "ingest": [need for size in bmp_sizes for need in (size, _BYTES_PER_PIXEL * n)],
    }[command]


@CLI_RUNS
@given(
    st.sampled_from([2, 4, 8, 16]),
    st.sampled_from(["recognize", "noise-sweep", "bench", "ingest"]),
    st.sampled_from(["superposed", "literal"]),
    st.data(),
)
def test_cli_exits_1_exactly_when_over_the_budget(order, command, mode, data):
    k = data.draw(st.integers(1, order), label="k")
    n = order
    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)
        lines, sizes, bmps = ["label,path"], [], []
        for i, pattern in enumerate(hadamard_rows(order)[:k]):
            label = chr(ord("a") + i)
            entry = root / f"{label}.amnpat"
            entry.write_text(write_pattern_text(pattern, label), encoding="utf-8")
            lines.append(f"{label},{entry.name}")
            sizes.append(entry.stat().st_size)
            bmp = root / f"{label}.bmp"  # the same cells as a 1-bit BMP of one row, for ingest
            bmp.write_bytes(make_bmp([(pattern.cells > 0).tolist()], depth=1))
            bmps.append(bmp)
        store = root / "store.csv"
        store.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bmp_sizes = [bmp.stat().st_size for bmp in bmps]
        needs = _budget_needs(command, mode, k, n, store.stat().st_size, sizes, bmp_sizes)
        # Distinct values, so the k file sizes (two values for Hadamard rows) do not crowd out the other checks.
        budget = max(0, data.draw(st.sampled_from(sorted(set(needs))), label="need") + data.draw(st.integers(-2, 2)))
        argv = [command, "--store", str(store), "--mode", mode]
        argv = {
            "recognize": [*argv, "--key", str(root / "a.amnpat")],
            "noise-sweep": [*argv, "--rates", "0,0.25", "--seed", "1", "--out", str(root / "sweep.csv")],
            "bench": [*argv, "--keys", str(store), "--runs", "1", "--out", str(root / "out")],
            "ingest": [command, *map(str, bmps), "--out", str(root / "ingested")],  # no store, no mode
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
            mp.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", budget)
            code = main(argv)
    over = [need for need in needs if need > budget]
    assert code == (1 if over else 0), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if over:
        assert f"needs {over[0]} bytes" in err.getvalue()
        assert f"budget of {budget} bytes" in err.getvalue()
