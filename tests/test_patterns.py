"""Binarization, AMNPAT text format, manifest loading, and synthetic noise."""

import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import amnocr.errors
import amnocr.patterns
import oracles
from amnocr import (
    ActivationVector,
    BinarizePolicy,
    LabeledPattern,
    ManifestError,
    MemoryBudgetError,
    Pattern,
    PatternFormatError,
    PixelGrid,
    decode_bmp,
    flip_noise,
    load_manifest,
    load_pattern_file,
    pixels_to_pattern,
    read_pattern_text,
    threshold,
    write_pattern_text,
)
from amnocr.cli import main
from amnocr.patterns import _from_mask
from bmpbytes import glyph_index_rows, make_bmp
from helpers import bipolar, peak_bytes, random_pattern


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(2, 2, [1, -1, 1])  # wrong length
    with pytest.raises(ValueError):
        Pattern(2, 1, [1, 0])  # 0 is not bipolar
    with pytest.raises(ValueError):
        Pattern(0, 3, [])
    # Not +-1, though a cast to int8 would turn 257, 255 and 1.5 into +-1 and [255] into an OverflowError.
    not_bipolar = (np.array([257]), np.array([255]), np.array([1.5]), np.array([-1.0, 1.5]), np.array([1j]))
    not_bipolar += (np.array([1, 0, -1]), np.array([1, 2, -1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cells in (*not_bipolar, [255], [-129], ["1"]):
            with pytest.raises(ValueError, match=r"\+1 or -1"):
                Pattern(1, len(cells), cells)


def test_grids_are_unhashable_and_equal_only_to_their_own_type():
    grids = (Pattern(1, 1, [1]), PixelGrid(1, 1, [1]), ActivationVector(1, 1, [1]))
    for grid in grids:
        assert grid == type(grid)(1, 1, [1])
        assert [other == grid for other in grids].count(True) == 1
        with pytest.raises(TypeError, match="unhashable"):
            hash(grid)
    assert bipolar([1, -1], 2, 1) != bipolar([1, -1], 1, 2) != bipolar([-1, 1], 1, 2)


def test_pattern_cells_are_read_only():
    p = bipolar([1, -1])
    with pytest.raises(ValueError):
        p.cells[0] = -1


def test_from_mask_checks_the_geometry():
    with pytest.raises(ValueError, match="expected 4 cells for a 2x2 pattern, got 3"):
        _from_mask(2, 2, np.array([True, False, True]))
    with pytest.raises(ValueError, match=">= 1"):
        _from_mask(0, 3, np.zeros(0, dtype=bool))


def test_from_mask_equals_pattern_and_is_read_only():
    mask = np.array([True, False, False, True, True, False])
    p = _from_mask(3, 2, mask)
    assert p.cells.dtype == np.int8
    assert not p.cells.flags.writeable
    assert p == Pattern(3, 2, np.where(mask, 1, -1))
    assert (p.width, p.height, p.n) == (3, 2, 6)


def test_patterns_built_from_masks_are_read_only():
    # Binarizing and thresholding build their cells from a mask, parsing from the text's bytes.
    text = write_pattern_text(bipolar([1, -1, -1, 1], 2, 2), "x")
    built = (
        pixels_to_pattern(PixelGrid(2, 2, [0, 255, 255, 0])),
        read_pattern_text(text)[0],
        threshold(ActivationVector(2, 2, np.array([3, 0, -1, 5]))),
    )
    for p in built:
        assert p == bipolar([1, -1, -1, 1], 2, 2)
        assert p.cells.dtype == np.int8
        with pytest.raises(ValueError):
            p.cells[0] = -1


# --- binarization ---


def test_every_policy_binarizes_by_its_rule():
    # Every luma under every threshold and polarity: +1 exactly where (luma < threshold) == foreground_is_dark.
    lumas = np.arange(256)
    grid = PixelGrid(256, 1, lumas)
    for t in range(256):
        for dark in (True, False):
            want = np.where((lumas < t) == dark, 1, -1)
            assert pixels_to_pattern(grid, BinarizePolicy(t, dark)).cells.tolist() == want.tolist()


def test_binarize_white_background():
    grid = PixelGrid(2, 2, [255] * 4)
    assert pixels_to_pattern(grid).cells.tolist() == [-1, -1, -1, -1]


def test_binarize_checkerboard_default():
    grid = PixelGrid(2, 2, [0, 255, 255, 0])
    assert pixels_to_pattern(grid).cells.tolist() == [1, -1, -1, 1]


def test_binarize_polarity_flip():
    grid = PixelGrid(2, 2, [0] * 4)
    policy = BinarizePolicy(foreground_is_dark=False)
    assert pixels_to_pattern(grid, policy).cells.tolist() == [-1, -1, -1, -1]


def test_binarize_threshold_is_strict_less_than():
    grid = PixelGrid(3, 1, [127, 128, 129])
    assert pixels_to_pattern(grid).cells.tolist() == [1, -1, -1]


def test_binarize_random_grids_stay_bipolar():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w, h = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        grid = PixelGrid(w, h, rng.integers(0, 256, size=w * h))
        p = pixels_to_pattern(grid, BinarizePolicy(threshold=int(rng.integers(0, 256))))
        assert p.n == w * h
        assert set(np.unique(p.cells)) <= {-1, 1}


def test_policy_threshold_range():
    with pytest.raises(ValueError):
        BinarizePolicy(threshold=256)


# --- AMNPAT text format ---


def test_write_width_one():
    assert write_pattern_text(Pattern(1, 2, [1, -1]), "A") == "AMNPAT 1 1 2 A\n1\n-1\n"


def test_write_single_row():
    assert write_pattern_text(Pattern(2, 1, [1, -1]), "b") == "AMNPAT 1 2 1 b\n1 -1\n"


def test_read_smallest():
    p, label = read_pattern_text("AMNPAT 1 1 1 Z\n1\n")
    assert label == "Z"
    assert p == Pattern(1, 1, [1])


def test_read_invalid_token():
    with pytest.raises(PatternFormatError, match="invalid token '2'"):
        read_pattern_text("AMNPAT 1 2 1 q\n1 2\n")


@pytest.mark.parametrize(
    "rows, token",
    [
        ("1 1\n1 ", "''"),  # a trailing space: the row's last token is empty
        ("1 1\n11 -1", "'11'"),
        ("1 1\n-11 1", "'-11'"),
        ("1 1\n--1 1", "'--1'"),
        ("1 1\n-1 \xff", "'\xff'"),  # a character whose Latin-1 byte would pass for a placeholder
        ("1 1\n-1 \u0661", "'\u0661'"),  # ARABIC-INDIC DIGIT ONE
    ],
)
def test_read_rejects_each_malformed_token_at_its_row(rows, token):
    with pytest.raises(PatternFormatError, match=f"invalid token {token} at row 1 "):
        read_pattern_text(f"AMNPAT 1 2 2 q\n{rows}\n")


def test_read_header_without_label():
    with pytest.raises(PatternFormatError, match="malformed header line"):
        read_pattern_text("AMNPAT 1 1 1\n1\n")


def test_empty_label_is_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        LabeledPattern("", bipolar([1, -1]))
    with pytest.raises(ValueError, match="nonempty"):
        write_pattern_text(bipolar([1, -1]), "")


def test_read_bad_magic():
    with pytest.raises(PatternFormatError, match="magic"):
        read_pattern_text("NOTPAT 1 1 1 Z\n1\n")


def test_read_version_mismatch():
    with pytest.raises(PatternFormatError, match="version"):
        read_pattern_text("AMNPAT 2 1 1 Z\n1\n")


def test_read_row_count_mismatch():
    with pytest.raises(PatternFormatError, match="row count"):
        read_pattern_text("AMNPAT 1 1 3 Z\n1\n1\n")


def test_read_column_count_mismatch():
    with pytest.raises(PatternFormatError, match="column count"):
        read_pattern_text("AMNPAT 1 3 1 Z\n1 -1\n")


def test_label_may_contain_spaces():
    text = write_pattern_text(Pattern(1, 1, [1]), "a lower")
    p, label = read_pattern_text(text)
    assert label == "a lower"


def test_round_trip_random_patterns():
    rng = np.random.default_rng(42)
    for i in range(100):
        w, h = int(rng.integers(1, 35)), int(rng.integers(1, 42))
        p = random_pattern(rng, w * h, width=w, height=h)
        q, label = read_pattern_text(write_pattern_text(p, f"g{i}"))
        assert label == f"g{i}"
        assert q == p


def test_round_trip_reference_geometry():
    rng = np.random.default_rng(8)
    p = random_pattern(rng, 31 * 39, width=31, height=39)
    q, _ = read_pattern_text(write_pattern_text(p, "A"))
    assert q == p


def _must_not_run(*args):
    raise AssertionError(f"called with {str(args)[:60]}")


# A "-1" in the header is replaced with the body's, so the body starts earlier in the replaced bytes.
WRITTEN_LABELS = ["A", "-1", "x-1-1", "a b", "1 -1 1", "\u00e9", "\u00e9-1 \u2603", "\udcff"]


@pytest.mark.parametrize("label", WRITTEN_LABELS)
def test_every_written_text_takes_the_fixed_stride_path(tmp_path, monkeypatch, label):
    monkeypatch.setattr(amnocr.patterns, "_read_lines", _must_not_run)
    rng = np.random.default_rng(96)
    path = tmp_path / "g.amnpat"
    for width, height in ((1, 1), (1, 3), (3, 1), (4, 2), (31, 39)):
        p = random_pattern(rng, width * height, width, height)
        text = write_pattern_text(p, label)
        assert text == oracles.write_pattern_text(p, label)
        assert read_pattern_text(text) == (p, label)
        if label != "\udcff":  # a lone surrogate has no UTF-8 file
            path.write_text(text, encoding="utf-8")
            assert load_pattern_file(path) == p


def _reads_as_the_oracle(text):
    """``read_pattern_text(text)`` equals the oracle's result, or raises its error with its message."""
    try:
        want = oracles.read_pattern_text(text)
    except PatternFormatError as exc:
        with pytest.raises(PatternFormatError) as got:
            read_pattern_text(text)
        assert str(got.value) == str(exc)
    else:
        assert read_pattern_text(text) == want


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\r"),
        lambda t: t + "\n",  # a trailing blank line
        lambda t: t + " ",  # a trailing line of one space, which is blank too
        lambda t: t.replace("\n", " \n"),  # a trailing space on every line
        lambda t: t.replace("\n", "\n\n", 2),  # a blank line between the header and the rows
        lambda t: t.replace("\n", "\x1c"),  # a line boundary of str.splitlines only
        lambda t: t.replace("1\n", "1\u2028"),
        lambda t: t[:-2] + "\u0661\n",  # a non-ASCII digit for the last row's 1
        lambda t: t[:-1],  # no newline after the last row
    ],
    ids=["crlf", "cr", "blank-line", "space-line", "trailing-space", "inner-blank", "fs", "ls", "digit", "no-eol"],
)
def test_texts_off_the_written_layout_take_the_line_path(monkeypatch, edit):
    calls = []
    line_reader = amnocr.patterns._read_lines
    monkeypatch.setattr(amnocr.patterns, "_read_lines", lambda text: calls.append(text) or line_reader(text))
    rng = np.random.default_rng(97)
    for width, height in ((1, 1), (3, 2), (31, 39)):
        text = edit(write_pattern_text(random_pattern(rng, width * height, width, height), "x-1"))
        _reads_as_the_oracle(text)
        assert calls[-1] == text


# --- manifest loading ---


def _write_store(tmp_path, labels, seed=0, width=6, height=5):
    lines = ["label,path"]
    rng = np.random.default_rng(seed)
    for i, label in enumerate(labels):
        rows = glyph_index_rows(width, height, seed=seed * 100 + i)
        (tmp_path / f"glyph{i}.bmp").write_bytes(make_bmp(rows, depth=4))
        lines.append(f"{label},glyph{i}.bmp")
    manifest = tmp_path / "store.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def test_manifest_loads_bmp_entries(tmp_path):
    manifest = _write_store(tmp_path, ["A", "B", "C"])
    entries = load_manifest(manifest)
    assert [e.label for e in entries] == ["A", "B", "C"]
    assert all(e.pattern.n == 30 for e in entries)


def test_manifest_52_glyphs_reference_geometry(tmp_path):
    labels = [chr(c) for c in range(ord("A"), ord("Z") + 1)] + [
        chr(c) for c in range(ord("a"), ord("z") + 1)
    ]
    manifest = _write_store(tmp_path, labels, width=31, height=39)
    entries = load_manifest(manifest)
    assert len(entries) == 52
    assert all(e.pattern.n == 1209 for e in entries)


def test_manifest_mixed_formats(tmp_path):
    rows = glyph_index_rows(4, 4, seed=3)
    (tmp_path / "a.bmp").write_bytes(make_bmp(rows, depth=4))
    p = pixels_to_pattern(decode_bmp(make_bmp(rows, depth=4)))
    (tmp_path / "b.amnpat").write_text(write_pattern_text(p, "ignored"), encoding="utf-8")
    manifest = tmp_path / "store.csv"
    # An absolute entry path is used as it is, not joined to the manifest's directory.
    manifest.write_text(f"label,path\nA,a.bmp\nB,b.amnpat\nC,{tmp_path / 'a.bmp'}\n", encoding="utf-8")
    entries = load_manifest(manifest)
    assert entries[0].pattern == entries[1].pattern == entries[2].pattern  # same source pixels
    assert entries[1].label == "B"  # manifest label wins over embedded one


def test_manifest_empty_store(tmp_path):
    manifest = tmp_path / "store.csv"
    manifest.write_text("label,path\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="empty store"):
        load_manifest(manifest)


def test_manifest_duplicate_label(tmp_path):
    manifest = _write_store(tmp_path, ["A", "A"])
    with pytest.raises(ManifestError, match="duplicate label 'A'"):
        load_manifest(manifest)


def test_manifest_dimension_mismatch_names_row(tmp_path):
    (tmp_path / "a.bmp").write_bytes(make_bmp(glyph_index_rows(31, 39, seed=1), depth=4))
    (tmp_path / "b.bmp").write_bytes(make_bmp(glyph_index_rows(30, 39, seed=2), depth=4))
    manifest = tmp_path / "store.csv"
    manifest.write_text("label,path\nA,a.bmp\nB,b.bmp\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=r"store.csv:3: dimension mismatch .*'B'"):
        load_manifest(manifest)


def test_manifest_unreadable_file(tmp_path):
    manifest = tmp_path / "store.csv"
    manifest.write_text("label,path\nA,missing.bmp\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(manifest)


def test_manifest_bad_header(tmp_path):
    manifest = tmp_path / "store.csv"
    manifest.write_text("name,file\nA,a.bmp\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="bad header"):
        load_manifest(manifest)


def test_load_pattern_file_rejects_unknown_bytes(tmp_path):
    path = tmp_path / "mystery.dat"
    path.write_bytes(b"\x00\x01\x02")
    from amnocr import AmnError

    with pytest.raises(AmnError, match="neither"):
        load_pattern_file(path)


def test_huge_declared_width_is_a_format_error_not_an_allocation():
    # The header alone must not size the cell array: 10**12 cells would not fit in memory.
    for width in (10**12, 10**30):
        with pytest.raises(PatternFormatError, match="column count mismatch at row 0"):
            read_pattern_text(f"AMNPAT 1 {width} 1 x\n1\n")


def test_label_with_any_line_break_is_rejected():
    # read_pattern_text splits lines at these too, so the text would not read back.
    for label in ("a\nb", "a\rb", "a\x0cb", "a\x85b", "a\u2028b"):
        with pytest.raises(ValueError, match="newlines"):
            write_pattern_text(bipolar([1, -1]), label)
        with pytest.raises(ValueError, match="newlines"):
            LabeledPattern(label, bipolar([1, -1]))


def test_amnpat_file_that_is_not_utf8(tmp_path):
    # Latin-1, then a file's own 0xFF byte, which must not pass for the reader's "-1" byte, then a lone surrogate.
    path = tmp_path / "latin.amnpat"
    for data in (b"AMNPAT 1 1 1 \xe9t\xe9\n1\n", b"AMNPAT 1 2 1 q\n1 \xff\n", b"AMNPAT 1 1 1 \xed\xb3\xbf\n-1\n"):
        path.write_bytes(data)
        with pytest.raises(PatternFormatError, match="not UTF-8"):
            load_pattern_file(path)


def test_load_pattern_file_checks_its_size_before_reading(tmp_path, monkeypatch):
    path = tmp_path / "g.amnpat"
    path.write_text(write_pattern_text(bipolar([1, -1, 1]), "g"), encoding="utf-8")
    size = path.stat().st_size
    monkeypatch.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", size - 1)
    with pytest.raises(MemoryBudgetError, match=f"g.amnpat needs {size} bytes for the file's contents"):
        load_pattern_file(path)
    monkeypatch.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", size)
    assert load_pattern_file(path) == bipolar([1, -1, 1])
    # A sparse 1 MiB file over the budget is rejected without reading it into memory.
    with open(path, "r+b") as fh:
        fh.truncate(1 << 20)

    def rejected():
        with pytest.raises(MemoryBudgetError, match=f"needs {1 << 20} bytes"):
            load_pattern_file(path)

    assert peak_bytes(rejected) < 1 << 16


def test_manifest_over_the_budget_is_rejected_before_a_row_is_read(tmp_path, monkeypatch, capsys):
    # The manifest goes through the glyph files' one checked read; its entries name no file, so a read row would fail.
    manifest = tmp_path / "store.csv"
    manifest.write_text("label,path\nA,missing.bmp\n", encoding="utf-8")
    size = manifest.stat().st_size
    monkeypatch.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", size - 1)
    with pytest.raises(MemoryBudgetError) as err:
        load_manifest(manifest)
    assert str(err.value) == (
        f"{manifest} needs {size} bytes for the file's contents, over the budget of {size - 1} bytes (MAX_WEIGHT_BYTES)"
    )
    assert main(["recognize", "--store", str(manifest), "--key", str(tmp_path / "missing.bmp")]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_amnpat_file_off_the_written_layout_runs_the_fixed_stride_decoder_once(tmp_path, monkeypatch):
    calls = []
    read_written = amnocr.patterns._read_written
    monkeypatch.setattr(amnocr.patterns, "_read_written", lambda raw: calls.append(raw) or read_written(raw))
    p = random_pattern(np.random.default_rng(95), 12, 4, 3)
    path = tmp_path / "g.amnpat"
    for label in ("g", "\xe9"):  # an ASCII file and one that is not
        path.write_bytes(write_pattern_text(p, label).replace("\n", "\r\n").encode("utf-8"))
        calls.clear()
        assert load_pattern_file(path) == p
        assert calls == [path.read_bytes()]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_load_pattern_file_reads_a_pipe_to_its_end(tmp_path):
    # A pipe's size reads 0, so the one read of the stated size is not the whole file.
    p = random_pattern(np.random.default_rng(96), 12, 4, 3)
    fifo = tmp_path / "g.amnpat"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(write_pattern_text(p, "g"),))
    writer.start()
    try:
        assert load_pattern_file(fifo) == p
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# Peaks at 62x78, the benchmark's large glyph: tracemalloc counts what a call
# allocates, so the text passed in and the file on disk are not in them.


def test_load_pattern_file_holds_under_five_bytes_a_cell_beyond_the_file(tmp_path):
    # The file's bytes, their replaced copy (2 B a cell) and the cells (1 B).
    p = random_pattern(np.random.default_rng(98), 62 * 78, 62, 78)
    path = tmp_path / "g.amnpat"
    path.write_text(write_pattern_text(p, "g"), encoding="utf-8")
    assert load_pattern_file(path) == p
    assert peak_bytes(lambda: load_pattern_file(path)) <= path.stat().st_size + 5 * p.n


@pytest.mark.parametrize(
    "depth, per_cell",
    # Beyond the file: 1-bit unpacked indices, their bytes and the looked-up
    # cells (3 B); 24-bit int32 lumas and their bytes (5 B, as bmp._BYTES_PER_PIXEL
    # states), each with 1 B for einsum's buffers and the objects made.
    [(1, 4), (24, 6)],
)
def test_load_pattern_file_holds_a_bounded_number_of_bytes_a_cell_beyond_a_bmp(tmp_path, depth, per_cell):
    rng = np.random.default_rng(97)
    if depth == 24:
        rows = [[tuple(px) for px in row] for row in rng.integers(0, 256, (78, 62, 3)).tolist()]
    else:
        rows = rng.integers(0, 2, (78, 62)).tolist()
    path = tmp_path / "g.bmp"
    path.write_bytes(make_bmp(rows, depth=depth))
    assert load_pattern_file(path) == pixels_to_pattern(decode_bmp(path.read_bytes()))
    assert peak_bytes(lambda: load_pattern_file(path)) <= path.stat().st_size + per_cell * 62 * 78


def test_write_pattern_text_holds_under_six_bytes_a_cell():
    # The 2-byte-a-cell buffer, then its widened copy and the text decoded from it.
    p = random_pattern(np.random.default_rng(99), 62 * 78, 62, 78)
    write_pattern_text(p, "g")
    assert peak_bytes(lambda: write_pattern_text(p, "g")) <= 6 * p.n


# Entries as written, and the path that a Path of the manifest's directory
# joined to them prints, which the errors must name byte for byte.
ENTRY_SPELLINGS = [
    ("g.bin", "g.bin"),
    ("./g.bin", "g.bin"),
    ("sub//g.bin", "sub/g.bin"),
    ("sub/./g.bin", "sub/g.bin"),
    ("sub/", "sub"),
    ("{abs}/sub//g.bin", "{abs}/sub/g.bin"),
]


@pytest.mark.parametrize("bare", [False, True], ids=["manifest-path", "manifest-bare-name"])
@pytest.mark.parametrize("entry, shown", ENTRY_SPELLINGS)
def test_manifest_errors_name_the_entry_as_a_path_prints_it(tmp_path, monkeypatch, entry, shown, bare):
    entry, shown = entry.format(abs=tmp_path), shown.format(abs=tmp_path)
    if bare:  # the manifest given as a bare file name, relative to the working directory
        monkeypatch.chdir(tmp_path)
        manifest = Path("store.csv")
    else:
        manifest = tmp_path / "store.csv"
        shown = shown if shown.startswith("/") else f"{tmp_path}/{shown}"
    (tmp_path / "store.csv").write_text(f"label,path\nA,{entry}\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    # Larger than the manifest, whose size is checked first, so the entry is the first file over the budget.
    junk = b"junk".ljust((tmp_path / "store.csv").stat().st_size + 1, b"!")
    for target in (tmp_path / "g.bin", tmp_path / "sub" / "g.bin"):
        target.write_bytes(junk)
    if entry == "sub/":
        with pytest.raises(ManifestError) as err:
            load_manifest(manifest)
        assert str(err.value) == f"{manifest}:2: cannot read {shown}: [Errno 21] Is a directory: {shown!r}"
        return
    with pytest.raises(PatternFormatError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{shown}: neither a BMP nor an AMNPAT file"
    monkeypatch.setattr(amnocr.errors, "MAX_WEIGHT_BYTES", len(junk) - 1)
    with pytest.raises(MemoryBudgetError) as err:
        load_manifest(manifest)
    assert str(err.value) == (
        f"{shown} needs {len(junk)} bytes for the file's contents, "
        f"over the budget of {len(junk) - 1} bytes (MAX_WEIGHT_BYTES)"
    )
    for target in (tmp_path / "g.bin", tmp_path / "sub" / "g.bin"):
        target.unlink()
    with pytest.raises(ManifestError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}:2: cannot read {shown}: [Errno 2] No such file or directory: {shown!r}"


@pytest.mark.parametrize(
    "text, message",
    [
        (b"label,path\n\x80,a.bmp\n", "codec can't decode"),
        (b"label,path\nA," + b"x" * 200_000 + b"\n", "field larger than field limit"),
        (b"label,path\nA,a\x00.bmp\n", "NUL"),
        (b'label,path\n"A\nZ 100.00",a.bmp\n', "store.csv:3: label must not contain newlines"),
    ],
    ids=["not-utf8", "huge-field", "nul-in-path", "newline-in-label"],
)
def test_manifest_malformed_bytes_are_manifest_errors(tmp_path, text, message):
    manifest = tmp_path / "store.csv"
    manifest.write_bytes(text)
    with pytest.raises(ManifestError, match=message):
        load_manifest(manifest)


# --- flip noise ---


def test_flip_noise_rate_zero_identity():
    rng = np.random.default_rng(1)
    p = random_pattern(rng, 50)
    assert flip_noise(p, 0.0, seed=9) == p


def test_flip_noise_rate_one_negates():
    rng = np.random.default_rng(2)
    p = random_pattern(rng, 50)
    flipped = flip_noise(p, 1.0, seed=9)
    assert np.array_equal(flipped.cells, -p.cells)


def test_flip_noise_half_of_four():
    p = bipolar([1, 1, 1, 1])
    flipped = flip_noise(p, 0.5, seed=123)
    assert oracles.hamming(flipped.cells.tolist(), p.cells.tolist()) == 2


def test_flip_noise_deterministic():
    rng = np.random.default_rng(3)
    p = random_pattern(rng, 100)
    assert flip_noise(p, 0.3, seed=77) == flip_noise(p, 0.3, seed=77)
    assert flip_noise(p, 0.3, seed=77) != flip_noise(p, 0.3, seed=78)


def test_flip_noise_exact_count_over_rate_grid():
    rng = np.random.default_rng(4)
    for n in (10, 53, 1209):
        p = random_pattern(rng, n)
        for tenths in range(11):
            rate = tenths / 10
            flipped = flip_noise(p, rate, seed=n + tenths)
            assert oracles.hamming(flipped.cells.tolist(), p.cells.tolist()) == round(rate * n)


def test_flip_noise_rejects_bad_rate():
    p = bipolar([1, -1])
    with pytest.raises(ValueError):
        flip_noise(p, 1.5, seed=0)
    with pytest.raises(ValueError):
        flip_noise(p, -0.1, seed=0)


# --- full decode -> binarize -> write -> read round-trip ---


@pytest.mark.parametrize("depth", [1, 4, 8, 24])
def test_decode_binarize_roundtrip_lossless(depth):
    rng = np.random.default_rng(depth + 100)
    if depth == 24:
        rows = [
            [tuple(int(v) for v in rng.integers(0, 256, 3)) for _ in range(9)] for _ in range(7)
        ]
    else:
        rows = rng.integers(0, 1 << depth, size=(7, 9)).tolist()
    pattern = pixels_to_pattern(decode_bmp(make_bmp(rows, depth)))
    back, label = read_pattern_text(write_pattern_text(pattern, "g"))
    assert label == "g"
    assert back == pattern
