"""Binarization, AMNPAT text format, manifest loading, and synthetic noise."""

import warnings

import numpy as np
import pytest

import oracles
from amnocr import (
    ActivationVector,
    BinarizePolicy,
    LabeledPattern,
    ManifestError,
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
from amnocr.patterns import _from_mask
from bmpbytes import glyph_index_rows, make_bmp
from helpers import bipolar, random_pattern


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
    # Binarizing, parsing and thresholding all build their cells from a mask.
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
    path = tmp_path / "latin.amnpat"
    path.write_bytes(b"AMNPAT 1 1 1 \xe9t\xe9\n1\n")
    with pytest.raises(PatternFormatError, match="not UTF-8"):
        load_pattern_file(path)


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
