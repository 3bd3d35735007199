"""Seeded synthetic inputs: glyph cells and their BMP, AMNPAT and manifest files.

Everything here is written from the file-format layouts (BMP file header,
40-byte BITMAPINFOHEADER, BGRX palette, rows padded to 4 bytes; the AMNPAT v1
text layout; the ``label,path`` manifest), never from the package under test,
so the benchmark's checks do not depend on the decoder or parser they check.

Glyphs are i.i.d. fair +1/-1 grids. Such patterns are nearly orthogonal, so a
52-glyph store at 31x39 (n = 1209) sits far below the Hopfield capacity of
about 0.138 * n and every stored glyph recalls to itself.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHABET = tuple(chr(c) for c in range(ord("A"), ord("Z") + 1)) + tuple(
    chr(c) for c in range(ord("a"), ord("z") + 1)
)
DEPTHS = (1, 4, 8, 24)
THRESHOLD = 128  # the package's default binarize threshold: ink is darker than this
INFO_HEADER_SIZE = 40


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the defaults are the benchmark's."""

    glyph: tuple[int, int] = (31, 39)
    large: tuple[int, int] = (62, 78)
    labels: int = 52
    literal_labels: int = 8
    key_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    sweep_rates: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(11))
    ingest_glyphs: int = 3  # glyph-size files per depth and row order in one ingest round


def luma(rgb: np.ndarray) -> np.ndarray:
    """Integer luma of (..., 3) RGB values, half rounding up."""
    rgb = np.asarray(rgb, dtype=np.int64)
    return (299 * rgb[..., 0] + 587 * rgb[..., 1] + 114 * rgb[..., 2] + 500) // 1000


def cells_from_intensity(intensity: np.ndarray) -> np.ndarray:
    """Dark-is-ink binarisation: +1 below ``THRESHOLD``, else -1."""
    return np.where(np.asarray(intensity) < THRESHOLD, 1, -1).astype(np.int8).ravel()


def random_cells(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.where(rng.integers(0, 2, size=n) == 1, 1, -1).astype(np.int8)


def flip(cells: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip round(rate * n) distinct cells chosen by ``rng``."""
    out = np.array(cells, dtype=np.int8)
    idx = rng.permutation(out.size)[: round(rate * out.size)]
    out[idx] = -out[idx]
    return out


def _dark(rng, shape):
    return rng.integers(0, 121, size=(*shape, 3))  # luma <= 120


def _light(rng, shape):
    return rng.integers(140, 256, size=(*shape, 3))  # luma >= 140


@dataclass(frozen=True, eq=False)
class SourceImage:
    """A glyph as colours, before encoding; ``rgb`` is (height, width, 3), top row first."""

    width: int
    height: int
    depth: int
    top_down: bool
    rgb: np.ndarray
    index: np.ndarray | None = None  # (height, width) palette indices for depths <= 8
    palette: np.ndarray | None = None  # (entries, 3) RGB

    @property
    def intensity(self) -> np.ndarray:
        """What a decoder must return: one luma per pixel, row-major, top row first."""
        return luma(self.rgb).ravel()


def render(cells, width, height, depth, top_down, rng) -> SourceImage:
    """Paint ink cells dark and paper cells light, with seeded colour variety."""
    ink = np.asarray(cells).reshape(height, width) == 1
    if depth == 24:
        rgb = np.where(ink[..., None], _dark(rng, ink.shape), _light(rng, ink.shape))
        return SourceImage(width, height, depth, top_down, rgb)
    entries = 1 << depth
    is_dark = rng.permutation(np.arange(entries) < entries // 2)
    palette = np.where(is_dark[:, None], _dark(rng, (entries,)), _light(rng, (entries,)))
    dark_idx, light_idx = np.flatnonzero(is_dark), np.flatnonzero(~is_dark)
    index = np.where(
        ink,
        dark_idx[rng.integers(0, dark_idx.size, size=ink.shape)],
        light_idx[rng.integers(0, light_idx.size, size=ink.shape)],
    )
    return SourceImage(width, height, depth, top_down, palette[index], index, palette)


def _pack_row(img: SourceImage, y: int) -> bytes:
    if img.depth == 24:
        raw = img.rgb[y, :, ::-1].astype(np.uint8).tobytes()  # BGR
    elif img.depth == 8:
        raw = img.index[y].astype(np.uint8).tobytes()
    elif img.depth == 4:
        nib = np.append(img.index[y], [0] * (img.width % 2)).astype(np.uint8)
        raw = ((nib[0::2] << 4) | nib[1::2]).tobytes()
    else:
        raw = np.packbits(img.index[y].astype(np.uint8)).tobytes()  # MSB first
    stride = ((img.width * img.depth + 31) // 32) * 4
    return raw + bytes(stride - len(raw))


def encode_bmp(img: SourceImage) -> bytes:
    """Uncompressed BI_RGB BMP bytes; negative height marks a top-down file."""
    order = range(img.height) if img.top_down else range(img.height - 1, -1, -1)
    pixels = b"".join(_pack_row(img, y) for y in order)
    palette = b""
    if img.palette is not None:
        palette = b"".join(bytes((int(b), int(g), int(r), 0)) for r, g, b in img.palette)
    offset = 14 + INFO_HEADER_SIZE + len(palette)
    file_header = struct.pack("<2sIHHI", b"BM", offset + len(pixels), 0, 0, offset)
    info_header = struct.pack(
        "<IiiHHIIiiII",
        INFO_HEADER_SIZE,
        img.width,
        -img.height if img.top_down else img.height,
        1,  # planes
        img.depth,
        0,  # BI_RGB
        len(pixels),
        2835,
        2835,
        0,  # colours used: 0 means the full palette
        0,
    )
    return file_header + info_header + palette + pixels


def amnpat_text(cells, width: int, height: int, label: str) -> str:
    """AMNPAT v1: a header line, then one line of space-separated 1/-1 per row."""
    rows = np.asarray(cells).reshape(height, width)
    lines = [f"AMNPAT 1 {width} {height} {label}"]
    lines += [" ".join("1" if c == 1 else "-1" for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_manifest(path: Path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "path"])
        writer.writerows(rows)
    return path


@dataclass(frozen=True, eq=False)
class GlyphStore:
    """The seeded alphabet, on disk as BMP files (depths cycling 1, 4, 8, 24) and AMNPAT files."""

    labels: tuple[str, ...]
    width: int
    height: int
    cells: np.ndarray  # (k, n) int8, row i is labels[i]
    bmp_paths: tuple[Path, ...]
    bmp_manifest: Path
    amnpat_manifest: Path

    def manifest_prefix(self, k: int, path: Path) -> Path:
        """A BMP manifest of the first ``k`` glyphs."""
        return write_manifest(path, [(lbl, p.name) for lbl, p in zip(self.labels[:k], self.bmp_paths)])


def make_store(directory: Path, sizes: Sizes, rng: np.random.Generator) -> GlyphStore:
    directory.mkdir(parents=True, exist_ok=True)
    width, height = sizes.glyph
    labels = ALPHABET[: sizes.labels]
    cells = np.stack([random_cells(rng, width * height) for _ in labels])
    bmp_paths, amnpat_rows = [], []
    for i, label in enumerate(labels):
        depth = DEPTHS[i % len(DEPTHS)]
        img = render(cells[i], width, height, depth, i % 2 == 1, rng)
        # Labels differ only in case, so file names carry the index.
        path = directory / f"glyph{i:02d}.bmp"
        path.write_bytes(encode_bmp(img))
        (directory / f"glyph{i:02d}.amnpat").write_text(
            amnpat_text(cells[i], width, height, label), encoding="utf-8"
        )
        bmp_paths.append(path)
        amnpat_rows.append((label, f"glyph{i:02d}.amnpat"))
    bmp_manifest = write_manifest(
        directory / "store_bmp.csv", [(lbl, p.name) for lbl, p in zip(labels, bmp_paths)]
    )
    amnpat_manifest = write_manifest(directory / "store_amnpat.csv", amnpat_rows)
    return GlyphStore(
        labels, width, height, cells, tuple(bmp_paths), bmp_manifest, amnpat_manifest
    )


@dataclass(frozen=True, eq=False)
class IngestFile:
    path: Path
    stem: str
    image: SourceImage
    intensity: np.ndarray  # expected decoded pixels: the luma of the source colours
    cells: np.ndarray  # expected bipolar cells: the threshold of that luma


def make_ingest_files(directory: Path, sizes: Sizes, rng: np.random.Generator) -> list[IngestFile]:
    """One ingest round: every depth, both row orders, ``ingest_glyphs`` files at glyph size and one larger.

    Glyph-size files are three quarters of the round, so the median file is a
    glyph-size one and the 90th percentile a large one, each inside a cluster
    rather than on the gap between them.
    """
    directory.mkdir(parents=True, exist_ok=True)
    shapes = [sizes.glyph] * sizes.ingest_glyphs + [sizes.large]
    files = []
    for s, (width, height) in enumerate(shapes):
        for depth in DEPTHS:
            for top_down in (False, True):
                img = render(random_cells(rng, width * height), width, height, depth, top_down, rng)
                stem = f"in{s}-{width}x{height}-d{depth}-{'td' if top_down else 'bu'}"
                path = directory / f"{stem}.bmp"
                path.write_bytes(encode_bmp(img))
                files.append(IngestFile(path, stem, img, img.intensity, cells_from_intensity(img.intensity)))
    return files
