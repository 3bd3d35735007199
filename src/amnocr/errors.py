"""Exception types for data errors and internal invariant breaches, and the rules that raise them.

Data problems (bad files, bad manifests) raise ``AmnError`` subclasses so
callers can tell them from programming errors (``ValueError``, such as a bad
count or flip rate, see ``_check_int`` and ``_check_rates``) and from
invariant breaches (``InvariantError``).

The count, rate and memory-budget rules live here, below every other module,
which imports them from here. ``MAX_WEIGHT_BYTES`` is the budget's one copy,
so a patch of ``amnocr.errors.MAX_WEIGHT_BYTES`` reaches every check.
"""

import numbers

import numpy as np

__all__ = [
    "AmnError", "BmpError", "BmpHeaderError", "BmpCompressionError", "BmpBitDepthError", "BmpPaletteError",
    "BmpTruncatedError", "PatternFormatError", "ManifestError", "MemoryBudgetError",
    "InvariantError", "ParallelDivergenceError",
]


class AmnError(Exception):
    """Base class for data and file-format errors."""


class BmpError(AmnError):
    """Base class for BMP decode failures."""


class BmpHeaderError(BmpError):
    """Malformed or unsupported BMP/DIB header."""


class BmpCompressionError(BmpError):
    """Compressed BMP data (only BI_RGB, i.e. uncompressed, is supported)."""


class BmpBitDepthError(BmpError):
    """Bit depth outside the supported set {1, 4, 8, 24}."""


class BmpPaletteError(BmpError):
    """Pixel refers to a palette entry that does not exist."""


class BmpTruncatedError(BmpError):
    """File ends before the declared palette or pixel data."""


class PatternFormatError(AmnError):
    """Malformed AMNPAT pattern text."""


class ManifestError(AmnError):
    """Malformed or inconsistent store manifest."""


class MemoryBudgetError(AmnError):
    """A dense n x n matrix, the k x n recall stack, a file or a BMP's pixels would exceed ``MAX_WEIGHT_BYTES``.

    The file is a manifest, a glyph file or an ``ingest`` input, checked by
    its size before it is read; a BMP's decoded pixels are checked from its
    header before they are made.
    """


class InvariantError(RuntimeError):
    """An internal consistency guarantee was violated; always a bug."""


class ParallelDivergenceError(InvariantError):
    """Serial and parallel execution paths produced different results."""


# The most bytes a dense n x n computation may hold at once. The reference
# 31x39 glyphs need 11.7 MB per int64 W; a 150x150 glyph would need 4 GB,
# which should end in a typed error, not in an allocation failure.
MAX_WEIGHT_BYTES = 1 << 30


def _check_budget(who: str, needed: int, what: str) -> None:
    """Raise :class:`MemoryBudgetError` naming ``who`` unless ``needed`` bytes fit ``MAX_WEIGHT_BYTES``."""
    if needed > MAX_WEIGHT_BYTES:
        raise MemoryBudgetError(
            f"{who} needs {needed} bytes for {what}, "
            f"over the budget of {MAX_WEIGHT_BYTES} bytes (MAX_WEIGHT_BYTES)"
        )


def _check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer in [``lo``, ``hi``]; ``hi=None`` leaves it open.

    The one rule for the counts and sizes that library calls receive: ``int``
    and NumPy integers pass; bool, floats and strings do not. Nothing is converted.
    """
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be at most {hi}, got {value}")


def _check_rates(rates) -> None:
    """Raise ``ValueError`` unless ``rates`` is nonempty and each rate is a real number in [0, 1].

    The one rule for flip rates: ``int``, ``float``, ``Fraction`` and NumPy
    numbers pass; bool, strings, ``None`` and complex numbers do not.
    """
    if len(rates) == 0:
        raise ValueError("rates must be nonempty")
    for rate in rates:
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise ValueError(f"flip rate must be a real number, got {rate!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must lie in [0, 1], got {rate}")
