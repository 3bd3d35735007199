"""Exception types for data errors and internal invariant breaches.

Data problems (bad files, bad manifests) raise ``AmnError`` subclasses so
callers can tell them from programming errors (``ValueError``, such as a bad
count, see ``_check_int``) and from invariant breaches (``InvariantError``).
"""

import numpy as np


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
    """A dense n x n matrix would exceed ``MAX_WEIGHT_BYTES``."""


class InvariantError(RuntimeError):
    """An internal consistency guarantee was violated; always a bug."""


class ParallelDivergenceError(InvariantError):
    """Serial and parallel execution paths produced different results."""


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
