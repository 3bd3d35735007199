"""Exception types for data errors and internal invariant breaches.

Data problems (bad files, bad manifests) raise ``AmnError`` subclasses so
callers can distinguish them from programming errors (``ValueError``) and
from internal invariant breaches (``InvariantError``).
"""


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
