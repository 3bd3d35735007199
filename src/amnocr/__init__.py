"""Auto-associative memory network for offline character recognition.

Glyph images become fixed-length bipolar patterns; an alphabet of patterns
is stored by superposing Hebbian outer products into one integer weight
matrix; recognition recalls a key through the store, in the factored form
Pᵀ(P·key) over the stack P of stored glyphs, and ranks the agreement
percentage against every stored glyph. Serial and statically-chunked
data-parallel dense kernels produce bit-identical results, and a benchmark
harness times both paths and emits CSV reports.
"""

from .bench import (
    ReportRow,
    SweepPoint,
    TimingStats,
    noise_sweep,
    run_benchmark,
    write_matching_levels_csv,
    write_report_csv,
    write_speedup_csv,
    write_sweep_csv,
)
from .bmp import PixelGrid, decode_bmp
from .core import (
    ActivationVector,
    format_pct,
    match_score,
    net_input,
    recall,
    store_patterns,
    threshold,
    train_pair,
    zero_weights,
)
from .errors import (
    AmnError,
    BmpBitDepthError,
    BmpCompressionError,
    BmpError,
    BmpHeaderError,
    BmpPaletteError,
    BmpTruncatedError,
    InvariantError,
    ManifestError,
    ParallelDivergenceError,
    PatternFormatError,
)
from .parallel import ExecPlan, IndexAssignment, par_net_input, par_train_pair, partition_static
from .patterns import (
    BinarizePolicy,
    LabeledPattern,
    Pattern,
    flip_noise,
    load_manifest,
    load_pattern_file,
    pixels_to_pattern,
    read_pattern_text,
    write_pattern_text,
)
from .recognize import (
    MODES,
    RecognitionResult,
    RecognizerModel,
    build_model,
    recognize,
    repeat_recognize,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationVector",
    "AmnError",
    "BinarizePolicy",
    "BmpBitDepthError",
    "BmpCompressionError",
    "BmpError",
    "BmpHeaderError",
    "BmpPaletteError",
    "BmpTruncatedError",
    "ExecPlan",
    "IndexAssignment",
    "InvariantError",
    "LabeledPattern",
    "MODES",
    "ManifestError",
    "ParallelDivergenceError",
    "Pattern",
    "PatternFormatError",
    "PixelGrid",
    "RecognitionResult",
    "RecognizerModel",
    "ReportRow",
    "SweepPoint",
    "TimingStats",
    "build_model",
    "decode_bmp",
    "flip_noise",
    "format_pct",
    "load_manifest",
    "load_pattern_file",
    "match_score",
    "net_input",
    "noise_sweep",
    "par_net_input",
    "par_train_pair",
    "partition_static",
    "pixels_to_pattern",
    "read_pattern_text",
    "recall",
    "recognize",
    "repeat_recognize",
    "run_benchmark",
    "store_patterns",
    "threshold",
    "train_pair",
    "write_matching_levels_csv",
    "write_pattern_text",
    "write_report_csv",
    "write_speedup_csv",
    "write_sweep_csv",
    "zero_weights",
]
