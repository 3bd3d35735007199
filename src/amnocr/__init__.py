"""Auto-associative memory network for offline character recognition.

Glyph images become fixed-length bipolar patterns; an alphabet of patterns
is stored by superposing Hebbian outer products into one integer weight
matrix; recognition recalls a key through the store, in the factored form
Pᵀ(P·key) over the stack P of stored glyphs, and ranks the agreement
percentage against every stored glyph. Serial and statically-chunked
data-parallel dense kernels produce bit-identical results, and a benchmark
harness times both paths and emits CSV reports.
"""

from . import bench, bmp, core, errors, parallel, patterns
from . import recognize as _recognize  # the package's ``recognize`` is the function
from .bench import *  # noqa: F403
from .bmp import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .parallel import *  # noqa: F403
from .patterns import *  # noqa: F403
from .recognize import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is written once, in its module's __all__.
__all__ = [name for module in (bench, bmp, core, errors, parallel, patterns, _recognize) for name in module.__all__]
