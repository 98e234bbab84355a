"""latticewitness: separability and entanglement certification for
sigma-diagonal bipartite states, built around 16x16 lattice states.

Headline entry points: `lattice.classify` for a single subset,
`lattice.survey` for the exhaustive sweep, `criteria` for numeric
detectors and witnesses, and the `lw` command-line tool.
"""

import importlib

from . import criteria, lattice, linalg, maps, pauli, states
from .lattice import classify, survey_all, uniform_covering
from .states import lattice_state, sigma_diagonal_state

__version__ = "0.1.0"

__all__ = [
    "cli", "criteria", "lattice", "linalg", "maps", "pauli", "states",
    "classify", "survey_all", "uniform_covering",
    "lattice_state", "sigma_diagonal_state",
    "__version__",
]


def __getattr__(name):
    # `cli` is imported on first use, so that `python -m latticewitness.cli`
    # does not find it in sys.modules already
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
