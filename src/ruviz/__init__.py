"""Multi-measure risk-utility evaluation and visualization for anonymization
studies.

The library ingests a matrix of disclosure-risk and utility measures for
competing anonymization approaches, identifies Pareto-optimal approaches,
computes composite and PCA-based summaries with outlier diagnostics, and
renders deterministic SVG figures. See the `ruviz` command-line tool for the
end-to-end pipeline.

The analysis names load on first use (PEP 562), so `import ruviz` loads
neither numpy nor the pipeline, and `python -m ruviz` can set up its process
before they load.
"""

import importlib

from .__about__ import VERSION as __version__
from .errors import AnalysisError, ConvergenceError, RuvizError, ValidationError

# each lazily exported name and the module that defines it
_LAZY = {"StudyConfig": "config", "ingest": "model", "StudyResult": "pipeline",
         "run_study": "pipeline", "write_report": "pipeline"}

__all__ = [
    "__version__",
    "AnalysisError",
    "ConvergenceError",
    "RuvizError",
    "StudyConfig",
    "StudyResult",
    "ValidationError",
    "ingest",
    "run_study",
    "write_report",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
