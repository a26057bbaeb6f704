"""Multi-measure risk-utility evaluation and visualization for anonymization
studies.

The library ingests a matrix of disclosure-risk and utility measures for
competing anonymization approaches, identifies Pareto-optimal approaches,
computes composite and PCA-based summaries with outlier diagnostics, and
renders deterministic SVG figures. See the `ruviz` command-line tool for the
end-to-end pipeline.
"""

from .__about__ import VERSION as __version__
from .config import StudyConfig
from .errors import AnalysisError, ConvergenceError, RuvizError, ValidationError
from .model import ingest
from .pipeline import StudyResult, run_study, write_report

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
