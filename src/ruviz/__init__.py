"""Multi-measure risk-utility evaluation and visualization for anonymization
studies.

The library ingests a matrix of disclosure-risk and utility measures for
competing anonymization approaches, identifies Pareto-optimal approaches,
computes composite and PCA-based summaries with outlier diagnostics, and
renders deterministic SVG figures. See the `ruviz` command-line tool for the
end-to-end pipeline.
"""

from .__about__ import VERSION as __version__
from .composites import (
    CompositeScores,
    ReliabilityReport,
    composite_scores,
    cronbach_alpha,
    mcdonald_omega,
    reliability_report,
)
from .config import StudyConfig, StudyOptions
from .errors import AnalysisError, ConvergenceError, RuvizError, ValidationError
from .model import (
    ApproachRecord,
    Block,
    Direction,
    MeasureMatrix,
    MeasureSpec,
    NormalizedMatrix,
    harmonize_and_normalize,
    ingest,
)
from .multivariate import (
    AcceptancePolygon,
    AlignmentReport,
    BlockwisePca,
    OutlierFlag,
    PcaModel,
    SdOdDiagnostics,
    alignment,
    blockwise_pca,
    classify_sd_od,
    group_summaries,
    orient,
    pca_fit,
    project_acceptance_region,
    robust_pca,
    sd_od,
)
from .ordering import Dendrogram, hclust
from .pareto import (
    CompositeFront,
    DominanceResult,
    KneePoint,
    ParetoResult,
    Ray,
    composite_front,
    knee_point,
    pareto_set,
    rays_to_reference,
)
from .pipeline import StudyResult, run_study, write_report
from .profiles import RadialProfile, origami_profiles, ranked_areas

__all__ = [
    "__version__",
    "AcceptancePolygon",
    "AlignmentReport",
    "AnalysisError",
    "ApproachRecord",
    "Block",
    "BlockwisePca",
    "CompositeFront",
    "CompositeScores",
    "ConvergenceError",
    "Dendrogram",
    "Direction",
    "DominanceResult",
    "KneePoint",
    "MeasureMatrix",
    "MeasureSpec",
    "NormalizedMatrix",
    "OutlierFlag",
    "ParetoResult",
    "PcaModel",
    "RadialProfile",
    "Ray",
    "ReliabilityReport",
    "RuvizError",
    "SdOdDiagnostics",
    "StudyConfig",
    "StudyOptions",
    "StudyResult",
    "ValidationError",
    "alignment",
    "blockwise_pca",
    "classify_sd_od",
    "composite_front",
    "composite_scores",
    "cronbach_alpha",
    "group_summaries",
    "harmonize_and_normalize",
    "hclust",
    "ingest",
    "knee_point",
    "mcdonald_omega",
    "orient",
    "origami_profiles",
    "pareto_set",
    "pca_fit",
    "project_acceptance_region",
    "ranked_areas",
    "rays_to_reference",
    "reliability_report",
    "robust_pca",
    "run_study",
    "sd_od",
    "write_report",
]
