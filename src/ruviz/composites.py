"""Block-mean composite scores and internal-consistency diagnostics.

Composites are unweighted means of the normalized columns of each block.
Whether such a mean summarizes a coherent construct is judged with
Cronbach's alpha and McDonald's omega, computed on the harmonized items so
that reverse-keyed measures cannot deflate the coefficients spuriously.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConvergenceError
from .model import Block, NormalizedMatrix

ALPHA_THRESHOLD = 0.70
# principal-axis factoring stops when no communality moves by _PAF_TOL
_PAF_TOL = 1e-8
_PAF_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class CompositeScores:
    """Per-approach block means and the dispersion across the block's columns."""

    labels: tuple[str, ...]
    utility: np.ndarray
    risk: np.ndarray
    utility_sd: np.ndarray
    risk_sd: np.ndarray


def _block_mean_sd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = block.mean(axis=1)
    if block.shape[1] >= 2:
        sd = block.std(axis=1, ddof=1)
    else:
        sd = np.zeros(block.shape[0])
    return mean, sd


def composite_scores(nm: NormalizedMatrix) -> CompositeScores:
    """Unweighted block means per approach, with sample SD across columns."""
    util, util_sd = _block_mean_sd(nm.block_values(Block.UTILITY))
    risk, risk_sd = _block_mean_sd(nm.block_values(Block.RISK))
    return CompositeScores(
        labels=nm.labels, utility=util, risk=risk, utility_sd=util_sd, risk_sd=risk_sd
    )


def cronbach_alpha(block: np.ndarray) -> float:
    """Cronbach's alpha from sample variances of items and row totals.

    alpha = k (1 - sum(var_item) / var(total)) / (k - 1). Returns NaN with a
    warning when the row totals have zero variance.
    """
    items = np.asarray(block, dtype=float)
    k = items.shape[1]
    item_vars = items.var(axis=0, ddof=1)
    total_var = items.sum(axis=1).var(ddof=1)
    if total_var == 0.0:
        warnings.warn("alpha undefined: zero total variance", UserWarning, stacklevel=2)
        return float("nan")
    return float(k * (1.0 - item_vars.sum() / total_var) / (k - 1))


def one_factor_loadings(corr: np.ndarray) -> np.ndarray:
    """Standardized loadings of a one-factor model by iterated principal-axis
    factoring.

    Starting communalities are squared multiple correlations (falling back to
    the largest absolute off-diagonal correlation per item when the matrix is
    singular). Each pass replaces the diagonal with the current communalities
    and takes the leading eigenpair of the reduced matrix. Communalities above
    1 (Heywood cases) are clamped with a warning.

    Raises:
        ConvergenceError: communalities did not stabilize within 200 passes.
    """
    R = np.asarray(corr, dtype=float)
    if not np.all(np.isfinite(R)):
        raise AnalysisError("correlation matrix has non-finite entries "
                            "(constant item?)")
    off = R - np.diag(np.diag(R))
    try:
        diag_inv = np.diag(np.linalg.inv(R))
        if np.all(np.isfinite(diag_inv)) and np.all(diag_inv > 1e-12):
            h = np.clip(1.0 - 1.0 / diag_inv, 0.0, 1.0)
        else:
            h = np.abs(off).max(axis=1)
    except np.linalg.LinAlgError:
        h = np.abs(off).max(axis=1)

    heywood = False
    for _ in range(_PAF_MAX_ITER):
        reduced = R.copy()
        np.fill_diagonal(reduced, h)
        eigvals, eigvecs = np.linalg.eigh(reduced)
        lead = max(float(eigvals[-1]), 0.0)
        vec = eigvecs[:, -1]
        if vec.sum() < 0.0:
            vec = -vec
        loadings = np.sqrt(lead) * vec
        h_new = loadings**2
        if np.any(h_new > 1.0 + 1e-12):
            heywood = True
        h_new = np.clip(h_new, 0.0, 1.0)
        if np.max(np.abs(h_new - h)) < _PAF_TOL:
            h = h_new
            break
        h = h_new
    else:
        raise ConvergenceError(
            f"principal-axis factoring did not converge in {_PAF_MAX_ITER} iterations"
        )
    if heywood:
        warnings.warn(
            "Heywood case: a communality exceeded 1 and was clamped",
            UserWarning,
            stacklevel=2,
        )
        loadings = np.sign(loadings) * np.minimum(np.abs(loadings), 1.0)
    return loadings


def mcdonald_omega(block: np.ndarray) -> float:
    """McDonald's omega from a one-factor fit of the item correlation matrix.

    omega = (sum lambda)^2 / ((sum lambda)^2 + sum(1 - lambda^2)) on
    standardized items.
    """
    items = np.asarray(block, dtype=float)
    if items.shape[0] < 3:
        raise ValueError("omega requires >= 3 rows")
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(items, rowvar=False)
    loadings = one_factor_loadings(corr)
    s = float(loadings.sum())
    uniqueness = float(np.clip(1.0 - loadings**2, 0.0, None).sum())
    denom = s * s + uniqueness
    if denom == 0.0:
        raise AnalysisError("omega undefined: zero common and unique variance")
    return s * s / denom


@dataclass(frozen=True)
class BlockReliability:
    alpha: float
    omega: float | None
    n_items: int
    verdict: str  # "acceptable" | "questionable"
    note: str | None = None


@dataclass(frozen=True)
class ReliabilityReport:
    risk: BlockReliability
    utility: BlockReliability
    caveat: str


def _block_reliability(items: np.ndarray) -> BlockReliability:
    k = items.shape[1]
    note = None
    if k < 2:
        return BlockReliability(
            alpha=float("nan"),
            omega=None,
            n_items=k,
            verdict="questionable",
            note="single item: consistency coefficients undefined",
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alpha = cronbach_alpha(items)
        try:
            omega = mcdonald_omega(items)
        except (AnalysisError, ValueError) as exc:
            omega, note = None, f"omega unavailable: {exc}"
    verdict = "acceptable" if np.isfinite(alpha) and alpha >= ALPHA_THRESHOLD else "questionable"
    return BlockReliability(alpha=alpha, omega=omega, n_items=k, verdict=verdict, note=note)


def reliability_report(nm: NormalizedMatrix) -> ReliabilityReport:
    """Alpha and omega per block, with a small-sample caveat."""
    n = len(nm.labels)
    return ReliabilityReport(
        risk=_block_reliability(nm.block_values(Block.RISK)),
        utility=_block_reliability(nm.block_values(Block.UTILITY)),
        caveat=(
            f"computed from {n} approaches; at this sample size the "
            "coefficients are rough diagnostics, not formal tests"
        ),
    )
