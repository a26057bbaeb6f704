"""PCA machinery: classical fit, orientation, alignment with composites,
blockwise analysis, score/orthogonal-distance diagnostics, a simplified
robust fit, acceptance-region projection, and per-group summaries.

The input is always the min-max normalized measure matrix; no further
z-scoring is applied before decomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError
from .geometry import convex_hull
from .model import Block, MeasureSpec, NormalizedMatrix

_EIGEN_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Centered linear model x ~ center + loadings @ scores.

    Loadings are orthonormal columns; eigenvalues are sample variances along
    them, non-increasing. `explained_variance_ratio` is relative to the total
    variance of the fitted data, so it sums to 1 when every rank component is
    retained. Scores hold the projection of each fitted observation.
    """

    center: np.ndarray
    loadings: np.ndarray  # (p, k)
    eigenvalues: np.ndarray  # (k,)
    explained_variance_ratio: np.ndarray  # (k,)
    scores: np.ndarray  # (n, k)
    total_variance: float

    @property
    def k(self) -> int:
        return self.loadings.shape[1]

    def transform(self, data: np.ndarray) -> np.ndarray:
        return (np.asarray(data, dtype=float) - self.center) @ self.loadings


def _centred_svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Column means, centred data, singular values, right singular vectors
    and numerical rank of an n x p matrix."""
    n, p = X.shape
    mu = X.mean(axis=0)
    Xc = X - mu
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise AnalysisError("PCA undefined: data matrix has no variation")
    rank = int(np.sum(s > max(n, p) * np.finfo(float).eps * s[0]))
    return mu, Xc, s, vt, rank


def pca_fit(data: np.ndarray, k: int) -> PcaModel:
    """Classical PCA of an already-normalized matrix via SVD.

    The center is the column-mean vector; eigenvalues are squared singular
    values over (n - 1). Each loading column is sign-fixed so its
    largest-magnitude entry is non-negative, which makes downstream plots
    reproducible. Rank-deficient input reduces the usable component count
    with a warning.
    """
    X = np.asarray(data, dtype=float)
    n = X.shape[0]
    mu, Xc, s, vt, rank = _centred_svd(X)
    if k > rank:
        warnings.warn(
            f"rank-deficient input: usable components reduced from {k} to {rank}",
            UserWarning,
            stacklevel=2,
        )
        k = rank
    eig_all = s**2 / (n - 1)
    total = float(eig_all.sum())
    loadings = vt[:k].T.copy()
    for j in range(k):
        pivot = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[pivot, j] < 0.0:
            loadings[:, j] = -loadings[:, j]
    scores = Xc @ loadings
    return PcaModel(
        center=mu,
        loadings=loadings,
        eigenvalues=eig_all[:k].copy(),
        explained_variance_ratio=eig_all[:k] / total,
        scores=scores,
        total_variance=total,
    )


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sa = a.std()
    sb = b.std()
    if sa == 0.0 or sb == 0.0:
        return float("nan")
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def orient(model: PcaModel, utility: np.ndarray, risk: np.ndarray) -> PcaModel:
    """Fix component signs against the composite scores.

    The first score column is flipped if it correlates negatively with
    composite utility, and the second if it correlates negatively with the
    negated composite risk.
    """
    scores = model.scores.copy()
    loadings = model.loadings.copy()
    if _corr(scores[:, 0], utility) < 0.0:
        scores[:, 0] = -scores[:, 0]
        loadings[:, 0] = -loadings[:, 0]
    if _corr(scores[:, 1], -np.asarray(risk, dtype=float)) < 0.0:
        scores[:, 1] = -scores[:, 1]
        loadings[:, 1] = -loadings[:, 1]
    return replace(model, scores=scores, loadings=loadings)


@dataclass(frozen=True)
class AlignmentReport:
    """How strongly the first component tracks the two composite scores."""

    corr_utility: float
    corr_risk: float
    r2_utility: float
    r2_risk: float
    r2_joint: float
    pc1_explained_variance_ratio: float
    collinear: bool


def alignment(model: PcaModel, utility: np.ndarray, risk: np.ndarray) -> AlignmentReport:
    """Correlate PC1 scores with the composites and regress on both jointly.

    R-squared comes from an intercept + two-regressor least-squares fit; a
    least-squares (pseudoinverse) solution keeps it defined when the two
    composites are collinear, which is flagged.
    """
    t1 = model.scores[:, 0]
    n = t1.shape[0]
    u = np.asarray(utility, dtype=float)
    r = np.asarray(risk, dtype=float)
    rho_u = _corr(t1, u)
    rho_r = _corr(t1, r)
    collinear = abs(_corr(u, r)) > 1.0 - 1e-10
    X = np.column_stack([np.ones(n), u, r])
    beta, *_ = np.linalg.lstsq(X, t1, rcond=None)
    resid = t1 - X @ beta
    sst = float(((t1 - t1.mean()) ** 2).sum())
    if sst == 0.0:
        raise AnalysisError("alignment undefined: first component has no variance")
    r2 = 1.0 - float(resid @ resid) / sst
    return AlignmentReport(
        corr_utility=rho_u,
        corr_risk=rho_r,
        r2_utility=rho_u**2,
        r2_risk=rho_r**2,
        r2_joint=r2,
        pc1_explained_variance_ratio=float(model.explained_variance_ratio[0]),
        collinear=collinear,
    )


@dataclass(frozen=True, eq=False)
class BlockAxis:
    """One block's first principal axis with per-measure contributions."""

    block: Block
    measure_ids: tuple[str, ...]
    loadings: np.ndarray  # signed, unit norm (or [1.0] for the fallback)
    contributions: np.ndarray  # squared loadings normalized to sum 1
    scores: np.ndarray
    explained_variance_ratio: float | None
    fallback: bool  # True when the block has a single measure


@dataclass(frozen=True)
class BlockwisePca:
    utility: BlockAxis
    risk: BlockAxis


def _block_axis(nm: NormalizedMatrix, block: Block) -> BlockAxis:
    idx = nm.block_indices(block)
    vals = nm.values[:, list(idx)]
    fallback = len(idx) == 1
    if fallback:
        warnings.warn(
            f"{block.value} block has a single measure; its axis is the raw "
            "normalized column",
            UserWarning,
            stacklevel=3,
        )
        lam, scores, ratio = np.array([1.0]), vals[:, 0].copy(), None
    else:
        model = pca_fit(vals, k=1)
        lam, scores = model.loadings[:, 0].copy(), model.scores[:, 0].copy()
        ratio = float(model.explained_variance_ratio[0])
    return BlockAxis(
        block=block,
        measure_ids=tuple(nm.specs[j].id for j in idx),
        loadings=lam,
        contributions=lam**2 / float((lam**2).sum()),
        scores=scores,
        explained_variance_ratio=ratio,
        fallback=fallback,
    )


def blockwise_pca(nm: NormalizedMatrix) -> BlockwisePca:
    """Independent one-component PCA per measure block.

    Contributions are squared loadings normalized to sum to one; the signed
    loadings are kept so plots can encode the direction each measure pulls.
    """
    return BlockwisePca(
        utility=_block_axis(nm, Block.UTILITY),
        risk=_block_axis(nm, Block.RISK),
    )


class OutlierFlag(str, Enum):
    REGULAR = "regular"
    GOOD_LEVERAGE = "good_leverage"
    ORTHOGONAL = "orthogonal_outlier"
    BAD_LEVERAGE = "bad_leverage"


def classify_sd_od(sd: float, od: float, sd_cut: float, od_cut: float) -> OutlierFlag:
    """Quadrant classification of one observation's (SD, OD) pair."""
    high_sd = sd > sd_cut
    high_od = od > od_cut
    if high_sd and high_od:
        return OutlierFlag.BAD_LEVERAGE
    if high_sd:
        return OutlierFlag.GOOD_LEVERAGE
    if high_od:
        return OutlierFlag.ORTHOGONAL
    return OutlierFlag.REGULAR


@dataclass(frozen=True, eq=False)
class SdOdDiagnostics:
    labels: tuple[str, ...]
    sd: np.ndarray
    od: np.ndarray
    flags: tuple[OutlierFlag, ...]
    sd_cutoff: float
    od_cutoff: float
    mode: str
    components_used: int


# The pipeline fits k = 2 components, so `sd_od` and `group_summaries` need
# only these quantiles; they are scipy.stats 1.17's values.
_Z975 = 1.959963984540054  # standard normal 0.975 quantile
_CHI2_PPF = {
    (0.95, 2): 5.991464547107979,
    (0.975, 1): 5.023886187314888,
    (0.975, 2): 7.377758908227871,
}


def median(a, axis: int | None = None):
    """`np.median(a, axis)` of a non-empty, NaN-free float array, bit for
    bit: the mean of the middle one or two sorted values as numpy sums them
    (from +0.0, so -0.0 becomes 0.0). `np.median` loads `numpy.ma` for its
    NaN check."""
    a = np.asarray(a, dtype=float)
    if axis is None:
        a, axis = a.ravel(), 0
    n = a.shape[axis]
    half = n // 2
    ordered = np.sort(a, axis=axis)
    mid = ordered.take(half, axis) + 0.0
    if n % 2 == 0:
        mid = (ordered.take(half - 1, axis) + mid) / 2
    return mid


def _madn(x: np.ndarray) -> float:
    med = float(median(x))
    return 1.4826 * float(median(np.abs(x - med)))


def sd_od(
    model: PcaModel, data: np.ndarray, od_cut_mode: str, labels: Sequence[str]
) -> SdOdDiagnostics:
    """Score distance and orthogonal distance of each observation.

    SD is the Mahalanobis-style distance of the score vector inside the
    retained component subspace, sqrt(sum t_j^2 / eigenvalue_j); OD is the
    Euclidean length of the reconstruction residual. The SD cutoff is
    sqrt of the chi-square 0.975 quantile at k degrees of freedom, for a
    model of k = 1 or 2 components. Two OD cutoff modes exist:

    - "hubert": (m + s * z_0.975)^(3/2) with m and s the median and
      normalized MAD of OD^(2/3), a scale-free construction;
    - "literal": median(OD) + z_0.975 * normalized MAD of the raw ODs.

    Components with eigenvalue below 1e-12 are dropped from SD with a warning.
    """
    X = np.asarray(data, dtype=float)
    scores = model.transform(X)
    usable = model.eigenvalues > _EIGEN_EPS
    n_usable = int(usable.sum())
    if n_usable < model.k:
        warnings.warn(
            f"{model.k - n_usable} component(s) with near-zero eigenvalue "
            "dropped from the score distance",
            UserWarning,
            stacklevel=2,
        )
    if n_usable == 0:
        raise AnalysisError("score distance undefined: all eigenvalues are ~0")
    sd = np.sqrt(
        ((scores[:, usable] ** 2) / model.eigenvalues[usable]).sum(axis=1)
    )
    resid = X - model.center - scores @ model.loadings.T
    od = np.linalg.norm(resid, axis=1)

    sd_cut = float(np.sqrt(_CHI2_PPF[0.975, n_usable]))
    if od_cut_mode == "hubert":
        od23 = od ** (2.0 / 3.0)
        od_cut = float((median(od23) + _madn(od23) * _Z975) ** 1.5)
    else:
        od_cut = float(median(od) + _madn(od) * _Z975)

    flags = tuple(
        classify_sd_od(float(s), float(o), sd_cut, od_cut) for s, o in zip(sd, od)
    )
    return SdOdDiagnostics(
        labels=tuple(labels),
        sd=sd,
        od=od,
        flags=flags,
        sd_cutoff=sd_cut,
        od_cutoff=od_cut,
        mode=od_cut_mode,
        components_used=n_usable,
    )


def _stahel_donoho_outlyingness(
    Y: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    # Stacked `ddot`s (norms) and `gemv`s (projections) round as
    # `np.linalg.norm(d)` and `Y @ u` do; one gemm would not, and could reorder
    # tied rows. Rows of even length start 16-byte aligned, like a new vector:
    # Prescott's OpenBLAS kernels sum a misaligned vector in another order.
    p = Y.shape[1]
    i, j = pairs
    Y_even = np.pad(Y, ((0, 0), (0, p % 2)))
    D = Y_even[i] - Y_even[j]
    norms = np.sqrt(np.matmul(D[:, None, :p], D[:, :p, None]))[:, 0, 0]
    keep = ~(norms < 1e-12)
    U = (D[keep] / norms[keep, None])[:, :p]
    z = np.matmul(Y, U[:, :, None])[:, :, 0]  # (directions, n)
    dev = np.abs(z - median(z, axis=1)[:, None])
    mad = 1.4826 * median(dev, axis=1)
    usable = ~(mad < 1e-12)
    if usable.any():
        return np.max(dev[usable] / mad[usable, None], axis=0)
    raise AnalysisError(
        "outlyingness undefined: every projection direction was degenerate"
    )


def _direction_pairs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Observation pairs (i < j) that define projection directions, as the
    arrays of their first and second indices.

    Every pair when n <= 50; otherwise 250 seeded draws from them. Either way
    the pairs come in `itertools.combinations(range(n), 2)` order.
    """
    i, j = np.triu_indices(n, 1)
    if n > 50:
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(i), 250, replace=False))
        i, j = i[chosen], j[chosen]
    return i, j


def robust_pca(data: np.ndarray, k: int, seed: int) -> PcaModel:
    """Outlier-resistant PCA: projection pursuit trimming plus a classical fit.

    Steps: (1) reduce to the affine span of the data, (2) compute
    Stahel-Donoho outlyingness over directions through observation pairs
    (every pair when n <= 50, otherwise 250 seeded draws), (3) run classical
    PCA on the ceil(0.75 n) least-outlying observations, (4) recompute
    scores for all observations against that model. Deterministic for a
    fixed seed.
    """
    X = np.asarray(data, dtype=float)
    n, p = X.shape
    _, Xc, _, vt, rank = _centred_svd(X)
    Y = Xc @ vt[:rank].T

    outlyingness = _stahel_donoho_outlyingness(Y, _direction_pairs(n, seed))

    h = math.ceil(0.75 * n)
    keep = np.sort(np.argsort(outlyingness, kind="stable")[:h])
    model = pca_fit(X[keep], min(k, h - 1, p))
    return replace(model, scores=model.transform(X))


@dataclass(frozen=True, eq=False)
class AcceptancePolygon:
    """Projection of the per-measure acceptance box into the component plane.

    Vertices are the convex hull of the projected box corners, in
    counter-clockwise order, implicitly closed.
    """

    vertices: np.ndarray  # (m, 2)
    thresholds: dict[str, float]


def project_acceptance_region(
    model: PcaModel,
    specs: Sequence[MeasureSpec],
    thresholds: Mapping[str, float],
) -> AcceptancePolygon:
    """Project the axis-aligned feasibility box into the first two components.

    Per measure the acceptable interval in normalized units is [0, c] for
    risk and [c, 1] for utility. The projected box is a zonotope with one
    generator (hi - lo) * loadings[j, :2] per measure, so at most 2p corners
    are vertices (Ziegler, *Lectures on Polytopes*, ch. 7). With every
    generator turned into the upper half-plane, they are the corners that
    switch the generators on, then off, one at a time in order of angle. The
    polygon is exact for any number of measures.
    """
    p = len(specs)
    resolved: dict[str, float] = {}
    intervals: list[tuple[float, float]] = []
    for spec in specs:
        c = float(thresholds.get(spec.id, 1.0 if spec.block is Block.RISK else 0.0))
        resolved[spec.id] = c
        intervals.append((0.0, c) if spec.block is Block.RISK else (c, 1.0))

    los = np.array([iv[0] for iv in intervals])
    his = np.array([iv[1] for iv in intervals])
    gens = (his - los)[:, None] * model.loadings[:, :2]
    flip = (gens[:, 1] < 0.0) | ((gens[:, 1] == 0.0) & (gens[:, 0] < 0.0))
    gens[flip] = -gens[flip]
    order = np.argsort(np.arctan2(gens[:, 1], gens[:, 0]), kind="stable")
    # row k switches on the first k generators by angle; True picks the upper
    # end of the interval, which a flipped generator switches off
    steps = np.zeros((p, p), dtype=bool)
    steps[:, order] = np.tri(p, k=-1, dtype=bool)
    bits = np.vstack([steps, ~steps]) ^ flip
    centred = np.where(bits, his - model.center, los - model.center)
    projected = centred @ model.loadings[:, :2]
    return AcceptancePolygon(vertices=convex_hull(projected), thresholds=resolved)


@dataclass(frozen=True, eq=False)
class GroupSummary:
    """Centroid plus a dispersion glyph (95% ellipse or convex hull) per group."""

    label: str
    centroid: np.ndarray
    ellipse_axes: np.ndarray | None  # (2, 2): rows are semi-axis vectors
    hull: np.ndarray | None  # fallback when the ellipse is unavailable

    @property
    def kind(self) -> str:
        if self.ellipse_axes is not None:
            return "ellipse"
        if self.hull is not None and len(self.hull) > 1:
            return "hull"
        return "point"


def group_summaries(
    scores: np.ndarray, groups: Sequence[str]
) -> tuple[GroupSummary, ...]:
    """Per-group centroids with 95% normal ellipses, hulls as fallback.

    Groups of at least 3 points with a non-singular 2x2 score covariance get
    an ellipse whose semi-axes are the covariance eigenvectors scaled by
    sqrt(chisq2_0.95 * eigenvalue); degenerate groups fall back to a convex
    hull, singletons to the bare centroid.
    """
    pts = np.asarray(scores, dtype=float)
    chi2_2 = _CHI2_PPF[0.95, 2]
    out = []
    for g in sorted(set(groups)):
        members = pts[np.array([lbl == g for lbl in groups], dtype=bool)]
        centroid = members.mean(axis=0)
        ellipse = None
        hull = None
        if members.shape[0] >= 3:
            cov = np.cov(members, rowvar=False, ddof=1)
            eigvals, eigvecs = np.linalg.eigh(cov)
            if eigvals.min() > _EIGEN_EPS:
                ellipse = np.stack(
                    [
                        eigvecs[:, 1] * math.sqrt(chi2_2 * eigvals[1]),
                        eigvecs[:, 0] * math.sqrt(chi2_2 * eigvals[0]),
                    ]
                )
            else:
                hull = convex_hull(members)
        elif members.shape[0] == 2:
            hull = convex_hull(members)
        out.append(
            GroupSummary(label=g, centroid=centroid, ellipse_axes=ellipse, hull=hull)
        )
    return tuple(out)
