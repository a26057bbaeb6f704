"""Radial (origami-style) polygon profiles and parallel-coordinate polylines.

Each approach's normalized values become radii on the even spokes of a
2m-gon; the odd spokes carry a fixed auxiliary radius, which makes the
polygon area independent of the axis order. Areas are reported relative to
the all-ones profile, so a row at the normalized maximum everywhere scores
exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import shoelace_area
from .model import Block, NormalizedMatrix

AREA_CAVEAT = (
    "areas are descriptive only: risk axes are not inverted, so a large "
    "polygon can reflect high risk as much as high utility"
)


@dataclass(frozen=True)
class RadialProfile:
    """Closed polygon over alternating measure and auxiliary spokes."""

    id: str
    measure_ids: tuple[str, ...]
    angles: np.ndarray  # (2m,) strictly increasing over [0, 2*pi)
    radii: np.ndarray  # (2m,) values on even spokes, r_aux on odd spokes
    vertices: np.ndarray  # (2m, 2) Cartesian
    r_aux: float
    area_raw: float
    area_normalized: float


def build_origami(
    profile_id: str,
    values: Sequence[float],
    measure_ids: Sequence[str],
    r_aux: float = 0.1,
) -> RadialProfile:
    """Build one radial profile from normalized values.

    Requires at least 3 measures and 0 < r_aux < 1.
    """
    vals = np.asarray(values, dtype=float)
    m = vals.shape[0]
    if m < 3:
        raise ValueError("a radial profile needs at least 3 measures")
    if len(measure_ids) != m:
        raise ValueError("one measure id per value required")
    if not 0.0 < r_aux < 1.0:
        raise ValueError(f"r_aux must be in (0, 1), got {r_aux}")
    if np.any(vals < -1e-9) or np.any(vals > 1.0 + 1e-9):
        raise ValueError("profile values must be normalized to [0, 1]")

    def polygon(radii_main: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        angles = np.arange(2 * m) * (2.0 * np.pi) / (2 * m)
        radii = np.empty(2 * m)
        radii[0::2] = radii_main
        radii[1::2] = r_aux
        xy = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        return angles, radii, xy

    angles, radii, xy = polygon(np.clip(vals, 0.0, 1.0))
    area_raw = shoelace_area(xy)
    _, _, ones_xy = polygon(np.ones(m))
    ones_area = shoelace_area(ones_xy)
    return RadialProfile(
        id=str(profile_id),
        measure_ids=tuple(measure_ids),
        angles=angles,
        radii=radii,
        vertices=xy,
        r_aux=float(r_aux),
        area_raw=float(area_raw),
        area_normalized=float(area_raw / ones_area),
    )


def origami_profiles(nm: NormalizedMatrix, r_aux: float = 0.1) -> tuple[RadialProfile, ...]:
    """One radial profile per approach, axes in declared measure order."""
    ids = tuple(s.id for s in nm.specs)
    return tuple(
        build_origami(row.label, nm.values[i], ids, r_aux=r_aux)
        for i, row in enumerate(nm.rows)
    )


@dataclass(frozen=True)
class AreaEntry:
    id: str
    area: float
    display: str  # two-decimal rendering for tables


@dataclass(frozen=True)
class AreaTable:
    entries: tuple[AreaEntry, ...]
    caveat: str = AREA_CAVEAT


def ranked_areas(profiles: Sequence[RadialProfile]) -> AreaTable:
    """Profiles ranked by normalized area, descending, ties by id."""
    if profiles:
        first = profiles[0]
        for p in profiles[1:]:
            if p.measure_ids != first.measure_ids or p.r_aux != first.r_aux:
                raise ValueError("profiles must share axis order and r_aux")
    ordered = sorted(profiles, key=lambda p: (-p.area_normalized, p.id))
    return AreaTable(
        entries=tuple(
            AreaEntry(id=p.id, area=p.area_normalized,
                      display=f"{p.area_normalized:.2f}")
            for p in ordered
        )
    )


@dataclass(frozen=True)
class PcpAxis:
    measure_id: str
    block: Block


@dataclass(frozen=True)
class PcpLine:
    id: str
    values: np.ndarray  # one vertex per axis
    is_pareto: bool
    is_reference: bool


@dataclass(frozen=True)
class PcpLines:
    axes: tuple[PcpAxis, ...]
    lines: tuple[PcpLine, ...]


def build_pcp(nm: NormalizedMatrix, pareto_ids: frozenset[str] | set[str]) -> PcpLines:
    """Polyline view of the normalized matrix, flagged for highlighting.

    Axis order follows the declared measure order (risk facet first); vertex
    values are the normalized matrix entries unchanged.
    """
    axes = tuple(PcpAxis(measure_id=s.id, block=s.block) for s in nm.specs)
    lines = tuple(
        PcpLine(
            id=row.label,
            values=nm.values[i].copy(),
            is_pareto=row.label in pareto_ids,
            is_reference=row.is_reference,
        )
        for i, row in enumerate(nm.rows)
    )
    return PcpLines(axes=axes, lines=lines)
