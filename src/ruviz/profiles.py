"""Radial (origami-style) polygon profiles, ranked by area.

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

from .model import NormalizedMatrix

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


def _profiles(ids: Sequence[str], values, measure_ids: Sequence[str],
              r_aux: float) -> tuple[RadialProfile, ...]:
    """One radial profile per row of `values`, all rows computed at once.

    The profiles share one read-only `angles` array. Each area is the
    shoelace formula, with the vector products of `np.dot` row by row.
    """
    vals = np.asarray(values, dtype=float)
    m = vals.shape[1]
    if m < 3:
        raise ValueError("a radial profile needs at least 3 measures")
    if len(measure_ids) != m:
        raise ValueError("one measure id per value required")
    if not 0.0 < r_aux < 1.0:
        raise ValueError(f"r_aux must be in (0, 1), got {r_aux}")
    if np.any(vals < -1e-9) or np.any(vals > 1.0 + 1e-9):
        raise ValueError("profile values must be normalized to [0, 1]")

    angles = np.arange(2 * m) * (2.0 * np.pi) / (2 * m)
    angles.flags.writeable = False

    def polygons(radii_main: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        radii = np.empty((len(radii_main), 2 * m))
        radii[:, 0::2] = radii_main
        radii[:, 1::2] = r_aux
        xy = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
        x, y = xy[..., 0], xy[..., 1]
        # a stack of (1, 2m) @ (2m, 1) products runs np.dot's kernel per row
        cross = (x[:, None, :] @ np.roll(y, -1, axis=1)[:, :, None]
                 - y[:, None, :] @ np.roll(x, -1, axis=1)[:, :, None])
        return radii, xy, 0.5 * np.abs(cross[:, 0, 0])

    radii, xy, areas = polygons(np.clip(vals, 0.0, 1.0))
    ones_area = float(polygons(np.ones((1, m)))[2][0])
    axes = tuple(measure_ids)
    return tuple(
        RadialProfile(id=str(pid), measure_ids=axes, angles=angles, radii=radii[i],
                      vertices=xy[i], r_aux=float(r_aux), area_raw=area,
                      area_normalized=area / ones_area)
        for i, (pid, area) in enumerate(zip(ids, areas.tolist()))
    )


def origami_profiles(nm: NormalizedMatrix, r_aux: float = 0.1) -> tuple[RadialProfile, ...]:
    """One radial profile per approach, axes in declared measure order."""
    return _profiles(nm.labels, nm.values, tuple(s.id for s in nm.specs), r_aux)


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
