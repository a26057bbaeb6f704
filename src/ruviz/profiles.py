"""Radial (origami-style) polygon profiles, ranked by area.

Each approach's normalized values become radii on the even spokes of a
2m-gon; the odd spokes carry a fixed auxiliary radius, which makes the
polygon area independent of the axis order. Areas are reported relative to
the all-ones profile, so a row at the normalized maximum everywhere scores
exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NormalizedMatrix

AREA_CAVEAT = (
    "areas are descriptive only: risk axes are not inverted, so a large "
    "polygon can reflect high risk as much as high utility"
)


@dataclass(frozen=True, eq=False)
class RadialProfiles:
    """Closed polygons over alternating measure and auxiliary spokes, one
    row per approach, all on the same axes."""

    ids: tuple[str, ...]
    measure_ids: tuple[str, ...]
    r_aux: float
    angles: np.ndarray  # (2m,) strictly increasing over [0, 2*pi)
    radii: np.ndarray  # (n, 2m) values on even spokes, r_aux on odd spokes
    vertices: np.ndarray  # (n, 2m, 2) Cartesian
    area_raw: np.ndarray  # (n,)
    area_normalized: np.ndarray  # (n,)


def origami_profiles(nm: NormalizedMatrix, r_aux: float) -> RadialProfiles:
    """One radial profile per approach, axes in declared measure order.

    Each area is the shoelace formula, with the vector products of `np.dot`
    row by row.
    """
    m = len(nm.specs)
    angles = np.arange(2 * m) * (2.0 * np.pi) / (2 * m)

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

    # the matrix may hold values up to 1e-9 outside [0, 1]
    radii, xy, areas = polygons(np.clip(nm.values, 0.0, 1.0))
    ones_area = polygons(np.ones((1, m)))[2][0]
    return RadialProfiles(ids=nm.labels, measure_ids=tuple(s.id for s in nm.specs),
                          r_aux=float(r_aux), angles=angles, radii=radii, vertices=xy,
                          area_raw=areas, area_normalized=areas / ones_area)


@dataclass(frozen=True, eq=False)
class AreaTable:
    """Approach ids and their normalized areas, largest area first."""

    ids: tuple[str, ...]
    areas: np.ndarray
    caveat: str = AREA_CAVEAT


def ranked_areas(profiles: RadialProfiles) -> AreaTable:
    """Profiles ranked by normalized area, descending, ties by id."""
    areas = profiles.area_normalized.tolist()
    order = sorted(range(len(areas)), key=lambda i: (-areas[i], profiles.ids[i]))
    return AreaTable(ids=tuple(profiles.ids[i] for i in order),
                     areas=profiles.area_normalized[order])
