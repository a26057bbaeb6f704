"""Measure-matrix data model: CSV ingestion, direction harmonization, min-max scaling.

A study evaluates a set of anonymization approaches (rows) against a set of
risk and utility measures (columns). Raw values arrive in arbitrary units and
directions; :func:`harmonize_and_normalize` rescales every column to [0, 1]
with a fixed orientation: utility columns read "higher is more utility" and
risk columns read "higher is more disclosure risk".
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .config import StudyConfig


class Block(str, Enum):
    RISK = "risk"
    UTILITY = "utility"


class Direction(str, Enum):
    """Orientation of the raw values: which end is the desirable one."""

    HIGHER = "higher"
    LOWER = "lower"


# the characters outside XML 1.0's Char production (C0 controls but tab, LF, CR)
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_text(text: str, where: str) -> None:
    """Raise unless XML 1.0 can carry `text`, which the figures print."""
    if c := _NOT_XML_CHAR.search(text):
        raise ValidationError(f"{where} holds U+{ord(c.group()):04X}, not allowed in XML 1.0")


@dataclass(frozen=True)
class MeasureSpec:
    """Declares one measure: block membership and raw-value direction, each
    given as a member or its value and held as the member."""

    id: str
    display_name: str
    block: Block
    direction: Direction

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("id: required string")
        if not isinstance(self.display_name, str):
            raise ValidationError(f"display_name: must be a string, got {self.display_name!r}")
        for key, kind in (("block", Block), ("direction", Direction)):
            allowed = tuple(k.value for k in kind)
            if (value := getattr(self, key)) not in allowed:
                raise ValidationError(f"{key}: must be {' or '.join(map(repr, allowed))}, "
                                      f"got {value!r}")
            object.__setattr__(self, key, kind(value))
        _check_text(self.id, "id")
        _check_text(self.display_name, "display_name")


def _check_approach(approach: object, dataset: object, is_reference: object) -> None:
    """Raise unless one row's id, dataset and reference flag make an approach."""
    if not isinstance(approach, str):
        raise ValidationError(f"approach id: must be a string, got {approach!r}")
    _check_text(approach, "approach id")
    if not approach:
        raise ValidationError("empty approach id")
    if not (dataset is None or isinstance(dataset, str) and dataset):
        raise ValidationError(f"dataset: must be a non-empty string or None, got {dataset!r}")
    _check_text(dataset or "", "dataset")
    if not isinstance(is_reference, (bool, np.bool_)):
        raise ValidationError(f"is_reference: must be a bool, got {is_reference!r}")


@dataclass(frozen=True, eq=False)
class Approaches:
    """The evaluated approaches as columns, one entry per row: approach
    `ids[i]` of dataset `datasets[i]` (None in a single-dataset study), the
    reference of its dataset where `is_reference[i]`. Row i is named by
    `labels[i]`, `id@dataset` within a dataset, and its dataset sits at
    `dataset_index[i]` in `dataset_names`, which are sorted with None first."""

    ids: tuple[str, ...]
    datasets: tuple[str | None, ...]
    is_reference: np.ndarray
    labels: tuple[str, ...] = field(init=False)
    dataset_names: tuple[str | None, ...] = field(init=False)
    dataset_index: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        ids, datasets, flags = tuple(self.ids), tuple(self.datasets), tuple(self.is_reference)
        if not len(ids) == len(datasets) == len(flags):
            raise ValidationError("approaches: ids, datasets and is_reference differ in length "
                                  f"({len(ids)}, {len(datasets)}, {len(flags)})")
        for row in zip(ids, datasets, flags):
            _check_approach(*row)
        labels = tuple(i if d is None else f"{i}@{d}" for i, d in zip(ids, datasets))
        # a label names one row in every artifact and figure
        first: dict[str, int] = {}
        for i, label in enumerate(labels):
            if (j := first.setdefault(label, i)) < i:
                a, b = (ids[k] if datasets[k] is None else f"{ids[k]} in dataset {datasets[k]}"
                        for k in (j, i))
                raise ValidationError(
                    f"data: duplicate approach row '{b}'" if datasets[j] == datasets[i]
                    else f"data: approach rows '{a}' and '{b}' share the label '{label}'")
        # "" stands for None, which it sorts before; an empty dataset is refused
        names, index = np.unique([d or "" for d in datasets], return_inverse=True)
        is_reference = np.array(flags, dtype=bool)
        # the first reference row whose dataset holds another one
        over = is_reference & (np.bincount(index[is_reference], minlength=names.size) > 1)[index]
        if over.any():
            ds = datasets[over.argmax()]
            where = "" if ds is None else f" in dataset '{ds}'"
            raise ValidationError(f"data: more than one reference row{where}")
        index.setflags(write=False)
        is_reference.setflags(write=False)
        vars(self).update(ids=ids, datasets=datasets, is_reference=is_reference, labels=labels,
                          dataset_names=tuple(d or None for d in names.tolist()),
                          dataset_index=index)


def _validate_specs(specs: Sequence[MeasureSpec]) -> None:
    seen = set()
    for s in specs:
        if s.id in seen:
            raise ValidationError(f"measures: duplicate id '{s.id}'")
        seen.add(s.id)
    n_risk = sum(1 for s in specs if s.block is Block.RISK)
    n_util = sum(1 for s in specs if s.block is Block.UTILITY)
    if n_risk == 0 or n_util == 0:
        raise ValidationError(
            "measures: need at least one risk and one utility measure "
            f"(got {n_risk} risk, {n_util} utility)"
        )


class _Grid:
    """Row labels and block columns of a matrix over `approaches` x `specs`."""

    @property
    def labels(self) -> tuple[str, ...]:
        return self.approaches.labels

    def block_indices(self, block: Block) -> tuple[int, ...]:
        return tuple(j for j, s in enumerate(self.specs) if s.block is block)


@dataclass(frozen=True, eq=False)
class MeasureMatrix(_Grid):
    """Raw measure values, rows = approaches, columns = declared measures."""

    specs: tuple[MeasureSpec, ...]
    approaches: Approaches
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        n = len(self.labels)
        if vals.shape != (n, len(self.specs)):
            raise ValidationError(
                f"values: shape {vals.shape} does not match "
                f"{n} rows x {len(self.specs)} measures"
            )
        if not np.all(np.isfinite(vals)):
            i, j = np.argwhere(~np.isfinite(vals))[0]
            raise ValidationError(
                f"row '{self.labels[i]}', column '{self.specs[j].id}': "
                "non-finite value"
            )
        _validate_specs(self.specs)
        if n < 2:
            raise ValidationError(f"data: at least 2 rows required, got {n}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ColumnScale:
    """Per-column raw range kept for inverse mapping back to raw units."""

    raw_min: float
    raw_max: float
    flipped: bool
    constant: bool


@dataclass(frozen=True, eq=False)
class NormalizedMatrix(_Grid):
    """Min-max scaled, direction-harmonized values in [0, 1]."""

    specs: tuple[MeasureSpec, ...]
    approaches: Approaches
    values: np.ndarray
    scales: tuple[ColumnScale, ...]

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (len(self.labels), len(self.specs)):
            raise ValidationError("normalized values: shape mismatch")
        if len(self.scales) != len(self.specs):
            raise ValidationError("normalized values: one scale per column required")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("normalized values: non-finite entry")
        if vals.size and (vals.min() < -1e-9 or vals.max() > 1.0 + 1e-9):
            raise ValidationError("normalized values: entry outside [0, 1]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def block_values(self, block: Block) -> np.ndarray:
        return self.values[:, list(self.block_indices(block))]


def ingest(data: bytes | str, config: "StudyConfig") -> MeasureMatrix:
    """Parse a measures CSV against a study configuration.

    The CSV must carry a header row `approach[,dataset],<measure ids...>`.
    Measure columns may appear in any order in the file; the resulting matrix
    follows the configuration's declaration order (risk block first).

    Raises:
        ValidationError: missing or undeclared columns, non-numeric or
            non-finite cells, duplicate rows or labels, fewer than two rows, a
            missing reference row, a label that XML 1.0 cannot carry, or bytes
            that are not UTF-8 (a leading byte-order mark is skipped).
    """
    try:
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ValidationError(f"data: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text))
    try:
        raw_rows = [(reader.line_num, row) for row in reader
                    if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:  # a cell longer than the csv module's field size limit
        raise ValidationError(f"data line {reader.line_num}: {exc}") from None
    if not raw_rows:
        raise ValidationError("data: empty CSV")

    header = [h.strip() for h in raw_rows[0][1]]
    if not header or header[0] != "approach":
        raise ValidationError("data: first CSV column must be 'approach'")
    has_dataset = len(header) > 1 and header[1] == "dataset"
    offset = 2 if has_dataset else 1
    file_measures = header[offset:]

    declared = [s.id for s in config.measures]
    dupes = {m for m in file_measures if file_measures.count(m) > 1}
    if dupes:
        raise ValidationError(f"data: duplicate measure column(s): {sorted(dupes)}")
    missing = [m for m in declared if m not in file_measures]
    if missing:
        raise ValidationError(f"data: missing measure column(s): {missing}")
    extra = [m for m in file_measures if m not in declared]
    if extra:
        raise ValidationError(f"data: undeclared measure column(s): {extra}")
    col_pos = {m: offset + file_measures.index(m) for m in declared}

    ids, datasets, is_reference, values = [], [], [], []
    for line_no, row in raw_rows[1:]:
        if len(row) != len(header):
            raise ValidationError(
                f"data line {line_no}: expected {len(header)} fields, got {len(row)}"
            )
        approach_id = row[0].strip()
        dataset = row[1].strip() or None if has_dataset else None
        is_ref = approach_id == config.reference_id
        try:
            _check_approach(approach_id, dataset, is_ref)
        except ValidationError as exc:
            raise ValidationError(f"data line {line_no}: {exc}") from None
        ids.append(approach_id)
        datasets.append(dataset)
        is_reference.append(is_ref)
        cells = []
        for spec in config.measures:
            raw = row[col_pos[spec.id]].strip()
            try:
                v = float(raw)
            except ValueError:
                raise ValidationError(
                    f"row '{approach_id}', column '{spec.id}': "
                    f"non-numeric value '{raw}'"
                ) from None
            if not math.isfinite(v):
                raise ValidationError(
                    f"row '{approach_id}', column '{spec.id}': "
                    f"non-finite value '{raw}'"
                )
            cells.append(v)
        values.append(cells)

    matrix = MeasureMatrix(
        specs=tuple(config.measures),
        approaches=Approaches(tuple(ids), tuple(datasets), is_reference),
        values=np.array(values, dtype=float),
    )
    a = matrix.approaches
    # the first dataset, in sorted order, that holds no reference row
    missing = np.bincount(a.dataset_index[a.is_reference], minlength=len(a.dataset_names)) == 0
    if missing.any():
        ds = a.dataset_names[missing.argmax()]
        where = "" if ds is None else f" in dataset '{ds}'"
        raise ValidationError(f"data: reference approach '{config.reference_id}' not found{where}")
    return matrix


def harmonize_and_normalize(
    matrix: MeasureMatrix, exclude_reference_from_range: bool = False
) -> NormalizedMatrix:
    """Min-max scale each column to [0, 1] and orient it to its block semantics.

    Utility columns end with higher = more utility, risk columns with
    higher = more disclosure risk. By default the reference row takes part in
    the per-column min/max; with `exclude_reference_from_range` the ranges
    come from the candidate rows only and reference values are clamped into
    [0, 1]. Constant columns map to 0.5 everywhere and emit a warning.
    """
    pop_mask = ~(matrix.approaches.is_reference & exclude_reference_from_range)
    if not pop_mask.any():
        raise ValidationError(
            "cannot exclude the reference from ranges: no candidate rows"
        )
    # a row per column, so that each column reduces as one 1-D array: that
    # settles whether a zero range end is 0.0 or -0.0 (axis 0 may differ)
    pop = matrix.values[pop_mask].T.copy()
    lo, hi = pop.min(axis=1), pop.max(axis=1)
    flip = [(s.block is Block.UTILITY) == (s.direction is Direction.LOWER)
            for s in matrix.specs]
    scales = tuple(ColumnScale(a, b, flipped=f, constant=a == b)
                   for a, b, f in zip(lo.tolist(), hi.tolist(), flip))
    for spec, sc in zip(matrix.specs, scales):  # in column order
        if math.isinf(sc.raw_max - sc.raw_min):
            raise ValidationError(
                f"measure '{spec.id}': range {sc.raw_min:g} to {sc.raw_max:g} overflows")
        if sc.constant:
            warnings.warn(
                f"measure '{spec.id}' is constant over the scaling population; "
                "normalized to 0.5",
                UserWarning,
                stacklevel=2,
            )

    constant = lo == hi
    with np.errstate(over="ignore"):  # only a reference outside the range overflows
        scaled = (matrix.values - lo) / np.where(constant, 1.0, hi - lo)
    if exclude_reference_from_range:
        scaled = np.clip(scaled, 0.0, 1.0)
    out = np.where(constant, 0.5, np.where(flip, 1.0 - scaled, scaled))
    return NormalizedMatrix(specs=matrix.specs, approaches=matrix.approaches, values=out,
                            scales=scales)
