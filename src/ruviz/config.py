"""Study configuration: measure declarations, reference approach, run options."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

from .errors import ValidationError
from .model import Block, MeasureSpec, _check_text, _validate_specs

OD_CUT_MODES = ("hubert", "literal")
LINKAGES = ("complete", "average", "single")
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def _has_type(value, expected: type) -> bool:
    """JSON typing: a bool is only a bool, and a float may be given as an int."""
    if expected is bool or isinstance(value, bool):
        return expected is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if expected is float else expected)


def _check_reference(reference) -> None:
    if not isinstance(reference, str) or not reference:
        raise ValidationError("config.reference: required string (approach id)")
    _check_text(reference, "config.reference")


def _check_thresholds(doc, where: str) -> None:
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{where}: must be an object {{measure id: cutoff}}")
    for mid, c in doc.items():
        # compare before converting: float() overflows on a huge JSON integer
        if not _has_type(c, float) or not 0.0 <= c <= 1.0:
            raise ValidationError(f"{where}['{mid}']: must be in [0, 1], got {c!r}")


@dataclass(frozen=True)
class StudyOptions:
    """Run options; every field has a documented default echoed into reports."""

    exclude_reference_from_range: bool = False
    orient: bool = False
    od_cut_mode: str = "hubert"
    r_aux: float = 0.1
    linkage: str = "complete"
    seed: int = 42
    robust: bool = False
    pca_exclude_reference: bool = False
    cluster_columns: bool = False
    thresholds: Mapping[str, float] | None = field(default=None, hash=False)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.default is not None and not _has_type(value, type(f.default)):
                raise ValidationError(
                    f"options.{f.name}: must be {_TYPE_NAMES[type(f.default)]}, "
                    f"got {value!r}"
                )
        if self.od_cut_mode not in OD_CUT_MODES:
            raise ValidationError(
                f"options.od_cut_mode: must be one of {OD_CUT_MODES}, "
                f"got '{self.od_cut_mode}'"
            )
        if self.linkage not in LINKAGES:
            raise ValidationError(
                f"options.linkage: must be one of {LINKAGES}, got '{self.linkage}'"
            )
        if not 0.0 < self.r_aux < 1.0:
            raise ValidationError(
                f"options.r_aux: must be in (0, 1), got {self.r_aux}"
            )
        if self.seed < 0:
            raise ValidationError("options.seed: must be a non-negative integer")
        if self.thresholds is not None:
            _check_thresholds(self.thresholds, "options.thresholds")
            object.__setattr__(self, "thresholds", MappingProxyType(dict(self.thresholds)))


@dataclass(frozen=True)
class StudyConfig:
    """Parsed study configuration; measures are ordered risk block first."""

    measures: tuple[MeasureSpec, ...]
    reference_id: str
    options: StudyOptions = field(default_factory=StudyOptions)

    def __post_init__(self) -> None:
        _validate_specs(self.measures)
        _check_reference(self.reference_id)
        risk = tuple(s for s in self.measures if s.block is Block.RISK)
        util = tuple(s for s in self.measures if s.block is Block.UTILITY)
        object.__setattr__(self, "measures", risk + util)
        if self.options.thresholds is not None:
            unknown = sorted(set(self.options.thresholds) - set(self.measure_ids))
            if unknown:
                raise ValidationError(
                    f"options.thresholds: unknown measure id(s) {unknown}"
                )

    @property
    def measure_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.measures)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        doc = _parse_json(text, "config")
        if not isinstance(doc, dict):
            raise ValidationError("config: top-level value must be an object")

        raw_measures = doc.get("measures")
        if not isinstance(raw_measures, list) or not raw_measures:
            raise ValidationError("config.measures: required non-empty list")
        specs = []
        for i, m in enumerate(raw_measures):
            if not isinstance(m, dict):
                raise ValidationError(f"config.measures[{i}]: must be an object")
            try:
                specs.append(MeasureSpec(
                    id=m.get("id"), display_name=m.get("display_name", m.get("id")),
                    block=m.get("block"), direction=m.get("direction")))
            except ValidationError as exc:
                raise ValidationError(f"config.measures[{i}].{exc}") from None

        reference = doc.get("reference")
        _check_reference(reference)  # the reference is reported before the options

        opts_doc = doc.get("options", {})
        if not isinstance(opts_doc, dict):
            raise ValidationError("config.options: must be an object")
        known = {f.name for f in dc_fields(StudyOptions)}
        unknown = sorted(set(opts_doc) - known)
        if unknown:
            raise ValidationError(f"config.options: unknown option(s) {unknown}")
        _validate_specs(specs)  # measure faults are reported before option faults
        return cls(measures=tuple(specs), reference_id=reference,
                   options=StudyOptions(**opts_doc))

    @classmethod
    def from_file(cls, path: str | Path) -> "StudyConfig":
        return cls.from_json(_read_text(path, "config"))


def _read_text(path: str | Path, where: str) -> str:
    """A UTF-8 text file, with or without a byte-order mark."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{where}: cannot read '{p}' ({exc})") from None


def _parse_json(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a 4,300-digit integer, deep nesting
        raise ValidationError(f"{where}: invalid JSON ({exc})") from None


def load_thresholds(path: str | Path) -> dict[str, float]:
    """Read a per-measure acceptance-threshold file ({measure id: cutoff})."""
    doc = _parse_json(_read_text(path, "thresholds"), "thresholds")
    _check_thresholds(doc, "thresholds")
    return {str(mid): float(c) for mid, c in doc.items()}
