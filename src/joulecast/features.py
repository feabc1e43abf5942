"""Design matrices: named feature sets, log features, polynomial expansion, scaling.

The raw feature order is fixed per layer kind: parameters first (the kind's
``KindSpec.fields``, in canonical order), then their log1p transforms, then
the MAC count. Polynomial expansion happens after the log features are
assembled and before any standardization. The target is always min-max
normalized to [0, 1] on the training records; predictions are mapped back to
joules with the linear inverse (no clipping).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement

import numpy as np

from .arch import KIND_SPECS, LayerConfig, LayerKind
from .dataset import MeasurementRecord
from .errors import (
    ConstantColumnWarning,
    DegreeOutOfRangeError,
    EmptyRecordsError,
    KindMismatchError,
    NonFiniteError,
    UnfittedScalerError,
    ValidationError,
)

TARGET_COLUMN = "cpu_energy_j"


class FeatureSetKind(str, Enum):
    PARAMETER = "parameter"
    LOG_PARAMETER = "log_parameter"
    MAC_ONLY = "mac_only"
    PARAMETER_MAC = "parameter_mac"
    LOG_PARAMETER_MAC = "log_parameter_mac"

    @property
    def has_params(self) -> bool:
        return self is not FeatureSetKind.MAC_ONLY

    @property
    def has_logs(self) -> bool:
        return self in (FeatureSetKind.LOG_PARAMETER, FeatureSetKind.LOG_PARAMETER_MAC)

    @property
    def has_mac(self) -> bool:
        return self in (FeatureSetKind.MAC_ONLY, FeatureSetKind.PARAMETER_MAC, FeatureSetKind.LOG_PARAMETER_MAC)

    @property
    def label(self) -> str:
        return _FEATURE_SET_LABELS[self]


_FEATURE_SET_LABELS = {
    FeatureSetKind.PARAMETER: "parameter",
    FeatureSetKind.LOG_PARAMETER: "(log+)parameter",
    FeatureSetKind.MAC_ONLY: "MACs",
    FeatureSetKind.PARAMETER_MAC: "parameter-MAC",
    FeatureSetKind.LOG_PARAMETER_MAC: "(log+)parameter-MAC",
}

def raw_feature_names(kind: LayerKind, feature_set: FeatureSetKind) -> tuple[str, ...]:
    params = KIND_SPECS[kind].fields
    names: tuple[str, ...] = ()
    if feature_set.has_params:
        names += params
    if feature_set.has_logs:
        names += tuple(f"log_{p}" for p in params)
    if feature_set.has_mac:
        names += ("macs",)
    return names


def raw_feature_row(config: LayerConfig, macs: int, feature_set: FeatureSetKind) -> list[float]:
    """Assemble one raw feature row; log features are ln(1+x) so padding=0 stays finite."""
    params = [float(getattr(config, name)) for name in KIND_SPECS[config.kind].fields]
    row: list[float] = []
    if feature_set.has_params:
        row += params
    if feature_set.has_logs:
        row += [math.log1p(v) for v in params]
    if feature_set.has_mac:
        row.append(float(macs))
    return row


@dataclass(frozen=True)
class PolynomialSpec:
    """Monomial expansion up to ``degree``; interaction-only keeps exponents at 1."""

    degree: int
    interaction_only: bool = False

    def __post_init__(self):
        if not 1 <= self.degree <= 4:
            raise DegreeOutOfRangeError(f"polynomial degree {self.degree} outside [1, 4]")

    @property
    def label(self) -> str:
        if self.degree == 1:
            return ""
        return f"d={self.degree}, ito" if self.interaction_only else f"d={self.degree}"


def polynomial_names(names: tuple[str, ...], spec: PolynomialSpec | None) -> tuple[str, ...]:
    if spec is None or spec.degree == 1:
        return tuple(names)
    out: list[str] = []
    for combo in _monomials(len(names), spec):
        parts = []
        for idx in sorted(set(combo)):
            power = combo.count(idx)
            parts.append(names[idx] if power == 1 else f"{names[idx]}^{power}")
        out.append("*".join(parts))
    return tuple(out)


def _monomials(p: int, spec: PolynomialSpec):
    """Index tuples of all monomials, graded by total degree then lexicographic."""
    chooser = combinations if spec.interaction_only else combinations_with_replacement
    for degree in range(1, spec.degree + 1):
        yield from chooser(range(p), degree)


def expand_polynomial(X: np.ndarray, spec: PolynomialSpec | None) -> np.ndarray:
    """Expand columns into monomials of total degree 1..d (no constant column)."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise NonFiniteError("polynomial expansion requires finite inputs")
    if spec is None or spec.degree == 1:
        return X
    columns = [np.prod(X[:, combo], axis=1) for combo in _monomials(X.shape[1], spec)]
    return np.column_stack(columns)


@dataclass(frozen=True)
class ScalerParams:
    """Fitted scaler state; ``columns`` are the kept columns in order."""

    kind: str  # "none" | "zscore" | "minmax"
    columns: tuple[str, ...] = ()
    mean: tuple[float, ...] = ()
    std: tuple[float, ...] = ()
    minimum: tuple[float, ...] = ()
    maximum: tuple[float, ...] = ()
    dropped: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "columns": list(self.columns),
            "mean": list(self.mean),
            "std": list(self.std),
            "minimum": list(self.minimum),
            "maximum": list(self.maximum),
            "dropped": list(self.dropped),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScalerParams":
        return cls(
            kind=data["kind"],
            columns=tuple(data["columns"]),
            mean=tuple(data["mean"]),
            std=tuple(data["std"]),
            minimum=tuple(data["minimum"]),
            maximum=tuple(data["maximum"]),
            dropped=tuple(data["dropped"]),
        )


def fit_feature_scaler(X: np.ndarray, names: tuple[str, ...], kind: str) -> ScalerParams:
    """Fit per-column statistics; constant columns are dropped under z-scoring."""
    if kind == "none":
        return ScalerParams(kind="none", columns=tuple(names))
    if kind != "zscore":
        raise ValidationError(f"unsupported feature scaler {kind!r}")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population standard deviation
    keep = std > 0
    if not keep.all():
        dropped = tuple(n for n, k in zip(names, keep) if not k)
        warnings.warn(
            f"dropping constant feature columns {list(dropped)}", ConstantColumnWarning, stacklevel=2
        )
    else:
        dropped = ()
    kept = tuple(n for n, k in zip(names, keep) if k)
    return ScalerParams(
        kind="zscore",
        columns=kept,
        mean=tuple(float(m) for m, k in zip(mean, keep) if k),
        std=tuple(float(s) for s, k in zip(std, keep) if k),
        dropped=dropped,
    )


def apply_feature_scaler(
    X: np.ndarray, names: tuple[str, ...], params: ScalerParams
) -> tuple[np.ndarray, tuple[str, ...]]:
    if params.kind == "none":
        return np.asarray(X, dtype=float), tuple(names)
    if params.kind != "zscore":
        raise ValidationError(f"unsupported feature scaler {params.kind!r}")
    if not params.columns and not params.dropped:
        raise UnfittedScalerError("feature scaler has no fitted columns")
    expected = set(params.columns) | set(params.dropped)
    if set(names) != expected:
        raise ValidationError(f"columns {sorted(names)} do not match fitted {sorted(expected)}")
    index = {n: i for i, n in enumerate(names)}
    cols = [index[n] for n in params.columns]
    X = np.asarray(X, dtype=float)[:, cols]
    return (X - np.asarray(params.mean)) / np.asarray(params.std), params.columns


def fit_target_scaler(y: np.ndarray) -> ScalerParams:
    lo, hi = float(np.min(y)), float(np.max(y))
    if hi <= lo:
        raise ValidationError("cannot min-max normalize a constant target")
    return ScalerParams(kind="minmax", columns=(TARGET_COLUMN,), minimum=(lo,), maximum=(hi,))


def transform_target(y, params: ScalerParams):
    if params.kind != "minmax" or not params.minimum:
        raise UnfittedScalerError("target scaler is not a fitted min-max scaler")
    lo, hi = params.minimum[0], params.maximum[0]
    return (np.asarray(y, dtype=float) - lo) / (hi - lo)


def invert_target(y_normalized, params: ScalerParams):
    """Map normalized predictions back to joules; out-of-range values extrapolate linearly."""
    if params.kind != "minmax" or not params.minimum:
        raise UnfittedScalerError("target scaler is not a fitted min-max scaler")
    lo, hi = params.minimum[0], params.maximum[0]
    return lo + np.asarray(y_normalized, dtype=float) * (hi - lo)


@dataclass(frozen=True)
class DesignMatrix:
    column_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.column_names) != len(set(self.column_names)):
            raise ValidationError("design matrix columns must be unique")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise NonFiniteError("design matrix contains NaN/Inf")


def default_feature_scaler(feature_set: FeatureSetKind) -> str:
    # MAC magnitudes dwarf the layer parameters, so MAC-bearing sets standardize
    return "zscore" if feature_set.has_mac else "none"


def _check_homogeneous(records: list[MeasurementRecord]) -> LayerKind:
    if not records:
        raise EmptyRecordsError("no records to build a design matrix from")
    kinds = {r.module for r in records}
    if len(kinds) > 1:
        raise KindMismatchError(f"records mix layer kinds {sorted(k.value for k in kinds)}")
    return next(iter(kinds))


def _raw_matrix(records: list[MeasurementRecord], feature_set: FeatureSetKind) -> np.ndarray:
    return np.array([raw_feature_row(r.config, r.macs, feature_set) for r in records], dtype=float)


def build_design(
    records: list[MeasurementRecord],
    feature_set: FeatureSetKind,
    poly: PolynomialSpec | None = None,
    feature_scaler: str | None = None,
) -> tuple[DesignMatrix, ScalerParams, ScalerParams]:
    """Fit scalers on ``records`` (the training set) and return the scaled design."""
    kind = _check_homogeneous(records)
    if feature_scaler is None:
        feature_scaler = default_feature_scaler(feature_set)
    names = polynomial_names(raw_feature_names(kind, feature_set), poly)
    X = expand_polynomial(_raw_matrix(records, feature_set), poly)
    params = fit_feature_scaler(X, names, feature_scaler)
    X, names = apply_feature_scaler(X, names, params)
    y_raw = np.array([r.cpu_energy_j for r in records], dtype=float)
    target_params = fit_target_scaler(y_raw)
    return DesignMatrix(names, X, transform_target(y_raw, target_params)), params, target_params


def transform_records(
    records: list[MeasurementRecord],
    feature_set: FeatureSetKind,
    poly: PolynomialSpec | None,
    feature_params: ScalerParams,
    target_params: ScalerParams,
) -> DesignMatrix:
    """Apply frozen scalers to held-out records."""
    kind = _check_homogeneous(records)
    names = polynomial_names(raw_feature_names(kind, feature_set), poly)
    X = expand_polynomial(_raw_matrix(records, feature_set), poly)
    X, names = apply_feature_scaler(X, names, feature_params)
    y = transform_target(np.array([r.cpu_energy_j for r in records], dtype=float), target_params)
    return DesignMatrix(names, X, y)


def feature_vector(
    config: LayerConfig,
    macs: int,
    feature_set: FeatureSetKind,
    poly: PolynomialSpec | None,
    feature_params: ScalerParams,
) -> np.ndarray:
    """Single scaled feature row for prediction."""
    names = polynomial_names(raw_feature_names(config.kind, feature_set), poly)
    X = expand_polynomial(np.array([raw_feature_row(config, macs, feature_set)]), poly)
    X, _ = apply_feature_scaler(X, names, feature_params)
    return X[0]
