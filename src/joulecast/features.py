"""Feature recipes: one raw row, feature sets as column selections of it,
polynomial expansion, scaling.

Each layer kind has one raw row (``raw_feature_row``): the parameters (the
kind's ``KindSpec.fields``, in canonical order), their log1p transforms, then
the MAC count; a feature set is the parts of it that it keeps
(``_KEPT_PARTS``). Polynomial expansion happens after the row is assembled
and before any standardization. The target is always min-max normalized to
[0, 1] on the training records; predictions are mapped back to joules with
the linear inverse (no clipping).

``FeatureMap`` is the one home of that recipe: fitted once on a kind's
training rows, it builds the designs of held-out rows and the rows to
predict from, maps predictions back to joules, and is what a bundle stores of
the recipe. Its entry points take index rows of a ``KindMatrix``, the kind's
raw matrix built once (``fit_rows``, ``design_rows``), or one config
(``row``), so splits, CV folds and pipelines share one raw matrix. Designs
are plain ``(X, y)`` arrays, whose values ``KindMatrix.build`` checked once.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, combinations_with_replacement

import numpy as np

from .arch import KIND_SPECS, LayerConfig, LayerKind
from .dataset import MeasurementRecord, config_key
from .errors import (
    ConstantColumnWarning,
    ParseError,
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
    def label(self) -> str:
        return _FEATURE_SET_LABELS[self]


_FEATURE_SET_LABELS = {
    FeatureSetKind.PARAMETER: "parameter",
    FeatureSetKind.LOG_PARAMETER: "(log+)parameter",
    FeatureSetKind.MAC_ONLY: "MACs",
    FeatureSetKind.PARAMETER_MAC: "parameter-MAC",
    FeatureSetKind.LOG_PARAMETER_MAC: "(log+)parameter-MAC",
}

#: the parts of the raw row (``raw_feature_row``) each feature set keeps, in row order
_KEPT_PARTS = {
    FeatureSetKind.PARAMETER: ("parameters",),
    FeatureSetKind.LOG_PARAMETER: ("parameters", "logs"),
    FeatureSetKind.MAC_ONLY: ("macs",),
    FeatureSetKind.PARAMETER_MAC: ("parameters", "macs"),
    FeatureSetKind.LOG_PARAMETER_MAC: ("parameters", "logs", "macs"),
}


def raw_feature_names(kind: LayerKind) -> tuple[str, ...]:
    """The names of ``raw_feature_row``'s columns for one layer kind."""
    params = KIND_SPECS[kind].fields
    return (*params, *(f"log_{p}" for p in params), "macs")


def raw_feature_row(config: LayerConfig, macs: int) -> list[float]:
    """The raw row every feature set selects from: the parameters, their
    log1p values (so padding=0 stays finite), then the MAC count."""
    values = config.__dict__
    params = [float(values[name]) for name in KIND_SPECS[config.kind].fields]
    return [*params, *map(math.log1p, params), float(macs)]


@dataclass(frozen=True)
class PolynomialSpec:
    """Monomial expansion up to ``degree``; interaction-only keeps exponents at 1."""

    degree: int
    interaction_only: bool = False

    def __post_init__(self):
        if not 1 <= self.degree <= 4:
            raise ValidationError(f"polynomial degree {self.degree} outside [1, 4]")

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


def _monomials(p: int, spec: PolynomialSpec | None) -> list[tuple[int, ...]]:
    """Index tuples of all monomials, graded by total degree then lexicographic."""
    if spec is None or spec.degree == 1:
        return [(i,) for i in range(p)]
    chooser = combinations if spec.interaction_only else combinations_with_replacement
    return [combo for degree in range(1, spec.degree + 1) for combo in chooser(range(p), degree)]


def _monomial_index(p: int, spec: PolynomialSpec | None) -> np.ndarray:
    """(degree, monomials) indices of ``p`` columns; shorter monomials are
    padded with ``p``, which stands for a column of ones."""
    monomials = _monomials(p, spec)
    index = np.full((len(monomials[-1]), len(monomials)), p)
    for j, combo in enumerate(monomials):
        index[: len(combo), j] = combo
    return index


def _expand(X: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The monomials ``index`` names over the columns of ``X`` and, at index
    ``X.shape[1]``, a column of ones: each monomial's factors multiplied left
    to right, the order of ``np.prod``; a padding factor of 1.0 leaves a
    product bit-identical. ``take`` keeps the result in C order, as
    ``np.column_stack`` did."""
    X = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    out = X.take(index[0], axis=1)
    for factors in index[1:]:
        out *= X.take(factors, axis=1)
    return out


@dataclass(frozen=True, eq=False)
class KindMatrix:
    """One layer kind's records as arrays, built in one pass over them.

    ``raw`` holds each record's ``raw_feature_row``, of which every feature
    set is a column selection; ``energy`` holds the target and ``keys`` the
    ``config_key`` groups that splits and CV folds keep together. Feature
    maps are fitted on, and build designs from, rows of it. Building checks
    that every value is finite, once for every design made from it.
    """

    kind: LayerKind
    raw: np.ndarray
    energy: np.ndarray
    keys: tuple[tuple, ...]

    @classmethod
    def build(cls, records: list[MeasurementRecord]) -> "KindMatrix":
        if not records:
            raise ValidationError("no records to build a design matrix from")
        kinds = {r.module for r in records}
        if len(kinds) > 1:
            raise ValidationError(f"records mix layer kinds {sorted(k.value for k in kinds)}")
        raw = np.array([raw_feature_row(r.config, r.macs) for r in records], dtype=float)
        energy = np.array([r.cpu_energy_j for r in records], dtype=float)
        if not (np.isfinite(raw).all() and np.isfinite(energy).all()):
            raise ValidationError("records hold a non-finite MAC count or energy")
        return cls(kinds.pop(), raw, energy, tuple(config_key(r.config) for r in records))


@dataclass(frozen=True)
class _Recipe:
    """What a (kind, feature set, expansion) triple fixes before any fit."""

    names: tuple[str, ...]  # the monomials' names, in design order
    sorted_names: tuple[str, ...]
    position: dict[str, int]  # name -> position in ``names``
    index: np.ndarray  # the monomials as ``_expand`` indices of the raw row


@functools.cache
def _recipe(kind: LayerKind, feature_set: FeatureSetKind, poly: PolynomialSpec | None) -> _Recipe:
    everything = raw_feature_names(kind)
    p = len(KIND_SPECS[kind].fields)
    spans = {"parameters": range(p), "logs": range(p, 2 * p), "macs": range(2 * p, 2 * p + 1)}
    columns = [c for part in _KEPT_PARTS[feature_set] for c in spans[part]]
    names = polynomial_names(tuple(everything[c] for c in columns), poly)
    # the monomial index of the kept columns, mapped onto raw-row columns; its
    # padding becomes the ones column ``_expand`` appends after the raw row
    index = np.array(columns + [len(everything)])[_monomial_index(len(columns), poly)]
    index.flags.writeable = False
    return _Recipe(names, tuple(sorted(names)), {n: i for i, n in enumerate(names)}, index)


@dataclass(frozen=True)
class FeatureMap:
    """One layer kind's feature recipe, fitted on its training records.

    A config and its MACs become a design row: the raw features, their
    monomials, then the frozen z-score. ``columns`` are the kept columns in
    order; ``mean``, ``std`` and ``dropped`` (the constant columns) are empty
    when ``scaler`` is "none". The target is min-max normalized to [0, 1] on
    the training records. Construction checks that the columns are the
    recipe's; the recipe's names and monomial index are derived once per
    (kind, feature set, expansion) and shared, and the index of the kept
    columns alone, which ``row`` reads, once per map.
    """

    kind: LayerKind
    feature_set: FeatureSetKind
    poly: PolynomialSpec | None
    scaler: str  # "none" | "zscore"
    columns: tuple[str, ...]
    target_min: float
    target_max: float
    mean: tuple[float, ...] = ()
    std: tuple[float, ...] = ()
    dropped: tuple[str, ...] = ()
    _recipe: _Recipe = field(init=False, repr=False, compare=False)
    _kept: np.ndarray = field(init=False, repr=False, compare=False)
    _row_index: np.ndarray = field(init=False, repr=False, compare=False)
    _mean: np.ndarray = field(init=False, repr=False, compare=False)
    _std: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        recipe = _recipe(self.kind, self.feature_set, self.poly)
        names = recipe.names
        if self.scaler == "none":
            fits = self.columns == names and not (self.mean or self.std or self.dropped)
        elif self.scaler == "zscore":
            fits = tuple(sorted(self.columns + self.dropped)) == recipe.sorted_names and (
                len(self.mean) == len(self.std) == len(self.columns)
            )
        else:
            raise ValidationError(f"unsupported feature scaler {self.scaler!r}")
        if not fits:
            raise ValidationError(
                f"{self.scaler} scaler over columns {list(self.columns)} (dropped "
                f"{list(self.dropped)}) does not fit the recipe's columns {list(names)}"
            )
        kept = np.array([recipe.position[n] for n in self.columns], dtype=int)
        object.__setattr__(self, "_recipe", recipe)
        object.__setattr__(self, "_kept", kept)
        object.__setattr__(self, "_row_index", recipe.index[:, kept])
        for name, values in (("_mean", self.mean), ("_std", self.std)):
            array = np.array(values, dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def fit_rows(
        cls,
        matrix: KindMatrix,
        rows,
        feature_set: FeatureSetKind,
        poly: PolynomialSpec | None,
        scaler: str,
    ) -> tuple["FeatureMap", np.ndarray, np.ndarray]:
        """Fit the scalers on ``rows`` of ``matrix`` (the training set, in
        that order); returns the map and their design ``(X, y)``.

        Z-scoring uses the population standard deviation and drops constant
        columns with a warning.
        """
        if not len(rows):
            raise ValidationError("no records to build a design matrix from")
        recipe = _recipe(matrix.kind, feature_set, poly)
        names = recipe.names
        X = _expand(matrix.raw[rows], recipe.index)
        stats: dict = {}
        columns = names
        if scaler == "zscore":  # other kinds are refused when the map is built
            mean = X.mean(axis=0)
            std = X.std(axis=0)
            keep = std > 0
            columns = tuple(n for n, k in zip(names, keep) if k)
            stats = {
                "mean": tuple(float(m) for m in mean[keep]),
                "std": tuple(float(s) for s in std[keep]),
                "dropped": tuple(n for n, k in zip(names, keep) if not k),
            }
            if stats["dropped"]:
                warnings.warn(
                    f"dropping constant feature columns {list(stats['dropped'])}",
                    ConstantColumnWarning,
                    stacklevel=2,
                )
        y = matrix.energy[rows]
        lo, hi = float(np.min(y)), float(np.max(y))
        if hi <= lo:
            raise ValidationError("cannot min-max normalize a constant target")
        fitted = cls(matrix.kind, feature_set, poly, scaler, columns, lo, hi, **stats)
        return fitted, fitted._scale(X), fitted._normalize(y)

    def design_rows(self, matrix: KindMatrix, rows) -> tuple[np.ndarray, np.ndarray]:
        """The design ``(X, y)`` of held-out ``rows`` of ``matrix``, through
        the frozen scalers."""
        if matrix.kind is not self.kind:
            raise ValidationError(
                f"feature map fitted on {self.kind.value}, records are {matrix.kind.value}"
            )
        if not len(rows):
            raise ValidationError("no records to build a design matrix from")
        X = self._scale(_expand(matrix.raw[rows], self._recipe.index))
        return X, self._normalize(matrix.energy[rows])

    def row(self, config: LayerConfig, macs: int) -> np.ndarray:
        """One scaled feature row for prediction: the single-row form of
        ``design_rows``, with the same products and the same scaling. Only the
        kept columns are formed, and they are z-scored in place. The config
        comes from outside any ``KindMatrix``, so its raw row is checked here."""
        self._check_kind(config)
        raw = raw_feature_row(config, macs)
        if not all(map(math.isfinite, raw)):
            raise ValidationError("polynomial expansion requires finite inputs")
        raw.append(1.0)
        x = np.array(raw)
        index = self._row_index
        out = x[index[0]]
        for factors in index[1:]:
            out *= x[factors]
        if self.scaler == "zscore":
            out -= self._mean
            out /= self._std
        return out

    def _check_kind(self, config: LayerConfig) -> None:
        if config.kind is not self.kind:
            raise ValidationError(f"feature map fitted on {self.kind.value}, config is {config.kind.value}")

    def joules(self, normalized):
        """Map a normalized prediction (a float, or an array of them) back to joules;
        out-of-range values extrapolate linearly."""
        return self.target_min + normalized * (self.target_max - self.target_min)

    def _scale(self, X: np.ndarray) -> np.ndarray:
        if self.scaler == "zscore":
            # selecting the kept columns leaves X in Fortran order, and later
            # column means (fit_ols) sum in memory order: keep this layout, or
            # fitted coefficients move in the last bit
            X = (X[:, self._kept] - self._mean) / self._std
        return X

    def _normalize(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_min) / (self.target_max - self.target_min)

    def to_dict(self) -> dict:
        """The keys of a bundle model that hold its feature recipe."""
        return {
            "layer_kind": self.kind.value,
            "feature_set": self.feature_set.value,
            "polynomial": None
            if self.poly is None
            else {"degree": self.poly.degree, "interaction_only": self.poly.interaction_only},
            "feature_scaler_kind": self.scaler,
            "columns": list(self.columns),
            "feature_scaler": _scaler_dict(
                self.scaler, self.columns, mean=self.mean, std=self.std, dropped=self.dropped
            ),
            "target_scaler": _scaler_dict(
                "minmax", (TARGET_COLUMN,), minimum=(self.target_min,), maximum=(self.target_max,)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureMap":
        poly, scaler, target = data["polynomial"], data["feature_scaler"], data["target_scaler"]
        columns = tuple(data["columns"])
        recipe = (data["feature_scaler_kind"], columns, "minmax", (TARGET_COLUMN,))
        if (scaler["kind"], tuple(scaler["columns"]), target["kind"], tuple(target["columns"])) != recipe:
            raise ParseError("scaler entries disagree with the model's feature_scaler_kind and columns")
        (lo,), (hi,) = target["minimum"], target["maximum"]
        return cls(
            kind=LayerKind(data["layer_kind"]),
            feature_set=FeatureSetKind(data["feature_set"]),
            poly=None if poly is None else PolynomialSpec(poly["degree"], poly["interaction_only"]),
            scaler=data["feature_scaler_kind"],
            columns=columns,
            target_min=float(lo),
            target_max=float(hi),
            mean=tuple(map(float, scaler["mean"])),
            std=tuple(map(float, scaler["std"])),
            dropped=tuple(scaler["dropped"]),
        )


def _scaler_dict(kind: str, columns: tuple[str, ...], **stats: tuple) -> dict:
    keys = ("mean", "std", "minimum", "maximum", "dropped")
    return {"kind": kind, "columns": list(columns), **{key: list(stats.get(key, ())) for key in keys}}

