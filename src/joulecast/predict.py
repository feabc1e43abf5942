"""Per-layer-type predictor bundle: training, persistence, and architecture estimates.

A bundle holds one fitted regression pipeline (a ``ModelSpec``) per layer
kind, each trained by ``train_on_matrix`` on rows of its kind's
``KindMatrix``: the Lasso penalty is tuned on the validation split
(``grid_search_lambda``) and the pipeline cross-validated on configuration
groups (``cross_validate_rows``), with ``regress`` fitting the arrays.
Architectures are estimated by resolving their layers, counting their MACs
with ``macs.architecture_macs``, predicting each layer's energy from its
standalone-equivalent configuration and MAC count, and summing in layer
order. Negative predictions (extrapolation artifacts) are clamped to zero
and flagged. ``run_feature_set_experiment`` trains every ``EXPERIMENT_TABLE``
pipeline of one kind the same way and returns the trained models;
``run_ablation`` scores every feature subset of one kind into one
mask-indexed ``AblationTable``.
"""
from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import combinations
from typing import Sequence

import numpy as np

from .arch import (
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    _instance,
    _standalone_values,
    extract_predictable_layers,
)
from .dataset import (
    MeasurementRecord,
    ModelWiseRecord,
    config_key,
    group_kfold_indices,
    split_indices,
)
from .errors import (
    AggregationWarning,
    ParseError,
    ShapeError,
    SingularityWarning,
    ValidationError,
)
from .features import FeatureMap, FeatureSetKind, KindMatrix, PolynomialSpec
from .macs import architecture_macs, layer_error
from .regress import EvalMetrics, LassoFit, LinearModel, evaluate, fit_ols, lasso_path, score

BUNDLE_FORMAT_VERSION = 1

DEFAULT_LAMBDA_GRID = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class ModelSpec:
    """One regression pipeline: feature set, expansion, scaling, and model family."""

    feature_set: FeatureSetKind
    poly: PolynomialSpec | None = None
    feature_scaler: str = "none"
    model: str = "ols"  # "ols" | "lasso"
    lam: float = 0.0

    def __post_init__(self):
        if self.model not in ("ols", "lasso"):
            raise ValidationError(f"unknown model family {self.model!r}")


@dataclass(frozen=True)
class CvReport:
    k: int
    r2_scores: tuple[float, ...]
    mse_scores: tuple[float, ...]
    #: a Lasso spec's fold fits, for their solver reports; bundles do not store them
    lasso_fits: tuple[LassoFit, ...] = ()

    @property
    def r2_mean(self) -> float:
        return float(np.mean(self.r2_scores))

    @property
    def r2_std(self) -> float:
        return float(np.std(self.r2_scores))

    @property
    def mse_mean(self) -> float:
        return float(np.mean(self.mse_scores))

    @property
    def mse_std(self) -> float:
        return float(np.std(self.mse_scores))


#: selected pipeline per layer kind (the configurations behind the shipped defaults)
DEFAULT_MODEL_SPECS: dict[LayerKind, ModelSpec] = {
    LayerKind.CONV2D: ModelSpec(FeatureSetKind.MAC_ONLY),
    LayerKind.MAXPOOL2D: ModelSpec(
        FeatureSetKind.LOG_PARAMETER_MAC, PolynomialSpec(2, interaction_only=True), "zscore"
    ),
    LayerKind.LINEAR: ModelSpec(FeatureSetKind.MAC_ONLY),
    LayerKind.RELU: ModelSpec(FeatureSetKind.MAC_ONLY),
    LayerKind.SIGMOID: ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(2, interaction_only=True)),
    LayerKind.TANH: ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(2, interaction_only=False)),
    LayerKind.SOFTMAX: ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(2, interaction_only=True)),
}


@dataclass(frozen=True)
class PredictorModel:
    """One fitted pipeline: fitted feature map, linear model, and its metrics."""

    features: FeatureMap
    model: LinearModel
    test_metrics: EvalMetrics
    test_metrics_joules: EvalMetrics
    cv: CvReport | None = None
    #: every Lasso fit made in training (the lambda grid, then the CV folds), for
    #: their solver reports; bundles do not store them
    lasso_fits: tuple[LassoFit, ...] = ()
    #: (coefficient, intercept) when the design row is just the MAC count, unscaled; else None
    _mac_line: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        features, model = self.features, self.model
        if len(model.coefficients) != len(features.columns):
            raise ValidationError(
                f"model has {len(model.coefficients)} coefficients, features have {len(features.columns)} columns"
            )
        # columns == ("macs",) is a MAC_ONLY row with no further monomial, and
        # an unscaled map keeps exactly its recipe's columns
        scalar = features.scaler == "none" and features.columns == ("macs",)
        line = (float(model.coefficients[0]), float(model.intercept)) if scalar else None
        object.__setattr__(self, "_mac_line", line)

    @property
    def spec(self) -> ModelSpec:
        """The pipeline this model is, with the penalty it was fitted at."""
        features, model = self.features, self.model
        return ModelSpec(features.feature_set, features.poly, features.scaler, model.kind, model.lam)

    def predict_energy(self, config: LayerConfig, macs: int) -> tuple[float, bool]:
        """Predicted joules for one layer; returns (joules, clamped-to-zero flag)."""
        features = self.features
        line = self._mac_line
        if line is None:
            # a 1-D dot: for one row, ``model.predict`` takes the same dot product
            normalized = float(features.row(config, macs) @ self.model.beta) + self.model.intercept
        else:
            # the (1, 1) @ (1,) product is a one-term dot product, which rounds
            # once, so this scalar product and sum give the same bits
            features._check_kind(config)
            normalized = float(macs) * line[0] + line[1]
        joules = features.joules(normalized)
        if joules < 0.0:
            return 0.0, True
        return joules, False

    def to_dict(self) -> dict:
        return {
            **self.features.to_dict(),
            "model": {
                "kind": self.model.kind,
                "lambda": self.model.lam,
                "coefficients": list(self.model.coefficients),
                "intercept": self.model.intercept,
            },
            "metrics": {
                "test": vars(self.test_metrics),
                "test_joules": vars(self.test_metrics_joules),
                "cv": None
                if self.cv is None
                else {
                    "k": self.cv.k,
                    "r2_scores": list(self.cv.r2_scores),
                    "mse_scores": list(self.cv.mse_scores),
                },
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredictorModel":
        features = FeatureMap.from_dict(data)
        fitted = data["model"]
        model = LinearModel(
            coefficients=tuple(map(float, fitted["coefficients"])),
            intercept=float(fitted["intercept"]),
            kind=fitted["kind"],
            lam=float(fitted["lambda"]),
        )
        if len(model.coefficients) != len(features.columns):
            raise ParseError(
                f"{len(model.coefficients)} coefficients for {len(features.columns)} columns"
            )
        cv = data["metrics"]["cv"]
        return cls(
            features=features,
            model=model,
            test_metrics=EvalMetrics(**data["metrics"]["test"]),
            test_metrics_joules=EvalMetrics(**data["metrics"]["test_joules"]),
            cv=None if cv is None else CvReport(cv["k"], tuple(cv["r2_scores"]), tuple(cv["mse_scores"])),
        )


@dataclass(frozen=True)
class PredictorBundle:
    models: dict[LayerKind, PredictorModel]
    metadata: dict

    def model_for(self, kind: LayerKind) -> PredictorModel:
        try:
            return self.models[kind]
        except KeyError:
            raise ValidationError(f"bundle has no predictor for {kind.value}") from None

    def to_json(self) -> str:
        doc = {
            "format_version": BUNDLE_FORMAT_VERSION,
            "metadata": self.metadata,
            "models": {kind.value: model.to_dict() for kind, model in self.models.items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "PredictorBundle":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid bundle JSON: {exc}") from exc
        try:
            if doc.get("format_version") != BUNDLE_FORMAT_VERSION:
                raise ValidationError(f"unsupported bundle format_version {doc.get('format_version')!r}")
            models = {}
            for key, value in doc["models"].items():
                model = PredictorModel.from_dict(value)
                if model.features.kind.value != key:
                    raise ParseError(f"model under {key!r} is for {model.features.kind.value}")
                models[model.features.kind] = model
            return cls(models=models, metadata=doc.get("metadata", {}))
        except KeyError as exc:
            raise ParseError(f"bundle is missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed bundle: {exc}") from None

    @classmethod
    def load(cls, path) -> "PredictorBundle":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
        try:
            return cls.from_json(text)
        except ParseError as exc:
            raise type(exc)(f"{path}: {exc}") from None


def dataset_fingerprint(records: list[MeasurementRecord]) -> str:
    """Order-sensitive sha256 over the canonical record encoding."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(
            "|".join(
                [
                    *map(str, config_key(record.config)),
                    str(record.macs),
                    repr(float(record.cpu_energy_j)),
                    str(record.repeat),
                    record.source,
                ]
            ).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def _default_created() -> str | None:
    # honor the reproducible-build convention; wall clock would break
    # byte-identical retrains, so absent the env var we omit the stamp
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    return None


def _kind_matrix(records: list[MeasurementRecord], kind: LayerKind) -> KindMatrix:
    """The raw matrix of ``kind``'s records, in record order."""
    subset = [r for r in records if r.module is kind]
    if not subset:
        raise ValidationError(f"no records for layer kind {kind.value}")
    return KindMatrix.build(subset)


def cross_validate_rows(
    matrix: KindMatrix,
    rows,
    spec: ModelSpec,
    k: int = 10,
    seed: int = 0,
) -> CvReport:
    """Configuration-grouped k-fold CV over ``rows`` of ``matrix``; scalers
    are refit on each fold's training part.

    A Lasso spec fits each fold with ``lasso_path`` at ``spec.lam`` and
    keeps the fold fits, with their KKT reports, in ``lasso_fits``. MSE is
    reported as a positive quantity (some frameworks negate it for
    score-maximization APIs).
    """
    if k < 2:
        raise ValidationError(f"k={k} must be at least 2")
    rows = np.asarray(rows)
    folds = group_kfold_indices([matrix.keys[i] for i in rows], k, seed)
    fits: list[LassoFit] = []
    metrics = []
    for held_out in folds:  # fitted and scored as it is built, so one fold's design is held at a time
        features, X, y = FeatureMap.fit_rows(
            matrix, np.delete(rows, held_out), spec.feature_set, spec.poly, spec.feature_scaler
        )
        if spec.model == "lasso":
            fits.append(lasso_path(X, y, [spec.lam])[0])
            model = fits[-1].model
        else:
            model = fit_ols(X, y)
        metrics.append(evaluate(model, *features.design_rows(matrix, rows[held_out])))
    return CvReport(
        k=k,
        r2_scores=tuple(m.r2 for m in metrics),
        mse_scores=tuple(m.mse for m in metrics),
        lasso_fits=tuple(fits),
    )


def grid_search_lambda(
    train: tuple[np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray],
    grid: Sequence[float],
) -> tuple[tuple[LassoFit, ...], LassoFit]:
    """Fit the whole grid from one ``lasso_path`` on the train design and
    pick the penalty maximizing R^2 on the validation design; ties go to the
    larger (sparser) lambda. A one-value grid is fitted but not scored.
    Returns the fits, ascending in lambda, and the chosen one."""
    if not grid:
        raise ValidationError("lambda grid is empty")
    lams = sorted(float(g) for g in grid)
    fits = tuple(lasso_path(*train, lams))
    best = 0
    if len(fits) > 1:
        best_r2 = None
        for i, fit in enumerate(fits):
            r2 = evaluate(fit.model, *val).r2
            if best_r2 is None or r2 >= best_r2:
                best, best_r2 = i, r2
    return fits, fits[best]


def train_on_matrix(
    matrix: KindMatrix,
    spec: ModelSpec,
    seed: int,
    cv_folds: int | None = 10,
) -> PredictorModel:
    """Fit one pipeline on a kind's records: train on 70%, tune lambda on
    20%, report on the 10% test split, the split ``seed`` deals."""
    train, val, test = split_indices(matrix.keys, seed)
    features, X, y = FeatureMap.fit_rows(matrix, train, spec.feature_set, spec.poly, spec.feature_scaler)
    grid_fits: tuple[LassoFit, ...] = ()
    if spec.model == "lasso":
        # the grid is fitted on this train design, so its fit at the chosen
        # penalty is the final model
        grid_fits, chosen = grid_search_lambda((X, y), features.design_rows(matrix, val), DEFAULT_LAMBDA_GRID)
        model = chosen.model
        spec = replace(spec, lam=model.lam)
    else:
        model = fit_ols(X, y)
    if test:
        X_test, y_test = features.design_rows(matrix, test)
        test_metrics = evaluate(model, X_test, y_test)
        test_metrics_joules = score(features.joules(y_test), features.joules(model.predict(X_test)))
    else:
        test_metrics = EvalMetrics(r2=float("nan"), mse=float("nan"), max_error=float("nan"))
        test_metrics_joules = test_metrics
    cv = cross_validate_rows(matrix, train, spec, k=cv_folds, seed=seed) if cv_folds else None
    return PredictorModel(
        features=features,
        model=model,
        test_metrics=test_metrics,
        test_metrics_joules=test_metrics_joules,
        cv=cv,
        lasso_fits=grid_fits + (cv.lasso_fits if cv else ()),
    )


def train_default_bundle(
    records: list[MeasurementRecord],
    seed: int,
    kinds: tuple[LayerKind, ...] | None = None,
    metadata: dict | None = None,
    cv_folds: int | None = 10,
) -> PredictorBundle:
    """Train the ``DEFAULT_MODEL_SPECS`` pipeline of every requested layer
    kind, by default all of them."""
    models = {
        kind: train_on_matrix(_kind_matrix(records, kind), DEFAULT_MODEL_SPECS[kind], seed, cv_folds)
        for kind in kinds or DEFAULT_MODEL_SPECS
    }
    meta = {
        "hardware": "unknown",
        "dataset_hash": dataset_fingerprint(records),
        "split_seed": seed,
    }
    created = _default_created()
    if created:
        meta["created"] = created
    if metadata:
        meta.update(metadata)
    return PredictorBundle(models=models, metadata=meta)


@dataclass(frozen=True)
class LayerEstimate:
    layer_index: int
    kind: LayerKind
    macs: int
    joules: float
    clamped: bool


@dataclass(frozen=True)
class EnergyEstimate:
    architecture: str
    batch_size: int
    layers: tuple[LayerEstimate, ...]
    total_joules: float
    total_macs: int

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "batch": self.batch_size,
            "per_layer": [
                {
                    "layer_index": l.layer_index,
                    "module": l.kind.value,
                    "macs": l.macs,
                    "predicted_joules": l.joules,
                    "clamped": l.clamped,
                }
                for l in self.layers
            ],
            "total_joules": self.total_joules,
            "total_macs": self.total_macs,
            "flags": {"clamped_layers": [l.layer_index for l in self.layers if l.clamped]},
        }


def estimate(bundle: PredictorBundle, arch: ArchitectureSpec, batch_size: int = 1) -> EnergyEstimate:
    """Per-layer predictions summed in layer order (fixed accumulation order).

    The layers are the spec's own resolution, counted (``architecture_macs``)
    and rewritten at ``batch_size``: no shape rule reads the batch, so
    resolving again at ``batch_size`` would give the same channels, sides and
    errors. A MAC count past the 64-bit budget anywhere in the architecture
    is refused before any layer is predicted.
    """
    if type(batch_size) is not int or batch_size < 1:
        arch.with_batch(batch_size)  # a bad batch raises here, as a re-batched spec's does
    per_layer, total_macs = architecture_macs(arch, True, batch_size)
    layers = []
    total_joules = 0.0
    for layer, (_, kind, macs) in zip(extract_predictable_layers(arch), per_layer):
        predictor = bundle.model_for(kind)
        try:
            # a checked layer, the input shape it resolved to and the checked
            # batch pass every config check: ``as_standalone_config`` without
            # running them again
            standalone = _instance(LayerConfig, _standalone_values(layer.config, layer.input_shape, batch_size))
        except ShapeError as exc:
            raise layer_error(layer, exc) from exc
        joules, clamped = predictor.predict_energy(standalone, macs)
        layers.append(_instance(LayerEstimate, {
            "layer_index": layer.index, "kind": kind, "macs": macs, "joules": joules, "clamped": clamped,
        }))
        total_joules += joules
    return EnergyEstimate(
        architecture=arch.name,
        batch_size=batch_size,
        layers=tuple(layers),
        total_joules=total_joules,
        total_macs=total_macs,
    )


@dataclass(frozen=True)
class LayerPoint:
    architecture: str
    batch_size: int
    layer_index: int
    kind: LayerKind
    measured_j: float
    predicted_j: float


@dataclass(frozen=True)
class TotalPoint:
    architecture: str
    batch_size: int
    measured_j: float
    predicted_j: float
    layer_measured_sum_j: float


@dataclass(frozen=True)
class RealEvaluation:
    """Predictions against real-architecture measurements."""

    per_kind: dict[LayerKind, EvalMetrics]
    overall: EvalMetrics
    layer_points: tuple[LayerPoint, ...]
    total_points: tuple[TotalPoint, ...]


#: relative gap between a record's per-layer sum and its measured total above
#: which ``evaluate_on_real`` warns
SUM_MISMATCH_TOLERANCE = 0.05


def evaluate_on_real(bundle: PredictorBundle, records: list[ModelWiseRecord]) -> RealEvaluation:
    """Compare per-layer and summed predictions to measured architecture data."""
    if not records:
        raise ValidationError("no model-wise records to evaluate")
    layer_points: list[LayerPoint] = []
    total_points: list[TotalPoint] = []
    for record in records:
        layer_sum = record.layer_energy_sum_j
        if record.total_energy_j > 0 and record.layers:
            mismatch = abs(layer_sum - record.total_energy_j) / record.total_energy_j
            if mismatch > SUM_MISMATCH_TOLERANCE:
                warnings.warn(
                    f"{record.architecture} (batch {record.batch_size}): per-layer sum "
                    f"{layer_sum:.6g} J deviates {mismatch:.1%} from measured total "
                    f"{record.total_energy_j:.6g} J",
                    AggregationWarning,
                    stacklevel=2,
                )
        predicted_total = 0.0
        for layer in record.layers:
            predictor = bundle.model_for(layer.module)
            joules, _ = predictor.predict_energy(layer.config, layer.macs)
            predicted_total += joules
            layer_points.append(
                LayerPoint(
                    record.architecture, record.batch_size, layer.layer_index,
                    layer.module, layer.cpu_energy_j, joules,
                )
            )
        total_points.append(
            TotalPoint(record.architecture, record.batch_size, record.total_energy_j,
                       predicted_total, layer_sum)
        )
    per_kind = {}
    for kind in sorted({p.kind for p in layer_points}, key=lambda k: k.value):
        pts = [p for p in layer_points if p.kind is kind]
        per_kind[kind] = score([p.measured_j for p in pts], [p.predicted_j for p in pts])
    overall = score(
        [t.measured_j for t in total_points], [t.predicted_j for t in total_points]
    )
    return RealEvaluation(per_kind, overall, tuple(layer_points), tuple(total_points))


#: the feature-set comparison grid per layer kind (pipeline per table row)
EXPERIMENT_TABLE: dict[LayerKind, tuple[ModelSpec, ...]] = {
    LayerKind.CONV2D: (
        ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(4, True), "none", "lasso"),
        ModelSpec(FeatureSetKind.LOG_PARAMETER, PolynomialSpec(3, True), "none", "lasso"),
        ModelSpec(FeatureSetKind.MAC_ONLY),
        ModelSpec(FeatureSetKind.PARAMETER_MAC, None, "zscore"),
        ModelSpec(FeatureSetKind.LOG_PARAMETER_MAC, None, "zscore"),
    ),
    LayerKind.MAXPOOL2D: (
        ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(4, True), "none", "lasso"),
        ModelSpec(FeatureSetKind.LOG_PARAMETER, PolynomialSpec(3, True), "none", "lasso"),
        ModelSpec(FeatureSetKind.MAC_ONLY),
        ModelSpec(FeatureSetKind.PARAMETER_MAC, PolynomialSpec(2, True), "zscore"),
        ModelSpec(FeatureSetKind.LOG_PARAMETER_MAC, PolynomialSpec(2, True), "zscore"),
    ),
    LayerKind.LINEAR: (
        ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(3, True)),
        ModelSpec(FeatureSetKind.LOG_PARAMETER, PolynomialSpec(3, True)),
        ModelSpec(FeatureSetKind.MAC_ONLY),
        ModelSpec(FeatureSetKind.PARAMETER_MAC, None, "zscore"),
        ModelSpec(FeatureSetKind.LOG_PARAMETER_MAC, None, "zscore"),
    ),
}


def run_feature_set_experiment(
    records: list[MeasurementRecord],
    kind: LayerKind,
    seed: int,
    cv_folds: int = 10,
) -> list[PredictorModel]:
    """Train every comparison pipeline for one layer kind, in table order;
    activations are excluded."""
    if kind not in EXPERIMENT_TABLE:
        covered = "/".join(k.value for k in EXPERIMENT_TABLE)
        raise ValidationError(f"feature-set experiment covers {covered}, not {kind.value}")
    matrix = _kind_matrix(records, kind)
    return [train_on_matrix(matrix, spec, seed, cv_folds) for spec in EXPERIMENT_TABLE[kind]]


@dataclass(frozen=True, eq=False)
class AblationTable:
    """Every non-empty feature subset's test scores, indexed by bitmask: bit
    ``i`` of a mask selects ``columns[i]``. Entry 0, the empty subset, is NaN."""

    columns: tuple[str, ...]
    r2: np.ndarray
    mse: np.ndarray


#: subsets solved per batched call, bounding the stacked Gram blocks and test predictions
_ABLATION_CHUNK = 2048
#: reciprocal condition number below which a Gram block counts as singular;
#: its subset is refit by ``fit_ols`` for the minimum-norm solution
_GRAM_RCOND = 1e-8


def run_ablation(
    records: list[MeasurementRecord],
    kind: LayerKind = LayerKind.CONV2D,
    seed: int = 0,
) -> AblationTable:
    """Fit a standardized linear model on every non-empty feature subset.

    The feature universe is the parameters, their log transforms, and the MAC
    count (15 columns for Conv2d, so 32767 subsets). The columns are
    standardized once; every subset's least-squares fit is its block of the
    centred train Gram matrix solved against its part of X^T y, batched by
    subset size, and scored on the test rows per batch.
    """
    matrix = _kind_matrix(records, kind)
    train, _, test = split_indices(matrix.keys, seed)
    features, X, y_train = FeatureMap.fit_rows(matrix, train, FeatureSetKind.LOG_PARAMETER_MAC, None, "none")
    X_test, y_test = features.design_rows(matrix, test)
    names = features.columns
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    X_train, X_test = (X - mean) / std, (X_test - mean) / std
    x_mean, y_mean = X_train.mean(axis=0), y_train.mean()
    centred = X_train - x_mean
    gram = centred.T @ centred
    xty = centred.T @ (y_train - y_mean)
    test_centred = X_test - x_mean
    test_spread = y_test - y_test.mean()
    ss_tot = float(test_spread @ test_spread)

    width = len(names)
    r2 = np.empty(2**width)
    mse = np.empty(2**width)
    singular: list[np.ndarray] = []
    # a principal block is never worse conditioned than the whole matrix
    # (eigenvalue interlacing), so a sound whole matrix clears every block
    eig = np.linalg.eigvalsh(gram)
    check_blocks = not eig[0] > _GRAM_RCOND * eig[-1]
    for size in range(1, width + 1):
        all_cols = np.array(list(combinations(range(width), size)))
        for start in range(0, len(all_cols), _ABLATION_CHUNK):
            cols = all_cols[start:start + _ABLATION_CHUNK]
            blocks = gram[cols[:, :, None], cols[:, None, :]]
            if check_blocks:
                eig = np.linalg.eigvalsh(blocks)
                ok = eig[:, 0] > _GRAM_RCOND * eig[:, -1]
                singular.extend(cols[~ok])
                cols, blocks = cols[ok], blocks[ok]
            beta = np.linalg.solve(blocks, xty[cols][:, :, None])[:, :, 0]
            residual = y_test - y_mean - np.einsum("tck,ck->ct", test_centred[:, cols], beta)
            ss_res = np.einsum("ct,ct->c", residual, residual)
            masks = (1 << cols).sum(axis=1)
            r2[masks] = 1.0 - ss_res / ss_tot if ss_tot else np.where(ss_res == 0.0, 1.0, 0.0)
            mse[masks] = ss_res / len(y_test)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularityWarning)
        for cols in singular:
            metrics = evaluate(fit_ols(X_train[:, cols], y_train), X_test[:, cols], y_test)
            mask = int((1 << cols).sum())
            r2[mask], mse[mask] = metrics.r2, metrics.mse
    r2[0] = mse[0] = np.nan
    return AblationTable(names, r2, mse)
