"""Per-layer-type predictor bundle: training, persistence, and architecture estimates.

A bundle holds one fitted regression pipeline per layer kind. Architectures
are estimated by resolving their layers, predicting each layer's energy from
its standalone-equivalent configuration and MAC count, and summing in layer
order. Negative predictions (extrapolation artifacts) are clamped to zero and
flagged.
"""
from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import combinations

import numpy as np

from .arch import (
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    as_standalone_config,
    extract_predictable_layers,
)
from .dataset import (
    MeasurementRecord,
    ModelWiseRecord,
    SplitSpec,
    split,
)
from .errors import (
    AggregationWarning,
    EmptyDataError,
    MissingKindError,
    ParseError,
    SingularityWarning,
    ValidationError,
)
from .features import (
    FeatureSetKind,
    PolynomialSpec,
    ScalerParams,
    build_design,
    feature_vector,
    invert_target,
    raw_feature_names,
    transform_records,
)
from .macs import layer_macs
from .regress import (
    CvReport,
    EvalMetrics,
    LassoFit,
    LinearModel,
    ModelSpec,
    cross_validate,
    evaluate,
    fit_ols,
    grid_search_lambda,
    score,
)

BUNDLE_FORMAT_VERSION = 1

DEFAULT_LAMBDA_GRID = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

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
    """One fitted pipeline: spec, frozen scalers, linear model, and its metrics."""

    layer_kind: LayerKind
    spec: ModelSpec
    columns: tuple[str, ...]
    feature_scaler: ScalerParams
    target_scaler: ScalerParams
    model: LinearModel
    test_metrics: EvalMetrics
    test_metrics_joules: EvalMetrics
    cv: CvReport | None = None
    #: every Lasso fit made in training (the lambda grid, then the CV folds), for
    #: their sweep counts; bundles do not store them
    lasso_fits: tuple[LassoFit, ...] = ()

    def predict_energy(self, config: LayerConfig, macs: int) -> tuple[float, bool]:
        """Predicted joules for one layer; returns (joules, clamped-to-zero flag)."""
        row = feature_vector(config, macs, self.spec.feature_set, self.spec.poly, self.feature_scaler)
        normalized = float(self.model.predict(row[None, :])[0])
        joules = float(invert_target(normalized, self.target_scaler))
        if joules < 0.0:
            return 0.0, True
        return joules, False

    def to_dict(self) -> dict:
        return {
            "layer_kind": self.layer_kind.value,
            "feature_set": self.spec.feature_set.value,
            "polynomial": None
            if self.spec.poly is None
            else {"degree": self.spec.poly.degree, "interaction_only": self.spec.poly.interaction_only},
            "feature_scaler_kind": self.spec.feature_scaler,
            "columns": list(self.columns),
            "feature_scaler": self.feature_scaler.to_dict(),
            "target_scaler": self.target_scaler.to_dict(),
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
        poly = data["polynomial"]
        spec = ModelSpec(
            feature_set=FeatureSetKind(data["feature_set"]),
            poly=None if poly is None else PolynomialSpec(poly["degree"], poly["interaction_only"]),
            feature_scaler=data["feature_scaler_kind"],
            model=data["model"]["kind"],
            lam=data["model"]["lambda"],
        )
        cv = data["metrics"]["cv"]
        return cls(
            layer_kind=LayerKind(data["layer_kind"]),
            spec=spec,
            columns=tuple(data["columns"]),
            feature_scaler=ScalerParams.from_dict(data["feature_scaler"]),
            target_scaler=ScalerParams.from_dict(data["target_scaler"]),
            model=LinearModel(
                coefficients=tuple(data["model"]["coefficients"]),
                intercept=data["model"]["intercept"],
                kind=data["model"]["kind"],
                lam=data["model"]["lambda"],
            ),
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
            raise MissingKindError(f"bundle has no predictor for {kind.value}") from None

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
        if doc.get("format_version") != BUNDLE_FORMAT_VERSION:
            raise ValidationError(f"unsupported bundle format_version {doc.get('format_version')!r}")
        models = {
            LayerKind(key): PredictorModel.from_dict(value) for key, value in doc["models"].items()
        }
        return cls(models=models, metadata=doc.get("metadata", {}))

    @classmethod
    def load(cls, path) -> "PredictorBundle":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def dataset_fingerprint(records: list[MeasurementRecord]) -> str:
    """Order-sensitive sha256 over the canonical record encoding."""
    digest = hashlib.sha256()
    for record in records:
        cfg = record.config
        digest.update(
            "|".join(
                [
                    record.module.value,
                    *(str(getattr(cfg, f)) for f in (
                        "batch_size", "image_size", "kernel_size", "in_channels",
                        "out_channels", "stride", "padding",
                    )),
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


def train_predictor(
    records: list[MeasurementRecord],
    spec: ModelSpec,
    split_spec: SplitSpec,
    cv_folds: int | None = 10,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
) -> PredictorModel:
    """Fit one pipeline: train on 70%, tune lambda on 20%, report on the 10% test split."""
    kind = records[0].module
    train, _, test = split(records, split_spec)
    design, feature_params, target_params = build_design(
        train, spec.feature_set, spec.poly, spec.feature_scaler
    )
    grid_fits: tuple[LassoFit, ...] = ()
    if spec.model == "lasso":
        # the grid is fitted on this same train split, so its fit at the
        # chosen penalty is the final model
        search = grid_search_lambda(records, spec, lambda_grid, split_spec)
        spec = replace(spec, lam=search.lam)
        model = search.chosen.model
        grid_fits = search.fits
    else:
        model = spec.fit(design.X, design.y)
    if test:
        test_design = transform_records(test, spec.feature_set, spec.poly, feature_params, target_params)
        test_metrics = evaluate(model, test_design.X, test_design.y)
        test_metrics_joules = score(
            invert_target(test_design.y, target_params),
            invert_target(model.predict(test_design.X), target_params),
        )
    else:
        test_metrics = EvalMetrics(r2=float("nan"), mse=float("nan"), max_error=float("nan"))
        test_metrics_joules = test_metrics
    cv = cross_validate(train, spec, k=cv_folds, seed=split_spec.seed) if cv_folds else None
    return PredictorModel(
        layer_kind=kind,
        spec=spec,
        columns=design.column_names,
        feature_scaler=feature_params,
        target_scaler=target_params,
        model=model,
        test_metrics=test_metrics,
        test_metrics_joules=test_metrics_joules,
        cv=cv,
        lasso_fits=grid_fits + (cv.lasso_fits if cv else ()),
    )


def train_default_bundle(
    records: list[MeasurementRecord],
    split_spec: SplitSpec,
    specs: dict[LayerKind, ModelSpec] | None = None,
    kinds: tuple[LayerKind, ...] | None = None,
    metadata: dict | None = None,
    cv_folds: int | None = 10,
) -> PredictorBundle:
    """Train the selected pipeline for every requested layer kind."""
    specs = specs or DEFAULT_MODEL_SPECS
    kinds = kinds or tuple(specs)
    by_kind: dict[LayerKind, list[MeasurementRecord]] = {}
    for record in records:
        by_kind.setdefault(record.module, []).append(record)
    models = {}
    for kind in kinds:
        if kind not in by_kind:
            raise MissingKindError(f"no records for layer kind {kind.value}")
        models[kind] = train_predictor(by_kind[kind], specs[kind], split_spec, cv_folds)
    meta = {
        "hardware": "unknown",
        "dataset_hash": dataset_fingerprint(records),
        "split_seed": split_spec.seed,
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
    """Per-layer predictions summed in layer order (fixed accumulation order)."""
    resolved = extract_predictable_layers(arch.with_batch(batch_size))
    layers = []
    total_joules = 0.0
    total_macs = 0
    for layer in resolved:
        predictor = bundle.model_for(layer.config.kind)
        standalone = as_standalone_config(layer.config, layer.input_shape)
        macs = layer_macs(layer, include_bias=True)
        joules, clamped = predictor.predict_energy(standalone, macs)
        layers.append(LayerEstimate(layer.index, layer.config.kind, macs, joules, clamped))
        total_joules += joules
        total_macs += macs
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


def evaluate_on_real(
    bundle: PredictorBundle, records: list[ModelWiseRecord], sum_mismatch_tolerance: float = 0.05
) -> RealEvaluation:
    """Compare per-layer and summed predictions to measured architecture data."""
    if not records:
        raise EmptyDataError("no model-wise records to evaluate")
    layer_points: list[LayerPoint] = []
    total_points: list[TotalPoint] = []
    for record in records:
        layer_sum = record.layer_energy_sum_j
        if record.total_energy_j > 0 and record.layers:
            mismatch = abs(layer_sum - record.total_energy_j) / record.total_energy_j
            if mismatch > sum_mismatch_tolerance:
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


@dataclass(frozen=True)
class ExperimentRow:
    module: LayerKind
    feature_set: FeatureSetKind
    poly: PolynomialSpec | None
    scaled: bool
    model: str
    lam: float
    cv: CvReport
    test: EvalMetrics
    lasso_sweeps: int  # most sweeps of any of the row's Lasso fits (0 for OLS)
    lasso_unconverged: int  # the row's Lasso fits that hit their sweep cap


#: the feature-set comparison grid per layer kind (pipeline per table row)
_LASSO_SWEEPS = 500  # reporting-grade budget; raw polynomial columns converge slowly

EXPERIMENT_TABLE: dict[LayerKind, tuple[ModelSpec, ...]] = {
    LayerKind.CONV2D: (
        ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(4, True), "none", "lasso", max_iter=_LASSO_SWEEPS),
        ModelSpec(FeatureSetKind.LOG_PARAMETER, PolynomialSpec(3, True), "none", "lasso", max_iter=_LASSO_SWEEPS),
        ModelSpec(FeatureSetKind.MAC_ONLY),
        ModelSpec(FeatureSetKind.PARAMETER_MAC, None, "zscore"),
        ModelSpec(FeatureSetKind.LOG_PARAMETER_MAC, None, "zscore"),
    ),
    LayerKind.MAXPOOL2D: (
        ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(4, True), "none", "lasso", max_iter=_LASSO_SWEEPS),
        ModelSpec(FeatureSetKind.LOG_PARAMETER, PolynomialSpec(3, True), "none", "lasso", max_iter=_LASSO_SWEEPS),
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
    split_spec: SplitSpec,
    cv_folds: int = 10,
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
) -> list[ExperimentRow]:
    """Fit every comparison pipeline for one layer kind; activations are excluded."""
    if kind not in EXPERIMENT_TABLE:
        raise MissingKindError(f"feature-set experiment covers Conv2d/MaxPool2d/Linear, not {kind.value}")
    subset = [r for r in records if r.module is kind]
    if not subset:
        raise MissingKindError(f"no records for layer kind {kind.value}")
    rows = []
    for spec in EXPERIMENT_TABLE[kind]:
        trained = train_predictor(subset, spec, split_spec, cv_folds, lambda_grid)
        rows.append(
            ExperimentRow(
                module=kind,
                feature_set=spec.feature_set,
                poly=spec.poly,
                scaled=spec.feature_scaler == "zscore",
                model="Lasso" if spec.model == "lasso" else "Linear",
                lam=trained.model.lam,
                cv=trained.cv,
                test=trained.test_metrics,
                lasso_sweeps=max((fit.sweeps for fit in trained.lasso_fits), default=0),
                lasso_unconverged=sum(not fit.converged for fit in trained.lasso_fits),
            )
        )
    return rows


@dataclass(frozen=True)
class AblationRow:
    mask: int
    features: tuple[str, ...]
    r2: float
    mse: float


#: subsets solved per batched call, bounding the stacked Gram blocks and test predictions
_ABLATION_CHUNK = 2048
#: reciprocal condition number below which a Gram block counts as singular;
#: its subset is refit by ``fit_ols`` for the minimum-norm solution
_GRAM_RCOND = 1e-8


def run_ablation(
    records: list[MeasurementRecord],
    kind: LayerKind = LayerKind.CONV2D,
    split_spec: SplitSpec | None = None,
) -> list[AblationRow]:
    """Fit a standardized linear model on every non-empty feature subset.

    The feature universe is the parameters, their log transforms, and the MAC
    count (15 columns for Conv2d, so 32767 subsets). The columns are
    standardized once; every subset's least-squares fit is its block of the
    centred train Gram matrix solved against its part of X^T y, batched by
    subset size, and scored on the test rows per batch. Rows are ordered by
    bitmask.
    """
    split_spec = split_spec or SplitSpec()
    subset = [r for r in records if r.module is kind]
    if not subset:
        raise MissingKindError(f"no records for layer kind {kind.value}")
    names = raw_feature_names(kind, FeatureSetKind.LOG_PARAMETER_MAC)
    train, _, test = split(subset, split_spec)
    design, _, target_params = build_design(train, FeatureSetKind.LOG_PARAMETER_MAC, None, "none")
    test_design = transform_records(
        test, FeatureSetKind.LOG_PARAMETER_MAC, None,
        ScalerParams(kind="none", columns=names), target_params,
    )
    mean = design.X.mean(axis=0)
    std = design.X.std(axis=0)
    std[std == 0] = 1.0
    X_train, y_train = (design.X - mean) / std, design.y
    X_test, y_test = (test_design.X - mean) / std, test_design.y
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
    # a mask's names are its lowest bit's name followed by the rest's, in column order
    features: list[tuple[str, ...]] = [()] * 2**width
    for mask in range(1, 2**width):
        low = (mask & -mask).bit_length() - 1
        features[mask] = (names[low],) + features[mask & (mask - 1)]
    r2_values, mse_values = r2.tolist(), mse.tolist()
    return [
        AblationRow(mask, features[mask], r2_values[mask], mse_values[mask])
        for mask in range(1, 2**width)
    ]
