"""joulecast: layer-wise CPU energy prediction for CNN architectures.

Estimates a model's energy per forward pass without running it, from
per-layer features (shape-derived parameters and MAC counts) fed to
per-layer-type regression models, and ships the RAPL-based measurement
pipeline used to collect the training data.
"""

from .arch import (
    ArchitectureSpec,
    LayerConfig,
    LayerKind,
    TensorShape,
    extract_predictable_layers,
    load_architecture,
    propagate_shape,
)
from .dataset import (
    MeasurementRecord,
    ModelWiseRecord,
    load_layerwise_csv,
    load_modelwise_csv,
    sample_config,
)
from .features import FeatureMap, FeatureSetKind, PolynomialSpec
from .macs import architecture_macs, standalone_macs
from .predict import (
    CvReport,
    EnergyEstimate,
    ModelSpec,
    PredictorBundle,
    PredictorModel,
    estimate,
    evaluate_on_real,
    run_ablation,
    run_feature_set_experiment,
    train_default_bundle,
)
from .probe import ProbeResult, RaplDomain, energy_delta, forward_workload, measure_config
from .regress import EvalMetrics, LinearModel, evaluate, fit_ols

__version__ = "0.1.0"

__all__ = [
    "ArchitectureSpec",
    "LayerConfig",
    "LayerKind",
    "TensorShape",
    "extract_predictable_layers",
    "load_architecture",
    "propagate_shape",
    "MeasurementRecord",
    "ModelWiseRecord",
    "load_layerwise_csv",
    "load_modelwise_csv",
    "sample_config",
    "FeatureMap",
    "FeatureSetKind",
    "PolynomialSpec",
    "architecture_macs",
    "standalone_macs",
    "CvReport",
    "EnergyEstimate",
    "ModelSpec",
    "PredictorBundle",
    "PredictorModel",
    "estimate",
    "evaluate_on_real",
    "run_ablation",
    "run_feature_set_experiment",
    "train_default_bundle",
    "ProbeResult",
    "RaplDomain",
    "energy_delta",
    "forward_workload",
    "measure_config",
    "EvalMetrics",
    "LinearModel",
    "evaluate",
    "fit_ols",
    "__version__",
]
