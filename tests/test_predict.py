import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ALPHA,
    NON_SQUARE_NET,
    TEST_RANGES,
    design_of,
    fit_map,
    split_records,
    synth_modelwise,
    synth_records,
)
from joulecast.arch import (
    KIND_SPECS,
    ArchitectureSpec,
    LayerKind,
    TensorShape,
    load_architecture,
)
from joulecast.dataset import MeasurementRecord, sample_config
from joulecast.errors import (
    AggregationWarning,
    NotConvergedWarning,
    ParseError,
    ShapeError,
    SingularityWarning,
    ValidationError,
)
from joulecast.features import FeatureMap, FeatureSetKind, KindMatrix, PolynomialSpec, raw_feature_names
from joulecast.macs import INT64_MAX, architecture_macs, standalone_macs
from joulecast.predict import (
    DEFAULT_LAMBDA_GRID,
    EXPERIMENT_TABLE,
    ModelSpec,
    PredictorBundle,
    PredictorModel,
    DEFAULT_MODEL_SPECS,
    dataset_fingerprint,
    grid_search_lambda,
    estimate,
    evaluate_on_real,
    run_ablation,
    run_feature_set_experiment,
    train_default_bundle,
    train_on_matrix,
)
from joulecast.regress import EvalMetrics, LinearModel, evaluate, fit_ols, lasso_path

DATA_DIR = Path(__file__).parent / "data"


class TestTrainDefaultBundle:
    def test_every_kind_recovers_its_world(self, trained_bundle):
        for kind, model in trained_bundle.models.items():
            assert model.test_metrics.r2 >= 0.99, kind

    def test_missing_kind(self, bundle_dataset):
        conv_only = [r for r in bundle_dataset if r.module is LayerKind.CONV2D]
        with pytest.raises(ValidationError, match="^no records for layer kind MaxPool2d$"):
            train_default_bundle(conv_only, 0)

    def test_kind_subset(self, bundle_dataset):
        conv_only = [r for r in bundle_dataset if r.module is LayerKind.CONV2D]
        bundle = train_default_bundle(conv_only, 0, kinds=(LayerKind.CONV2D,))
        assert set(bundle.models) == {LayerKind.CONV2D}

    def test_selected_pipelines_match_defaults(self, trained_bundle):
        assert trained_bundle.models[LayerKind.CONV2D].spec.feature_set is FeatureSetKind.MAC_ONLY
        pool = trained_bundle.models[LayerKind.MAXPOOL2D].spec
        assert pool.feature_set is FeatureSetKind.LOG_PARAMETER_MAC
        assert pool.poly.degree == 2 and pool.poly.interaction_only
        assert pool.feature_scaler == "zscore"
        tanh = trained_bundle.models[LayerKind.TANH].spec
        assert tanh.poly.degree == 2 and not tanh.poly.interaction_only

    def test_retrain_is_byte_identical(self, bundle_dataset):
        a = train_default_bundle(bundle_dataset, 11, cv_folds=None)
        b = train_default_bundle(bundle_dataset, 11, cv_folds=None)
        assert a.to_json() == b.to_json()

    def test_metadata_fingerprint(self, bundle_dataset, trained_bundle):
        assert trained_bundle.metadata["dataset_hash"] == dataset_fingerprint(bundle_dataset)
        assert trained_bundle.metadata["hardware"] == "unknown"


class TestBundleRoundTrip:
    def test_save_load_estimate_bit_identical(self, trained_bundle, tmp_path):
        path = tmp_path / "bundle.json"
        trained_bundle.save(path)
        reloaded = PredictorBundle.load(path)
        arch = load_architecture("vgg11")
        before = estimate(trained_bundle, arch, 2)
        after = estimate(reloaded, arch, 2)
        assert before == after  # bit-identical totals and layers

    def test_json_round_trip_identity(self, trained_bundle):
        text = trained_bundle.to_json()
        assert PredictorBundle.from_json(text).to_json() == text

    # pins on the bundle bytes and an estimate: they move only if training or
    # prediction arithmetic changes (or on a BLAS build that rounds differently)
    def test_default_bundle_bytes_pinned(self, bundle_dataset, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularityWarning)
            text = train_default_bundle(bundle_dataset, 11).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5f3fccac7f375f3c049f909c284707328efe71cdc0286930d4ec660a940bb330"
        )

    def test_vgg16_total_pinned(self, trained_bundle):
        total = estimate(trained_bundle, load_architecture("vgg16"), 1).total_joules
        assert repr(total) == "0.4625452101210034"

    def test_stored_bundle_round_trips_bytes(self):
        # a committed bundle with a Lasso model and z-scored columns dropped as
        # constant; loading and saving it again must reproduce it byte for byte
        text = (DATA_DIR / "bundle_v1.json").read_text(encoding="utf-8")
        assert PredictorBundle.from_json(text).to_json() == text

    def test_stored_bundle_estimates_pinned(self):
        # every layer's joules and clamped flag for the presets and a net that
        # reaches Sigmoid, Tanh and Softmax, at three batches, through all 7
        # predictors of the committed bundle (a Lasso Linear, a 66-column
        # z-scored MaxPool2d): moves only if estimate arithmetic changes
        bundle = PredictorBundle.load(DATA_DIR / "bundle_v1.json")
        activations = {
            "name": "activations",
            "input": {"batch": 1, "channels": 3, "height": 16, "width": 16},
            "layers": [
                {"kind": "Conv2d", "kernel_size": 3, "in_channels": 3, "out_channels": 8,
                 "stride": 1, "padding": 1},
                {"kind": "Sigmoid"},
                {"kind": "MaxPool2d", "kernel_size": 2, "stride": 2, "padding": 0},
                {"kind": "Tanh"},
                {"kind": "Flatten"},
                {"kind": "Linear", "in_channels": 512, "out_channels": 10},
                {"kind": "Softmax"},
            ],
        }
        digest = hashlib.sha256()
        for source in ("alexnet", "vgg11", "vgg13", "vgg16", activations):
            arch = load_architecture(source)
            for batch in (1, 8, 64):
                for layer in estimate(bundle, arch, batch).layers:
                    digest.update(f"{arch.name}|{batch}|{layer.layer_index}|"
                                  f"{layer.joules!r}|{layer.clamped}\n".encode())
        assert digest.hexdigest() == (
            "bfcf0ecdde5bd9d3f3f48b584d741a302ec1dfb39c1cf857696abf2cd80d02f8"
        )

    def test_predict_energy_equals_design_path(self):
        # each stored predictor's single-row answer against a design matrix
        # through the model and the map's inverse target, to the bit
        bundle = PredictorBundle.load(DATA_DIR / "bundle_v1.json")
        rng = np.random.default_rng(5)
        for kind, predictor in bundle.models.items():
            for _ in range(20):
                config = sample_config(kind, rng)
                macs = standalone_macs(config)
                record = MeasurementRecord(config=config, macs=macs, cpu_energy_j=0.0)
                X, _ = design_of(predictor.features, [record])
                expected = float(predictor.features.joules(float(predictor.model.predict(X)[0])))
                assert predictor.predict_energy(config, macs) == (max(expected, 0.0), expected < 0.0)

    def test_predictions_survive_reload(self, trained_bundle, bundle_dataset, tmp_path):
        record = next(r for r in bundle_dataset if r.module is LayerKind.MAXPOOL2D)
        model = trained_bundle.models[LayerKind.MAXPOOL2D]
        before, _ = model.predict_energy(record.config, record.macs)
        path = tmp_path / "b.json"
        trained_bundle.save(path)
        after, _ = PredictorBundle.load(path).models[LayerKind.MAXPOOL2D].predict_energy(
            record.config, record.macs
        )
        assert before == after


@pytest.fixture(scope="module")
def demo_bundle(tmp_path_factory):
    """The bundle of ``scripts/synthetic_demo.py --seed 0``: 60 simulated
    configs of each kind, collected with seeds 0-6, trained with seed 0."""
    from joulecast.cli import main

    directory = tmp_path_factory.mktemp("demo")
    layerwise, bundle = directory / "layerwise.csv", directory / "bundle.json"
    kinds = ("conv2d", "maxpool2d", "linear", "relu", "sigmoid", "tanh", "softmax")
    for seed, kind in enumerate(kinds):
        assert main(["--seed", str(seed), "--simulate", "--quiet", "collect", "--kind", kind,
                     "--count", "60", "--out", str(layerwise)]) == 0
    assert main(["--seed", "0", "--quiet", "train", "--layerwise", str(layerwise), "--out", str(bundle)]) == 0
    return PredictorBundle.load(bundle)


def _set(doc: dict, path: str, value) -> None:
    """Set the ``/``-separated key ``path`` of a decoded bundle to ``value``."""
    *parents, last = path.split("/")
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("changes, error, message", [
    ({"format_version": 2}, ValidationError, "unsupported bundle format_version 2"),
    ({"models/ReLU/model/coefficients": [1.0, 2.0]}, ParseError, "{path}: 2 coefficients for 1 columns"),
    ({"models/Tanh/layer_kind": "ReLU"}, ParseError, "{path}: model under 'Tanh' is for ReLU"),
    ({"models/ReLU/feature_scaler_kind": "minmax", "models/ReLU/feature_scaler/kind": "minmax"}, ValidationError,
     "unsupported feature scaler 'minmax'"),
    ({"models/ReLU/feature_scaler/kind": "zscore"}, ParseError,
     "{path}: scaler entries disagree with the model's feature_scaler_kind and columns"),
    ({"models/ReLU/target_scaler/columns": ["joules"]}, ParseError,
     "{path}: scaler entries disagree with the model's feature_scaler_kind and columns"),
])
def test_bundle_refusals(tmp_path, changes, error, message):
    doc = json.loads((DATA_DIR / "bundle_v1.json").read_text(encoding="utf-8"))
    for key, value in changes.items():
        _set(doc, key, value)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(error) as info:
        PredictorBundle.load(path)
    assert type(info.value) is error and str(info.value) == message.format(path=path)


class TestOneColumnPredictors:
    """A predictor whose design row is the bare MAC count answers with a
    scalar product and sum; it must equal the design path to the bit."""

    @pytest.mark.parametrize("source", ["stored", "demo"])
    def test_equals_design_path_bit_for_bit(self, source, demo_bundle):
        bundle = PredictorBundle.load(DATA_DIR / "bundle_v1.json") if source == "stored" else demo_bundle
        one_column = {kind: model for kind, model in bundle.models.items()
                      if model.features.scaler == "none" and len(model.features.columns) == 1}
        assert LayerKind.CONV2D in one_column and LayerKind.RELU in one_column
        rng = np.random.default_rng(13)
        draws = [int(2 ** rng.uniform(0, 63)) for _ in range(500)]
        draws += [int(m) for m in rng.integers(1, INT64_MAX, 500, endpoint=True)]
        for kind, predictor in one_column.items():
            config = sample_config(kind, rng)
            features = predictor.features
            for macs in [1, 2**53 + 1, INT64_MAX] + draws:
                record = MeasurementRecord(config=config, macs=macs, cpu_energy_j=0.0)
                X, _ = design_of(features, [record])
                expected = float(features.joules(float(predictor.model.predict(X)[0])))
                joules, clamped = predictor.predict_energy(config, macs)
                assert clamped == (expected < 0.0)
                assert joules.hex() == (0.0 if clamped else expected).hex()

    def test_keeps_the_kind_mismatch_error(self):
        predictor = PredictorBundle.load(DATA_DIR / "bundle_v1.json").model_for(LayerKind.CONV2D)
        with pytest.raises(ValidationError, match="^feature map fitted on Conv2d, config is ReLU$") as info:
            predictor.predict_energy(sample_config(LayerKind.RELU, 0), 10)
        assert str(info.value) == "feature map fitted on Conv2d, config is ReLU"


#: Conv2d drawn at one stride, so the stride, its log and their products are constant
ONE_STRIDE = {**TEST_RANGES, LayerKind.CONV2D: {**TEST_RANGES[LayerKind.CONV2D], "stride": (2, 2)}}
ZSCORED_D2 = ModelSpec(FeatureSetKind.LOG_PARAMETER_MAC, PolynomialSpec(2, interaction_only=True), "zscore")
FULL_D2 = ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(2))


def _fused_row_cases():
    cases = [(LayerKind.CONV2D, ZSCORED_D2), (LayerKind.TANH, FULL_D2)]
    return cases + [(kind, spec) for kind, specs in EXPERIMENT_TABLE.items() for spec in specs]


class TestFusedRow:
    """``FeatureMap.row`` forms only the kept monomials and z-scores them in
    place, and ``predict_energy`` takes a 1-D dot with the coefficients: each
    must equal the design path (``design_rows``, then ``model.predict`` on the
    row as a one-row matrix) to the bit."""

    @pytest.mark.parametrize("kind, spec", _fused_row_cases(),
                             ids=lambda v: v.value if isinstance(v, LayerKind) else None)
    def test_row_and_prediction_equal_design_path(self, kind, spec):
        records = synth_records(kind, 40, seed=17, ranges=ONE_STRIDE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            predictor = train_on_matrix(KindMatrix.build(records), spec, 4, cv_folds=None)
        features = predictor.features
        if (kind, spec) == (LayerKind.CONV2D, ZSCORED_D2):
            assert "stride" in features.dropped and "log_stride^2" not in features.columns
        # the training rows, then draws from the full sampler ranges, which
        # extrapolate and can clamp
        records += synth_records(kind, 20, seed=18, ranges={kind: KIND_SPECS[kind].ranges})
        X, _ = features.design_rows(KindMatrix.build(records), np.arange(len(records)))
        for record, row in zip(records, X):
            assert np.array_equal(features.row(record.config, record.macs), row)
            # a z-scored design is in Fortran order, and a strided row takes
            # another product path: the row ``predict`` used to get was a new,
            # contiguous array
            row = row.copy()
            expected = float(features.joules(float(predictor.model.predict(row[None, :])[0])))
            joules, clamped = predictor.predict_energy(record.config, record.macs)
            assert clamped == (expected < 0.0)
            assert joules.hex() == (0.0 if clamped else expected).hex()

    def test_coefficients_must_match_the_columns(self):
        features, _, _ = fit_map(synth_records(LayerKind.RELU, 8, seed=1), FeatureSetKind.PARAMETER, None, "none")
        with pytest.raises(ValidationError, match="^model has 1 coefficients, features have 2 columns$"):
            PredictorModel(features, LinearModel((1.0,), 0.0), EvalMetrics(0.0, 0.0, 0.0), EvalMetrics(0.0, 0.0, 0.0))


class TestEstimate:
    def test_no_predictable_layers_total_zero(self, trained_bundle):
        arch = ArchitectureSpec("drop", TensorShape(1, 3, 8, 8),
                                (type(load_architecture("vgg11").layers[0])(kind=LayerKind.DROPOUT),))
        result = estimate(trained_bundle, arch, 1)
        assert result.total_joules == 0.0 and result.layers == ()

    def test_total_equals_layer_sum_bit_exactly(self, trained_bundle):
        result = estimate(trained_bundle, load_architecture("alexnet"), 3)
        running = 0.0
        for layer in result.layers:
            running += layer.joules
        assert result.total_joules == running
        assert result.total_macs == sum(l.macs for l in result.layers)

    def test_vgg11_close_to_analytic_alpha_total(self, trained_bundle):
        arch = load_architecture("vgg11")
        result = estimate(trained_bundle, arch, 1)
        _, total_macs = architecture_macs(arch)
        assert result.total_joules == pytest.approx(ALPHA * total_macs, rel=0.02)

    @pytest.mark.parametrize("batch", [1, 8, 64])
    def test_non_square_input_names_the_layer_at_every_batch(self, trained_bundle, batch):
        with pytest.raises(ShapeError) as info:
            estimate(trained_bundle, load_architecture(NON_SQUARE_NET), batch)
        assert str(info.value) == (
            "layer 0 (Conv2d): Conv2d: non-square input 8x6 has no standalone image_size"
        )

    def test_missing_kind_rejected(self, bundle_dataset):
        conv_only = [r for r in bundle_dataset if r.module is LayerKind.CONV2D]
        bundle = train_default_bundle(conv_only, 0, kinds=(LayerKind.CONV2D,))
        with pytest.raises(ValidationError, match="^bundle has no predictor for ReLU$"):
            estimate(bundle, load_architecture("vgg11"), 1)

    def test_negative_predictions_clamped_and_flagged(self):
        # a predictor rigged to always produce negative joules
        rigged = PredictorModel(
            features=FeatureMap(LayerKind.RELU, FeatureSetKind.MAC_ONLY, None, "none", ("macs",),
                                target_min=0.5, target_max=1.0),
            model=LinearModel((0.0,), -10.0),  # normalized prediction -10 -> -4.5 J
            test_metrics=EvalMetrics(0.0, 0.0, 0.0),
            test_metrics_joules=EvalMetrics(0.0, 0.0, 0.0),
        )
        joules, clamped = rigged.predict_energy(
            type(load_architecture("vgg11").layers[0])(kind=LayerKind.RELU, batch_size=1, in_channels=100),
            macs=50,
        )
        assert joules == 0.0 and clamped
        bundle = PredictorBundle(models={LayerKind.RELU: rigged}, metadata={})
        arch = ArchitectureSpec(
            "relu-only", TensorShape(1, 3, 4, 4),
            (type(load_architecture("vgg11").layers[0])(kind=LayerKind.RELU),),
        )
        result = estimate(bundle, arch, 1)
        assert result.layers[0].clamped and result.layers[0].joules == 0.0
        assert result.to_dict()["flags"]["clamped_layers"] == [0]
        assert all(l.joules >= 0.0 for l in result.layers)


class TestEvaluateOnReal:
    def test_perfect_world_scores_one(self, trained_bundle):
        records = synth_modelwise(arch_names=("vgg11", "alexnet"), batches=(1, 2), noise=0.0)
        evaluation = evaluate_on_real(trained_bundle, records)
        assert evaluation.overall.r2 > 0.999
        assert evaluation.per_kind[LayerKind.CONV2D].r2 > 0.99

    def test_injected_total_mismatch_warns(self, trained_bundle):
        records = synth_modelwise(arch_names=("vgg11",), batches=(1,), total_scale=1.10)
        with pytest.warns(AggregationWarning):
            evaluate_on_real(trained_bundle, records)

    def test_consistent_totals_do_not_warn(self, trained_bundle):
        import warnings

        records = synth_modelwise(arch_names=("vgg11",), batches=(1,), total_scale=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_on_real(trained_bundle, records)
        assert not [c for c in caught if c.category is AggregationWarning]

    def test_empty_records(self, trained_bundle):
        with pytest.raises(ValidationError, match="^no model-wise records to evaluate$"):
            evaluate_on_real(trained_bundle, [])

    def test_scatter_points_cover_layers(self, trained_bundle):
        records = synth_modelwise(arch_names=("alexnet",), batches=(1,))
        evaluation = evaluate_on_real(trained_bundle, records)
        assert len(evaluation.layer_points) == len(records[0].layers)
        assert len(evaluation.total_points) == 1
        point = evaluation.total_points[0]
        assert point.layer_measured_sum_j == pytest.approx(point.measured_j, rel=1e-9)


class TestFeatureSetExperiment:
    def test_linear_kind_has_five_rows(self, bundle_dataset):
        models = run_feature_set_experiment(
            [r for r in bundle_dataset if r.module is LayerKind.LINEAR],
            LayerKind.LINEAR, 3, cv_folds=5,
        )
        assert len(models) == 5
        assert [m.spec for m in models] == list(EXPERIMENT_TABLE[LayerKind.LINEAR])
        assert [m.spec.feature_set for m in models] == [
            FeatureSetKind.PARAMETER, FeatureSetKind.LOG_PARAMETER, FeatureSetKind.MAC_ONLY,
            FeatureSetKind.PARAMETER_MAC, FeatureSetKind.LOG_PARAMETER_MAC,
        ]

    def test_activations_rejected(self, bundle_dataset):
        with pytest.raises(ValidationError, match="^feature-set experiment covers Conv2d/MaxPool2d/Linear, not Sigmoid$"):
            run_feature_set_experiment(bundle_dataset, LayerKind.SIGMOID, 0)

    @pytest.mark.parametrize("kind", [LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.SOFTMAX])
    def test_activation_error_names_the_covered_kinds(self, kind):
        covers = f"^feature-set experiment covers Conv2d/MaxPool2d/Linear, not {kind.value}$"
        with pytest.raises(ValidationError, match=covers) as info:
            run_feature_set_experiment([], kind, 0)
        assert str(info.value) == f"feature-set experiment covers Conv2d/MaxPool2d/Linear, not {kind.value}"

    def test_mac_sets_beat_parameter_sets_on_mac_world(self, bundle_dataset):
        models = run_feature_set_experiment(
            [r for r in bundle_dataset if r.module is LayerKind.CONV2D],
            LayerKind.CONV2D, 3, cv_folds=5,
        )
        scores = {model.spec.feature_set: model.test_metrics.r2 for model in models}
        mac_worst = min(scores[FeatureSetKind.MAC_ONLY], scores[FeatureSetKind.PARAMETER_MAC],
                        scores[FeatureSetKind.LOG_PARAMETER_MAC])
        param_best = max(scores[FeatureSetKind.PARAMETER], scores[FeatureSetKind.LOG_PARAMETER])
        assert mac_worst > param_best

    def test_deterministic(self, bundle_dataset):
        records = [r for r in bundle_dataset if r.module is LayerKind.LINEAR]
        a = run_feature_set_experiment(records, LayerKind.LINEAR, 3, cv_folds=2)
        b = run_feature_set_experiment(records, LayerKind.LINEAR, 3, cv_folds=2)
        assert a == b


class TestLassoPipeline:
    def test_final_model_is_the_grid_fit(self):
        records = synth_records(LayerKind.LINEAR, 60, seed=6)
        spec = ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(2, True), model="lasso")
        split_seed = 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            trained = train_on_matrix(KindMatrix.build(records), spec, split_seed, cv_folds=3)
            train, val, _ = split_records(records, split_seed)
            features, X, y = fit_map(train, spec.feature_set, spec.poly, spec.feature_scaler)
            fits, chosen = grid_search_lambda((X, y), design_of(features, val), DEFAULT_LAMBDA_GRID)
            refit = lasso_path(X, y, [chosen.model.lam])[0].model
        assert trained.spec.lam == chosen.model.lam
        assert trained.model == chosen.model
        assert trained.lasso_fits[:len(fits)] == fits
        np.testing.assert_allclose(trained.model.coefficients, refit.coefficients, rtol=0, atol=1e-12)
        assert len(trained.lasso_fits) == len(DEFAULT_LAMBDA_GRID) + 3


@pytest.mark.parametrize("energy", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_energy_is_refused_where_records_become_arrays(energy):
    # one record's energy reaches no design: ablation and training both stop
    # in ``KindMatrix.build``
    records = synth_records(LayerKind.LINEAR, 20, seed=3)
    records[5] = replace(records[5], cpu_energy_j=energy)
    calls = [
        lambda: run_ablation(records, LayerKind.LINEAR, 0),
        lambda: train_on_matrix(KindMatrix.build(records), DEFAULT_MODEL_SPECS[LayerKind.LINEAR], 0),
        lambda: train_default_bundle(records, 0, kinds=(LayerKind.LINEAR,)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^records hold a non-finite MAC count or energy$") as info:
            call()
        assert info.traceback[-1].name == "build"


class TestAblationStructure:
    """Structural checks on a small universe; the full 32767-subset run lives
    in the acceptance suite."""

    def test_linear_universe_is_exhaustive(self):
        records = synth_records(LayerKind.LINEAR, 80, seed=4, noise=0.0)
        table = run_ablation(records, LayerKind.LINEAR, 1)
        assert len(table.r2) == len(table.mse) == 2**7  # 3 params + 3 logs + macs, and the empty mask
        assert np.isnan(table.r2[0]) and np.isnan(table.mse[0])
        assert np.isfinite(table.r2[1:]).all() and np.isfinite(table.mse[1:]).all()
        assert set(table.columns) == {
            "batch_size", "in_channels", "out_channels",
            "log_batch_size", "log_in_channels", "log_out_channels", "macs",
        }
        assert table.r2[127] == pytest.approx(1.0, abs=1e-9)  # noiseless world

    def test_batched_matches_per_subset_oracle(self):
        # a constant batch size makes batch_size and log_batch_size zero after
        # standardization, so every subset holding either has a singular block
        ranges = {LayerKind.LINEAR: {"batch_size": (1, 1), "in_channels": (1, 2000),
                                     "out_channels": (1, 2000)}}
        records = synth_records(LayerKind.LINEAR, 60, seed=5, ranges=ranges)
        split_seed = 2
        names = raw_feature_names(LayerKind.LINEAR)
        train, _, test = split_records(records, split_seed)
        features, X, y = fit_map(train, FeatureSetKind.LOG_PARAMETER_MAC, None, "none")
        X_test, y_test = design_of(features, test)
        table = run_ablation(records, LayerKind.LINEAR, split_seed)
        assert table.columns == names and len(table.r2) == 128
        for mask in range(1, 128):
            cols = [i for i in range(len(names)) if mask >> i & 1]
            Xtr = X[:, cols]
            mean = Xtr.mean(axis=0)
            std = Xtr.std(axis=0)
            std[std == 0] = 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SingularityWarning)
                model = fit_ols((Xtr - mean) / std, y)
            oracle = evaluate(model, (X_test[:, cols] - mean) / std, y_test)
            assert table.r2[mask] == pytest.approx(oracle.r2, rel=0, abs=1e-12)
            assert table.mse[mask] == pytest.approx(oracle.mse, rel=0, abs=1e-12)
        # minimum norm: a zero column adds nothing to the fit
        assert table.r2[0b1000110] == pytest.approx(table.r2[0b1000111], abs=1e-12)


def test_fingerprint_changes_with_data(bundle_dataset):
    fp = dataset_fingerprint(bundle_dataset)
    assert fp == dataset_fingerprint(list(bundle_dataset))
    altered = list(bundle_dataset)
    altered[0] = MeasurementRecord(
        config=altered[0].config, macs=altered[0].macs,
        cpu_energy_j=altered[0].cpu_energy_j * 2, repeat=altered[0].repeat, source=altered[0].source,
    )
    assert dataset_fingerprint(altered) != fp


def test_fingerprint_pinned():
    # canonical record encoding: moves if the field order or formatting changes
    records = []
    for i, (kind, source) in enumerate([(LayerKind.CONV2D, "random"),
                                        (LayerKind.LINEAR, "real_architecture"),
                                        (LayerKind.TANH, "random")]):
        config = sample_config(kind, 1)
        records.append(MeasurementRecord(config=config, macs=standalone_macs(config),
                                         cpu_energy_j=0.25 * (i + 1), repeat=i + 1, source=source))
    assert [r.macs for r in records] == [1_145_652_760_800, 2_349_891_648, 313_897_315]
    assert dataset_fingerprint(records) == (
        "f64a157e01928f8527036bbbb2a6a79773fd3fd3381662f290629558a13d30c9"
    )
