import warnings

import numpy as np
import pytest

from conftest import ALPHA, synth_modelwise, synth_records
from joulecast.arch import (
    ArchitectureSpec,
    LayerKind,
    TensorShape,
    as_standalone_config,
    extract_predictable_layers,
    load_architecture,
)
from joulecast.dataset import MeasurementRecord, SplitSpec, split
from joulecast.errors import (
    AggregationWarning,
    EmptyDataError,
    MissingKindError,
    NotConvergedWarning,
    SingularityWarning,
)
from joulecast.features import (
    FeatureSetKind,
    PolynomialSpec,
    ScalerParams,
    build_design,
    raw_feature_names,
    transform_records,
)
from joulecast.macs import architecture_macs, standalone_macs
from joulecast.predict import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_MODEL_SPECS,
    PredictorBundle,
    PredictorModel,
    dataset_fingerprint,
    estimate,
    evaluate_on_real,
    run_ablation,
    run_feature_set_experiment,
    train_default_bundle,
    train_predictor,
)
from joulecast.regress import (
    EvalMetrics,
    LinearModel,
    ModelSpec,
    evaluate,
    fit_lasso,
    fit_ols,
    grid_search_lambda,
)


class TestTrainDefaultBundle:
    def test_every_kind_recovers_its_world(self, trained_bundle):
        for kind, model in trained_bundle.models.items():
            assert model.test_metrics.r2 >= 0.99, kind

    def test_missing_kind(self, bundle_dataset):
        conv_only = [r for r in bundle_dataset if r.module is LayerKind.CONV2D]
        with pytest.raises(MissingKindError):
            train_default_bundle(conv_only, SplitSpec(seed=0))

    def test_kind_subset(self, bundle_dataset):
        conv_only = [r for r in bundle_dataset if r.module is LayerKind.CONV2D]
        bundle = train_default_bundle(conv_only, SplitSpec(seed=0), kinds=(LayerKind.CONV2D,))
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
        a = train_default_bundle(bundle_dataset, SplitSpec(seed=11), cv_folds=None)
        b = train_default_bundle(bundle_dataset, SplitSpec(seed=11), cv_folds=None)
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

    def test_missing_kind_rejected(self, bundle_dataset):
        conv_only = [r for r in bundle_dataset if r.module is LayerKind.CONV2D]
        bundle = train_default_bundle(conv_only, SplitSpec(seed=0), kinds=(LayerKind.CONV2D,))
        with pytest.raises(MissingKindError):
            estimate(bundle, load_architecture("vgg11"), 1)

    def test_negative_predictions_clamped_and_flagged(self):
        # a predictor rigged to always produce negative joules
        rigged = PredictorModel(
            layer_kind=LayerKind.RELU,
            spec=ModelSpec(FeatureSetKind.MAC_ONLY),
            columns=("macs",),
            feature_scaler=ScalerParams(kind="none", columns=("macs",)),
            target_scaler=ScalerParams(kind="minmax", columns=("cpu_energy_j",),
                                       minimum=(0.5,), maximum=(1.0,)),
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
        with pytest.raises(EmptyDataError):
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
        rows = run_feature_set_experiment(
            [r for r in bundle_dataset if r.module is LayerKind.LINEAR],
            LayerKind.LINEAR, SplitSpec(seed=3), cv_folds=5,
        )
        assert len(rows) == 5
        assert [r.feature_set for r in rows] == [
            FeatureSetKind.PARAMETER, FeatureSetKind.LOG_PARAMETER, FeatureSetKind.MAC_ONLY,
            FeatureSetKind.PARAMETER_MAC, FeatureSetKind.LOG_PARAMETER_MAC,
        ]

    def test_activations_rejected(self, bundle_dataset):
        with pytest.raises(MissingKindError):
            run_feature_set_experiment(bundle_dataset, LayerKind.SIGMOID, SplitSpec())

    def test_mac_sets_beat_parameter_sets_on_mac_world(self, bundle_dataset):
        rows = run_feature_set_experiment(
            [r for r in bundle_dataset if r.module is LayerKind.CONV2D],
            LayerKind.CONV2D, SplitSpec(seed=3), cv_folds=5,
        )
        scores = {row.feature_set: row.test.r2 for row in rows}
        mac_worst = min(scores[FeatureSetKind.MAC_ONLY], scores[FeatureSetKind.PARAMETER_MAC],
                        scores[FeatureSetKind.LOG_PARAMETER_MAC])
        param_best = max(scores[FeatureSetKind.PARAMETER], scores[FeatureSetKind.LOG_PARAMETER])
        assert mac_worst > param_best

    def test_deterministic(self, bundle_dataset):
        records = [r for r in bundle_dataset if r.module is LayerKind.LINEAR]
        a = run_feature_set_experiment(records, LayerKind.LINEAR, SplitSpec(seed=3), cv_folds=2)
        b = run_feature_set_experiment(records, LayerKind.LINEAR, SplitSpec(seed=3), cv_folds=2)
        assert a == b


class TestLassoPipeline:
    def test_final_model_is_the_grid_fit(self):
        records = synth_records(LayerKind.LINEAR, 60, seed=6)
        spec = ModelSpec(FeatureSetKind.PARAMETER, PolynomialSpec(2, True), model="lasso",
                         max_iter=300)
        split_spec = SplitSpec(seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            trained = train_predictor(records, spec, split_spec, cv_folds=3)
            search = grid_search_lambda(records, spec, DEFAULT_LAMBDA_GRID, split_spec)
            train, _, _ = split(records, split_spec)
            design, _, _ = build_design(train, spec.feature_set, spec.poly, spec.feature_scaler)
            refit = fit_lasso(design.X, design.y, search.lam, spec.tol, spec.max_iter)
        assert trained.spec.lam == search.lam
        assert trained.model == search.chosen.model
        np.testing.assert_allclose(trained.model.coefficients, refit.coefficients, rtol=0, atol=1e-12)
        assert len(trained.lasso_fits) == len(DEFAULT_LAMBDA_GRID) + 3


class TestAblationStructure:
    """Structural checks on a small universe; the full 32767-subset run lives
    in the acceptance suite."""

    def test_linear_universe_is_exhaustive(self):
        records = synth_records(LayerKind.LINEAR, 80, seed=4, noise=0.0)
        rows = run_ablation(records, LayerKind.LINEAR, SplitSpec(seed=1))
        assert len(rows) == 2**7 - 1  # 3 params + 3 logs + macs
        assert sorted(r.mask for r in rows) == list(range(1, 128))
        full = rows[-1]
        assert set(full.features) == {
            "batch_size", "in_channels", "out_channels",
            "log_batch_size", "log_in_channels", "log_out_channels", "macs",
        }
        assert full.r2 == pytest.approx(1.0, abs=1e-9)  # noiseless world

    def test_batched_matches_per_subset_oracle(self):
        # a constant batch size makes batch_size and log_batch_size zero after
        # standardization, so every subset holding either has a singular block
        ranges = {LayerKind.LINEAR: {"batch_size": (1, 1), "in_channels": (1, 2000),
                                     "out_channels": (1, 2000)}}
        records = synth_records(LayerKind.LINEAR, 60, seed=5, ranges=ranges)
        split_spec = SplitSpec(seed=2)
        names = raw_feature_names(LayerKind.LINEAR, FeatureSetKind.LOG_PARAMETER_MAC)
        train, _, test = split(records, split_spec)
        design, _, target = build_design(train, FeatureSetKind.LOG_PARAMETER_MAC, None, "none")
        test_design = transform_records(test, FeatureSetKind.LOG_PARAMETER_MAC, None,
                                        ScalerParams(kind="none", columns=names), target)
        rows = run_ablation(records, LayerKind.LINEAR, split_spec)
        assert [r.mask for r in rows] == list(range(1, 128))
        for row in rows:
            cols = [i for i in range(len(names)) if row.mask >> i & 1]
            Xtr = design.X[:, cols]
            mean = Xtr.mean(axis=0)
            std = Xtr.std(axis=0)
            std[std == 0] = 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SingularityWarning)
                model = fit_ols((Xtr - mean) / std, design.y)
            oracle = evaluate(model, (test_design.X[:, cols] - mean) / std, test_design.y)
            assert row.features == tuple(names[i] for i in cols)
            assert row.r2 == pytest.approx(oracle.r2, rel=0, abs=1e-12)
            assert row.mse == pytest.approx(oracle.mse, rel=0, abs=1e-12)
        # minimum norm: a zero column adds nothing to the fit
        by_mask = {r.mask: r for r in rows}
        assert by_mask[0b1000110].r2 == pytest.approx(by_mask[0b1000111].r2, abs=1e-12)


class TestEnrichment:
    """Adding real-architecture configurations to a gap-ridden training set
    must not hurt validation on real-like configurations."""

    @staticmethod
    def _curved_record(config):
        macs = standalone_macs(config)
        energy = ALPHA * float(macs) ** 1.08  # mild curvature defeats pure extrapolation
        return MeasurementRecord(module=LayerKind.CONV2D, config=config, macs=macs,
                                 cpu_energy_j=energy, source="random")

    def _real_conv_records(self, names, batches):
        out = []
        for name in names:
            arch = load_architecture(name)
            for batch in batches:
                for resolved in extract_predictable_layers(arch.with_batch(batch)):
                    if resolved.config.kind is LayerKind.CONV2D:
                        cfg = as_standalone_config(resolved.config, resolved.input_shape)
                        record = self._curved_record(cfg)
                        out.append(MeasurementRecord(
                            module=record.module, config=record.config, macs=record.macs,
                            cpu_energy_j=record.cpu_energy_j, source="real_architecture",
                        ))
        return out

    def test_merge_improves_real_validation(self):
        from joulecast.dataset import merge_real_configs
        from joulecast.features import build_design, transform_records
        from joulecast.regress import evaluate, fit_ols

        small = {LayerKind.CONV2D: {
            "batch_size": (1, 4), "image_size": (8, 24), "kernel_size": (1, 3),
            "in_channels": (1, 16), "out_channels": (1, 16), "stride": (1, 2), "padding": (0, 1),
        }}
        random_train = [self._curved_record(c) for c in (
            __import__("joulecast.dataset", fromlist=["sample_config"]).sample_config(
                LayerKind.CONV2D, seed, small) for seed in range(120)
        )]
        real_train = self._real_conv_records(("vgg11",), (1,))
        validation = self._real_conv_records(("vgg13", "vgg16"), (1, 2))

        def score(train):
            design, feat, target = build_design(train, FeatureSetKind.MAC_ONLY)
            model = fit_ols(design.X, design.y)
            val = transform_records(validation, FeatureSetKind.MAC_ONLY, None, feat, target)
            return evaluate(model, val.X, val.y).r2

        before = score(random_train)
        after = score(merge_real_configs(random_train, real_train))
        assert after >= before
        assert after > 0.9


def test_fingerprint_changes_with_data(bundle_dataset):
    fp = dataset_fingerprint(bundle_dataset)
    assert fp == dataset_fingerprint(list(bundle_dataset))
    altered = list(bundle_dataset)
    altered[0] = MeasurementRecord(
        module=altered[0].module, config=altered[0].config, macs=altered[0].macs,
        cpu_energy_j=altered[0].cpu_energy_j * 2, repeat=altered[0].repeat, source=altered[0].source,
    )
    assert dataset_fingerprint(altered) != fp
