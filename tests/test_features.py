import math
import warnings
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import design_of, fit_map, synth_records
from joulecast.arch import KIND_SPECS, LayerConfig, LayerKind
from joulecast.dataset import MeasurementRecord, group_kfold_indices, sample_config, split_indices
from joulecast.errors import (
    ConstantColumnWarning,
    ValidationError,
)
from joulecast.features import (
    FeatureMap,
    FeatureSetKind,
    KindMatrix,
    PolynomialSpec,
    _expand,
    _monomial_index,
    _recipe,
    polynomial_names,
    raw_feature_names,
)
from joulecast.macs import standalone_macs
from joulecast.predict import DEFAULT_MODEL_SPECS, EXPERIMENT_TABLE
from joulecast.regress import fit_ols


def relu_records(energies, macs=None, batch_sizes=None, in_channels=None):
    """ReLU records with the given energies; MACs, batch sizes and widths default to fixed values."""
    n = len(energies)
    macs = macs or [1000] * n
    batch_sizes = batch_sizes or [1] * n
    in_channels = in_channels or [1000] * n
    return [
        MeasurementRecord(config=LayerConfig(kind=LayerKind.RELU, batch_size=b, in_channels=c),
                          macs=m, cpu_energy_j=float(e))
        for e, m, b, c in zip(energies, macs, batch_sizes, in_channels)
    ]


def set_names(kind, feature_set):
    """Independent oracle of a feature set's raw names: the parameters, their
    logs and the MAC count, each kept or not by the set's name."""
    params = KIND_SPECS[kind].fields
    names = ()
    if feature_set is not FeatureSetKind.MAC_ONLY:
        names += params
    if feature_set in (FeatureSetKind.LOG_PARAMETER, FeatureSetKind.LOG_PARAMETER_MAC):
        names += tuple(f"log_{p}" for p in params)
    if feature_set in (FeatureSetKind.MAC_ONLY, FeatureSetKind.PARAMETER_MAC, FeatureSetKind.LOG_PARAMETER_MAC):
        names += ("macs",)
    return names


def set_row(config, macs, feature_set):
    """Independent oracle of a feature set's raw row, in ``set_names`` order."""
    values = {name: float(getattr(config, name)) for name in KIND_SPECS[config.kind].fields}
    values.update({f"log_{name}": math.log1p(v) for name, v in list(values.items())})
    values["macs"] = float(macs)
    return [values[name] for name in set_names(config.kind, feature_set)]


def fit_target(energies):
    return fit_map(relu_records(energies), FeatureSetKind.MAC_ONLY, None, "none")


def expanded(X, spec):
    """``_expand`` over ``spec``'s monomial index: the expansion every design and row uses."""
    X = np.asarray(X, dtype=float)
    return _expand(X, _monomial_index(X.shape[1], spec))


def np_prod_expansion(X, spec):
    """Independent oracle: ``np.prod`` over each monomial's columns, in ``polynomial_names`` order."""
    p = X.shape[1]
    if spec is None or spec.degree == 1:
        combos = [(i,) for i in range(p)]
    else:
        chooser = combinations if spec.interaction_only else combinations_with_replacement
        combos = [c for d in range(1, spec.degree + 1) for c in chooser(range(p), d)]
    return np.column_stack([np.prod(X[:, list(c)], axis=1) for c in combos])


def records_for(kind, n, seed=0, energy=lambda macs: 1e-9 * macs):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cfg = sample_config(kind, rng)
        macs = standalone_macs(cfg)
        out.append(MeasurementRecord(config=cfg, macs=macs, cpu_energy_j=energy(macs)))
    return out


class TestPolynomial:
    def test_two_columns_interaction_only(self):
        X = np.array([[2.0, 3.0]])
        spec = PolynomialSpec(2, interaction_only=True)
        assert polynomial_names(("a", "b"), spec) == ("a", "b", "a*b")
        assert expanded(X, spec).tolist() == [[2.0, 3.0, 6.0]]

    def test_two_columns_full(self):
        X = np.array([[2.0, 3.0]])
        spec = PolynomialSpec(2, interaction_only=False)
        assert polynomial_names(("a", "b"), spec) == ("a", "b", "a^2", "a*b", "b^2")
        assert expanded(X, spec).tolist() == [[2.0, 3.0, 4.0, 6.0, 9.0]]

    def test_three_columns_degree3_ito(self):
        spec = PolynomialSpec(3, interaction_only=True)
        names = polynomial_names(("a", "b", "c"), spec)
        # 3 linear + 3 pairs + abc
        assert names == ("a", "b", "c", "a*b", "a*c", "b*c", "a*b*c")
        row = expanded(np.array([[2.0, 3.0, 5.0]]), spec)[0]
        assert row.tolist() == [2, 3, 5, 6, 10, 15, 30]

    def test_degree_one_is_identity(self):
        X = np.array([[1.0, 2.0]])
        assert expanded(X, PolynomialSpec(1)).tolist() == X.tolist()
        assert expanded(X, None) is not None

    def test_degree_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^polynomial degree 5 outside \[1, 4\]$"):
            PolynomialSpec(5)
        with pytest.raises(ValidationError, match=r"^polynomial degree 0 outside \[1, 4\]$"):
            PolynomialSpec(0)

    @pytest.mark.parametrize("interaction_only", [True, False])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_expansion_matches_np_prod_bitwise(self, degree, interaction_only):
        rng = np.random.default_rng(degree)
        X = rng.standard_normal((200, 5)) * np.exp(rng.uniform(-20, 20, (200, 5)))
        spec = PolynomialSpec(degree, interaction_only)
        assert expanded(X, spec).tobytes() == np_prod_expansion(X, spec).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4))
    def test_interaction_only_column_count(self, p, d):
        spec = PolynomialSpec(d, interaction_only=True)
        names = polynomial_names(tuple(f"x{i}" for i in range(p)), spec)
        expected = sum(math.comb(p, i) for i in range(1, d + 1))
        assert len(names) == expected == len(set(names))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4))
    def test_full_column_count(self, p, d):
        spec = PolynomialSpec(d, interaction_only=False)
        names = polynomial_names(tuple(f"x{i}" for i in range(p)), spec)
        expected = math.comb(p + d, d) - 1  # all monomials minus the constant
        assert len(names) == expected == len(set(names))


class TestScalers:
    def test_minmax_normalizes_targets(self):
        _, _, y = fit_target([2e-3, 4e-3, 6e-3])
        assert y.tolist() == [0.0, 0.5, 1.0]

    def test_training_minimum_maps_to_zero(self):
        _, _, y = fit_target([0.7, 1.3, 9.0])
        assert y[0] == 0.0

    def test_extrapolation_is_linear(self):
        features, _, _ = fit_target([1.0, 3.0])
        assert features.joules(1.5) == 1.0 + 1.5 * 2.0

    def test_zscore_population_std(self):
        records = relu_records([1.0, 2.0, 3.0], macs=[1, 2, 3])
        features, X, _ = fit_map(records, FeatureSetKind.MAC_ONLY, None, "zscore")
        assert features.columns == ("macs",)
        np.testing.assert_allclose(X[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_column_dropped(self):
        records = relu_records([1.0, 2.0], batch_sizes=[5, 5], in_channels=[1, 2])
        with pytest.warns(ConstantColumnWarning):
            features, X, _ = fit_map(records, FeatureSetKind.PARAMETER, None, "zscore")
        assert features.dropped == ("batch_size",)
        assert features.columns == ("in_channels",) and X.shape == (2, 1)

    def test_constant_target_rejected(self):
        with pytest.raises(ValidationError):
            fit_target([1.0, 1.0, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=2, max_size=30).filter(
            lambda v: max(v) > min(v)
        )
    )
    def test_target_round_trip_identity(self, values):
        y = np.array(values)
        features, _, normalized = fit_target(values)
        back = features.joules(normalized)
        span = y.max() - y.min()  # affine round-trip error scales with the span
        np.testing.assert_allclose(back, y, rtol=1e-12, atol=1e-12 * span)

    def test_scaler_params_round_trip(self):
        records = relu_records([1.0, 2.0, 4.0], macs=[9, 11, 10], batch_sizes=[1, 3, 2])
        with pytest.warns(ConstantColumnWarning):  # in_channels is constant
            features, _, _ = fit_map(records, FeatureSetKind.PARAMETER_MAC, None, "zscore")
        assert FeatureMap.from_dict(features.to_dict()) == features

    def test_columns_must_match_the_recipe(self):
        with pytest.raises(ValidationError):
            FeatureMap(LayerKind.RELU, FeatureSetKind.MAC_ONLY, None, "none", ("batch_size",),
                       target_min=0.0, target_max=1.0)


class TestFeatureAssembly:
    def test_raw_names_conv_log_param_mac(self):
        names = raw_feature_names(LayerKind.CONV2D)
        assert len(names) == 15
        assert names[:7] == ("batch_size", "image_size", "kernel_size", "in_channels",
                             "out_channels", "stride", "padding")
        assert names[7] == "log_batch_size" and names[-1] == "macs"

    def test_feature_set_unions(self):
        for kind in (LayerKind.CONV2D, LayerKind.LINEAR, LayerKind.SIGMOID):
            params = set(_recipe(kind, FeatureSetKind.PARAMETER, None).names)
            logp = set(_recipe(kind, FeatureSetKind.LOG_PARAMETER, None).names)
            logp_mac = set(_recipe(kind, FeatureSetKind.LOG_PARAMETER_MAC, None).names)
            assert params < logp
            assert logp | {"macs"} == logp_mac

    def test_zero_padding_log_is_finite_zero(self):
        cfg = sample_config(LayerKind.CONV2D, 1)
        cfg = type(cfg)(**{**cfg.__dict__, "padding": 0})
        row = KindMatrix.build([MeasurementRecord(cfg, 10, 1.0)]).raw[0]
        assert row[raw_feature_names(LayerKind.CONV2D).index("log_padding")] == 0.0

    def test_activation_parameters(self):
        assert _recipe(LayerKind.SOFTMAX, FeatureSetKind.PARAMETER, None).names == (
            "batch_size", "in_channels",
        )


class TestBuildDesign:
    def test_empty_and_mixed_records(self):
        with pytest.raises(ValidationError, match="^no records to build a design matrix from$"):
            KindMatrix.build([])
        matrix = KindMatrix.build(records_for(LayerKind.CONV2D, 5))
        with pytest.raises(ValidationError, match="^no records to build a design matrix from$"):
            FeatureMap.fit_rows(matrix, [], FeatureSetKind.PARAMETER, None, "none")
        mixed = records_for(LayerKind.CONV2D, 2) + records_for(LayerKind.LINEAR, 2)
        with pytest.raises(ValidationError, match=r"^records mix layer kinds \['Conv2d', 'Linear'\]$"):
            KindMatrix.build(mixed)
        features, _, _ = FeatureMap.fit_rows(matrix, np.arange(5), FeatureSetKind.PARAMETER, None, "none")
        linear = records_for(LayerKind.LINEAR, 2)
        with pytest.raises(ValidationError, match="^feature map fitted on Conv2d, records are Linear$"):
            features.design_rows(KindMatrix.build(linear), [0, 1])
        with pytest.raises(ValidationError, match="^feature map fitted on Conv2d, config is Linear$"):
            features.row(linear[0].config, linear[0].macs)

    def test_deterministic(self):
        records = records_for(LayerKind.MAXPOOL2D, 40, seed=5)
        spec = PolynomialSpec(2, interaction_only=True)
        a = fit_map(records, FeatureSetKind.LOG_PARAMETER_MAC, spec, "zscore")
        b = fit_map(records, FeatureSetKind.LOG_PARAMETER_MAC, spec, "zscore")
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_transform_matches_fit_on_same_records(self):
        records = records_for(LayerKind.LINEAR, 25, seed=3)
        features, X, y = fit_map(records, FeatureSetKind.LOG_PARAMETER_MAC, None, "zscore")
        X_again, y_again = design_of(features, records)
        np.testing.assert_array_equal(X, X_again)
        np.testing.assert_array_equal(y, y_again)

    def test_feature_vector_matches_matrix_row(self):
        records = records_for(LayerKind.CONV2D, 20, seed=9)
        spec = PolynomialSpec(2, interaction_only=True)
        features, X, _ = fit_map(records, FeatureSetKind.PARAMETER_MAC, spec, "zscore")
        row = features.row(records[4].config, records[4].macs)
        np.testing.assert_allclose(row, X[4], rtol=1e-12)

    def test_poly_applied_before_scaling(self):
        # interaction columns must be products of RAW values, not scaled ones
        records = records_for(LayerKind.SIGMOID, 15, seed=2)
        spec = PolynomialSpec(2, interaction_only=True)
        features, X, _ = fit_map(records, FeatureSetKind.PARAMETER, spec, "none")
        b = np.array([r.config.batch_size for r in records], dtype=float)
        s = np.array([r.config.in_channels for r in records], dtype=float)
        idx = features.columns.index("batch_size*in_channels")
        np.testing.assert_array_equal(X[:, idx], b * s)


def _oracle_design(features, records):
    """The per-record path the kind matrix replaced: one raw row per record
    and feature set, expanded, then through the frozen z-score."""
    raw = np.array([set_row(r.config, r.macs, features.feature_set) for r in records], dtype=float)
    X = np_prod_expansion(raw, features.poly)
    if features.scaler == "zscore":
        names = polynomial_names(set_names(features.kind, features.feature_set), features.poly)
        kept = np.array([names.index(c) for c in features.columns], dtype=int)
        X = (X[:, kept] - np.asarray(features.mean)) / np.asarray(features.std)
    y = np.array([r.cpu_energy_j for r in records], dtype=float)
    return X, (y - features.target_min) / (features.target_max - features.target_min)


def _oracle_fit(records, feature_set, poly, scaler):
    kind = records[0].module
    names = polynomial_names(set_names(kind, feature_set), poly)
    raw = np.array([set_row(r.config, r.macs, feature_set) for r in records], dtype=float)
    X = np_prod_expansion(raw, poly)
    columns, stats = names, {}
    if scaler == "zscore":
        mean, std = X.mean(axis=0), X.std(axis=0)
        keep = std > 0
        columns = tuple(n for n, k in zip(names, keep) if k)
        stats = {
            "mean": tuple(float(m) for m in mean[keep]),
            "std": tuple(float(s) for s in std[keep]),
            "dropped": tuple(n for n, k in zip(names, keep) if not k),
        }
    y = np.array([r.cpu_energy_j for r in records], dtype=float)
    features = FeatureMap(kind, feature_set, poly, scaler, columns, float(y.min()), float(y.max()), **stats)
    return features, _oracle_design(features, records)


def _oracle_cases():
    cases = [(kind, spec) for kind, specs in EXPERIMENT_TABLE.items() for spec in specs]
    return cases + list(DEFAULT_MODEL_SPECS.items())


class TestKindMatrixOracle:
    """Maps fitted on rows of one kind matrix equal the per-record path, to the bit."""

    @pytest.mark.parametrize("kind, spec", _oracle_cases(),
                             ids=lambda v: v.value if isinstance(v, LayerKind) else None)
    def test_rows_of_kind_matrix_match_per_record_fit(self, kind, spec):
        records = synth_records(kind, 40, seed=21, repeats=3)
        matrix = KindMatrix.build(records)
        train, _, test = split_indices(matrix.keys, 4)
        folds = group_kfold_indices([matrix.keys[i] for i in train], 5, seed=4)
        parts = [(train, test)] + [
            ([train[i] for i in range(len(train)) if i not in set(held)], [train[i] for i in held])
            for held in folds
        ]
        args = (spec.feature_set, spec.poly, spec.feature_scaler)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for fit_rows, held_rows in parts:
                features, X, y = FeatureMap.fit_rows(matrix, fit_rows, *args)
                oracle, (X_oracle, y_oracle) = _oracle_fit([records[i] for i in fit_rows], *args)
                assert features.to_dict() == oracle.to_dict()
                assert np.array_equal(X, X_oracle) and np.array_equal(y, y_oracle)
                assert fit_ols(X, y) == fit_ols(X_oracle, y_oracle)
                X_held, y_held = features.design_rows(matrix, held_rows)
                X_oracle, y_oracle = _oracle_design(oracle, [records[i] for i in held_rows])
                assert np.array_equal(X_held, X_oracle) and np.array_equal(y_held, y_oracle)

    @pytest.mark.parametrize("kind, spec", _oracle_cases(),
                             ids=lambda v: v.value if isinstance(v, LayerKind) else None)
    def test_row_equals_design_row(self, kind, spec):
        # the single-row path against the per-record design path, to the bit
        records = synth_records(kind, 40, seed=8, repeats=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            features, _, _ = fit_map(records[:30], spec.feature_set, spec.poly, spec.feature_scaler)
        X, _ = _oracle_design(features, records)
        for record, expected in zip(records, X):
            assert np.array_equal(features.row(record.config, record.macs), expected)

    def test_row_refuses_non_finite_input(self):
        # the single-row path builds the whole raw row, so a set that keeps no
        # MAC count refuses a non-finite one too
        records = records_for(LayerKind.LINEAR, 8)
        config = records_for(LayerKind.LINEAR, 1)[0].config
        for feature_set in (FeatureSetKind.MAC_ONLY, FeatureSetKind.PARAMETER):
            features, _, _ = fit_map(records, feature_set, None, "none")
            for macs in (math.inf, math.nan):
                with pytest.raises(ValidationError, match="polynomial expansion requires finite inputs"):
                    features.row(config, macs)

    def test_every_feature_set_is_a_column_selection(self):
        # each recipe's degree-1 monomials are its set's columns of the raw row
        for kind in (LayerKind.CONV2D, LayerKind.MAXPOOL2D, LayerKind.SOFTMAX):
            records = records_for(kind, 12, seed=5)
            matrix = KindMatrix.build(records)
            for feature_set in FeatureSetKind:
                recipe = _recipe(kind, feature_set, None)
                assert recipe.names == set_names(kind, feature_set)
                rows = np.array([set_row(r.config, r.macs, feature_set) for r in records])
                assert np.array_equal(matrix.raw[:, recipe.index[0]], rows)

    def test_design_rows_refuses_another_kind_and_no_rows(self):
        features, _, _ = fit_map(records_for(LayerKind.LINEAR, 8), FeatureSetKind.MAC_ONLY, None, "none")
        with pytest.raises(ValidationError, match="^feature map fitted on Linear, records are Conv2d$"):
            features.design_rows(KindMatrix.build(records_for(LayerKind.CONV2D, 3)), [0])
        with pytest.raises(ValidationError, match="^no records to build a design matrix from$"):
            features.design_rows(KindMatrix.build(records_for(LayerKind.LINEAR, 3)), [])
