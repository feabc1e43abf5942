import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from joulecast.arch import LayerKind
from joulecast.dataset import MeasurementRecord, SplitSpec, config_key, sample_config
from joulecast.errors import (
    ColumnMismatchError,
    NonFiniteError,
    NotConvergedWarning,
    SingularityWarning,
    TooFewRecordsError,
)
from joulecast.features import FeatureSetKind
from joulecast.macs import standalone_macs
from joulecast.regress import (
    EvalMetrics,
    LassoProblem,
    LinearModel,
    ModelSpec,
    cross_validate,
    evaluate,
    fit_lasso,
    fit_ols,
    grid_search_lambda,
    group_kfold_indices,
    lasso_objective,
    soft_threshold,
    solve_lasso,
)


def normal_equations_oracle(X, y):
    """Independent OLS route: centered normal equations solved directly."""
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    beta = np.linalg.solve(Xc.T @ Xc, Xc.T @ yc)
    return beta, y.mean() - X.mean(axis=0) @ beta


class TestOls:
    def test_collinear_points_exact(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([3.0, 5.0, 7.0])
        model = fit_ols(X, y)
        assert model.coefficients == (2.0,)
        assert model.intercept == 1.0

    def test_constant_target(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 3))
        model = fit_ols(X, np.full(20, 4.2))
        np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-12)
        assert model.intercept == pytest.approx(4.2)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            X = rng.standard_normal((50, 5))
            y = rng.standard_normal(50)
            model = fit_ols(X, y)
            beta, intercept = normal_equations_oracle(X, y)
            np.testing.assert_allclose(model.coefficients, beta, rtol=1e-8)
            assert model.intercept == pytest.approx(intercept, rel=1e-8, abs=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        model = fit_ols(X, y)
        residual = y - model.predict(X)
        Xc = X - X.mean(axis=0)
        assert np.abs(Xc.T @ residual).max() < 1e-8

    def test_rank_deficiency_warns_minimum_norm(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((30, 2))
        X = np.column_stack([base, base[:, 0]])  # duplicated column
        y = base @ np.array([1.0, 2.0]) + 0.5
        with pytest.warns(SingularityWarning):
            model = fit_ols(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-10)
        # minimum-norm splits the duplicated coefficient evenly
        assert model.coefficients[0] == pytest.approx(model.coefficients[2], rel=1e-8)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            fit_ols(np.array([[np.nan], [1.0]]), np.array([0.0, 1.0]))


class TestLasso:
    def test_zero_penalty_matches_ols(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.1 * rng.standard_normal(80)
        ols = fit_ols(X, y)
        lasso = fit_lasso(X, y, 0.0)
        np.testing.assert_allclose(lasso.coefficients, ols.coefficients, atol=1e-6)
        assert lasso.intercept == pytest.approx(ols.intercept, abs=1e-6)

    def test_kill_threshold_zeroes_everything(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        # threshold computed on the centered problem with the solver's own
        # per-column dot products (a gemv can differ by an ulp)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        lam_max = max(abs(float(Xc[:, j] @ yc)) for j in range(3)) / len(y)
        model = fit_lasso(X, y, lam_max)
        assert model.coefficients == (0.0, 0.0, 0.0)
        assert model.intercept == pytest.approx(y.mean())

    def test_univariate_closed_form(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(40)
        y = 2.5 * x + 0.3 * rng.standard_normal(40)
        xc = x - x.mean()
        yc = y - y.mean()
        lam = 0.7
        expected = soft_threshold(float(xc @ yc) / len(y), lam) / (float(xc @ xc) / len(y))
        model = fit_lasso(x[:, None], y, lam)
        assert model.coefficients[0] == pytest.approx(expected, rel=1e-10)

    def test_objective_non_increasing_over_sweeps(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 6))
        y = X @ rng.standard_normal(6) + 0.2 * rng.standard_normal(40)
        lam = 0.05
        objectives = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            for sweeps in range(1, 12):
                model = fit_lasso(X, y, lam, tol=0.0, max_iter=sweeps)
                objectives.append(lasso_objective(X, y, model))
        assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_not_converged_warns(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        with pytest.warns(NotConvergedWarning):
            fit_lasso(X, y, 0.0, tol=0.0, max_iter=2)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_univariate_magnitude_non_increasing_in_lambda(self, lam_a, lam_b):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(30)[:, None]
        y = 1.5 * x[:, 0] + 0.1 * rng.standard_normal(30)
        small, large = sorted([lam_a, lam_b])
        coef_small = abs(fit_lasso(x, y, small).coefficients[0])
        coef_large = abs(fit_lasso(x, y, large).coefficients[0])
        assert coef_large <= coef_small + 1e-12


def lasso_reference(X, y, lam, tol, max_iter):
    """One problem at a time: cyclic coordinate descent with a per-column dot
    product per step. Returns (coefficients, intercept, sweeps, converged)."""
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    col_norm = (Xc**2).sum(axis=0) / n
    beta = np.zeros(p)
    residual = yc.copy()
    for sweep in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(p):
            if col_norm[j] == 0.0:
                continue
            old = beta[j]
            rho = float(Xc[:, j] @ residual) / n + col_norm[j] * old
            new = soft_threshold(rho, lam) / col_norm[j]
            if new != old:
                residual += Xc[:, j] * (old - new)
                beta[j] = new
            max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            return beta, y_mean - x_mean @ beta, sweep, True
    return beta, y_mean - x_mean @ beta, max_iter, False


class TestLockstepLasso:
    def test_batch_matches_one_problem_reference(self):
        rng = np.random.default_rng(21)
        p = 6
        problems = []
        for n, lam_scale, tol, max_iter in [
            (40, 0.0, 1e-8, 10_000),    # lambda = 0
            (55, 1.0, 1e-8, 10_000),    # lambda = lambda_max: all zeros
            (33, 0.3, 1e-10, 10_000),
            (61, 0.05, 1e-6, 10_000),
            (47, 0.1, 0.0, 7),          # tol 0 never converges
            (38, 0.02, 1e-12, 3),       # capped early
        ]:
            X = rng.standard_normal((n, p))
            X[:, 1] += 0.9 * X[:, 0]  # correlated columns take more sweeps
            y = X @ rng.standard_normal(p) + 0.3 * rng.standard_normal(n)
            Xc, yc = X - X.mean(axis=0), y - y.mean()
            lam_max = max(abs(float(Xc[:, j] @ yc)) for j in range(p)) / n
            problems.append(LassoProblem(X, y, lam_scale * lam_max, tol, max_iter))
        refs = [lasso_reference(q.X, q.y, q.lam, q.tol, q.max_iter) for q in problems]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits = solve_lasso(problems)
        unconverged = sum(not ref[3] for ref in refs)
        assert unconverged == 2
        assert sum(c.category is NotConvergedWarning for c in caught) == unconverged
        assert len({ref[2] for ref in refs if ref[3]}) >= 3  # different stopping sweeps
        assert fits[1].model.coefficients == (0.0,) * p
        for fit, (beta, intercept, sweeps, converged) in zip(fits, refs):
            np.testing.assert_allclose(fit.model.coefficients, beta, rtol=0, atol=1e-12)
            assert fit.model.intercept == pytest.approx(intercept, abs=1e-12)
            assert fit.sweeps == sweeps
            assert fit.converged is converged

    def test_mixed_column_counts_rejected(self):
        rng = np.random.default_rng(22)
        problems = [
            LassoProblem(rng.standard_normal((10, 2)), rng.standard_normal(10), 0.1),
            LassoProblem(rng.standard_normal((10, 3)), rng.standard_normal(10), 0.1),
        ]
        with pytest.raises(ColumnMismatchError):
            solve_lasso(problems)


class TestEvaluate:
    def test_perfect_predictions(self):
        X = np.array([[1.0], [2.0], [3.0]])
        model = LinearModel((2.0,), 1.0)
        metrics = evaluate(model, X, np.array([3.0, 5.0, 7.0]))
        assert metrics == EvalMetrics(r2=1.0, mse=0.0, max_error=0.0)

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        model = LinearModel((0.0,), float(y.mean()))
        metrics = evaluate(model, np.zeros((4, 1)), y)
        assert metrics.r2 == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        # predictions [1, 2] against truth [1, 4]
        model = LinearModel((1.0,), 0.0)
        metrics = evaluate(model, np.array([[1.0], [2.0]]), np.array([1.0, 4.0]))
        assert metrics.mse == pytest.approx(2.0)
        assert metrics.max_error == pytest.approx(2.0)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        model = fit_ols(X, y)
        perm = rng.permutation(25)
        assert evaluate(model, X, y) == evaluate(model, X[perm], y[perm])

    def test_column_mismatch(self):
        with pytest.raises(ColumnMismatchError):
            LinearModel((1.0, 2.0), 0.0).predict(np.ones((3, 3)))


def _linear_records(n, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        cfg = sample_config(LayerKind.LINEAR, rng)
        macs = standalone_macs(cfg)
        energy = 1e-9 * macs * (1.0 + noise * rng.standard_normal()) + 1e-6
        records.append(
            MeasurementRecord(module=LayerKind.LINEAR, config=cfg, macs=macs, cpu_energy_j=max(energy, 1e-12))
        )
    return records


class TestCrossValidate:
    def test_each_fold_holds_one_config(self):
        records = _linear_records(10)
        keys = [config_key(r.config) for r in records]
        folds = group_kfold_indices(keys, 10, seed=0)
        assert sorted(i for fold in folds for i in fold) == list(range(10))
        assert all(len(fold) == 1 for fold in folds)

    def test_noiseless_linear_r2_is_one(self):
        records = _linear_records(40)
        report = cross_validate(records, ModelSpec(FeatureSetKind.MAC_ONLY), k=10, seed=1)
        assert report.k == 10 and len(report.r2_scores) == 10
        assert report.r2_mean == pytest.approx(1.0, abs=1e-9)

    def test_too_few_groups(self):
        with pytest.raises(TooFewRecordsError):
            cross_validate(_linear_records(5), ModelSpec(FeatureSetKind.MAC_ONLY), k=10)

    def test_folds_partition_grouped_records(self):
        records = []
        rng = np.random.default_rng(11)
        for i in range(12):
            cfg = sample_config(LayerKind.LINEAR, rng)
            for r in (1, 2):
                records.append(
                    MeasurementRecord(module=LayerKind.LINEAR, config=cfg,
                                      macs=standalone_macs(cfg), cpu_energy_j=0.1 * r, repeat=r)
                )
        keys = [config_key(r.config) for r in records]
        folds = group_kfold_indices(keys, 4, seed=2)
        assert sorted(i for fold in folds for i in fold) == list(range(len(records)))
        for fold in folds:
            fold_keys = {keys[i] for i in fold}
            outside = {keys[i] for i in range(len(records)) if i not in set(fold)}
            assert not (fold_keys & outside)


class TestGridSearch:
    def test_singleton_grid(self):
        records = _linear_records(30)
        spec = ModelSpec(FeatureSetKind.MAC_ONLY, model="lasso")
        assert grid_search_lambda(records, spec, [0.0]).lam == 0.0

    def test_noiseless_data_prefers_no_penalty(self):
        records = _linear_records(40)
        spec = ModelSpec(FeatureSetKind.MAC_ONLY, model="lasso")
        assert grid_search_lambda(records, spec, [0.0, 1e6], SplitSpec(seed=1)).lam == 0.0

    def test_sparse_truth_support_recovery(self):
        rng = np.random.default_rng(12)
        n, p = 200, 10
        X = rng.standard_normal((n, p))
        truth = np.zeros(p)
        truth[[1, 6]] = (2.0, -3.0)
        y = X @ truth + 0.05 * rng.standard_normal(n)
        model = fit_lasso(X, y, 0.1)
        support = {j for j, b in enumerate(model.coefficients) if abs(b) > 1e-6}
        assert support == {1, 6}
