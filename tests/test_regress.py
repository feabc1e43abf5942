import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import design_of, fit_map, split_records
from joulecast import regress
from joulecast.arch import LayerKind
from joulecast.dataset import MeasurementRecord, config_key, group_kfold_indices, sample_config
from joulecast.errors import (
    NotConvergedWarning,
    SingularityWarning,
    ValidationError,
)
from joulecast.features import FeatureSetKind, KindMatrix
from joulecast.macs import standalone_macs
from joulecast.predict import (
    DEFAULT_LAMBDA_GRID,
    EXPERIMENT_TABLE,
    ModelSpec,
    cross_validate_rows,
    grid_search_lambda,
)
from joulecast.regress import (
    KKT_BOUND,
    EvalMetrics,
    LinearModel,
    evaluate,
    fit_ols,
    lasso_kkt,
    lasso_path,
)


def soft_threshold(z: float, threshold: float) -> float:
    """The soft-thresholding operator: the one-coordinate Lasso solution."""
    if z > threshold:
        return z - threshold
    if z < -threshold:
        return z + threshold
    return 0.0


def lasso_objective(X, y, model) -> float:
    """The Lasso objective ||y - X beta - b||^2 / 2n + lambda * ||beta||_1."""
    residual = y - model.predict(X)
    return float((residual @ residual) / (2 * len(y)) + model.lam * np.abs(model.coefficients).sum())


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
        with pytest.raises(ValidationError, match="^regression inputs contain NaN/Inf$"):
            fit_ols(np.array([[np.nan], [1.0]]), np.array([0.0, 1.0]))


class TestLasso:
    def test_zero_penalty_matches_ols(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.1 * rng.standard_normal(80)
        ols = fit_ols(X, y)
        lasso = lasso_path(X, y, [0.0])[0].model
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
        model = lasso_path(X, y, [lam_max])[0].model
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
        model = lasso_path(x[:, None], y, [lam])[0].model
        assert model.coefficients[0] == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True)  # the same examples, and warnings, every run
    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_univariate_magnitude_non_increasing_in_lambda(self, lam_a, lam_b):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(30)[:, None]
        y = 1.5 * x[:, 0] + 0.1 * rng.standard_normal(30)
        small, large = sorted([lam_a, lam_b])
        coef_small = abs(lasso_path(x, y, [small])[0].model.coefficients[0])
        coef_large = abs(lasso_path(x, y, [large])[0].model.coefficients[0])
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


@dataclass(frozen=True)
class CdProblem:
    """One Lasso fit for ``lockstep_cd``: data, penalty and stopping rule."""

    X: np.ndarray
    y: np.ndarray
    lam: float
    tol: float = 1e-8
    max_iter: int = 10_000


@dataclass(frozen=True)
class CdFit:
    model: LinearModel
    sweeps: int
    converged: bool


def lockstep_cd(problems):
    """The coordinate-descent oracle for ``lasso_path``: cyclic coordinate
    descent with soft-thresholding, run on a batch of independent problems
    in lockstep.

    Every problem is centered on its own data and keeps its own n, lambda,
    tol and sweep cap; all must have the same number of columns. A problem
    is frozen after the first sweep whose largest coefficient change is below
    its tol, so it stops at the sweep it would stop at if solved alone.
    Shorter problems are zero-padded to the longest; their padded residual
    rows stay at zero, but the padding can change how their dot products
    round in the last bit.

    A problem with lambda >= lambda_max = max_j |Xc_j . yc| / n (per-column
    dot products, as a lone sweep computes them) is answered with all zeros
    at set-up: the batched dot products round differently, and could
    otherwise leave a coefficient a rounding error above the threshold.
    """
    data = [(np.asarray(q.X, dtype=float), np.asarray(q.y, dtype=float)) for q in problems]
    count = len(data)
    width = data[0][0].shape[1]
    n_rows = np.array([len(y) for _, y in data])
    columns = np.zeros((width, count, n_rows.max()))  # columns[j, b]: problem b's centred column j
    col_norm = np.ones((width, count))
    residual = np.zeros((count, n_rows.max()))
    beta = np.zeros((width, count))
    means = []
    sweeps = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    running = []
    for b, (problem, (X, y)) in enumerate(zip(problems, data)):
        if X.shape[1] != width:
            raise ValidationError(f"lasso batch mixes {width} and {X.shape[1]} columns")
        n = len(y)
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        Xc = X - x_mean
        yc = y - y_mean
        means.append((x_mean, y_mean))
        norm = (Xc**2).sum(axis=0) / n
        # a sweep skips a zero-norm column; stored as zeros with unit norm,
        # its coefficient stays at zero by arithmetic
        live = np.flatnonzero(norm != 0.0)
        columns[live, b, :n] = Xc.T[live]
        col_norm[live, b] = norm[live]
        residual[b, :n] = yc
        lam_max = max((abs(float(Xc[:, j] @ yc)) for j in live), default=0.0) / n
        if problem.lam >= lam_max:
            # every |rho_j| <= lambda, so no sweep moves a coefficient and
            # tol alone decides whether the first sweep converges
            converged[b] = problem.tol > 0
            sweeps[b] = 1 if converged[b] else problem.max_iter
        else:
            running.append(b)

    lam = np.array([float(problem.lam) for problem in problems])
    tol = np.array([float(problem.tol) for problem in problems])
    cap = np.array([problem.max_iter for problem in problems])
    active = np.array(running, dtype=int)
    sweep = 0
    while active.size:
        # compact copies of the problems still running
        cols, norm, coef, res = columns[:, active], col_norm[:, active], beta[:, active], residual[active]
        n, hi = n_rows[active], lam[active]
        lo = -hi
        clipped = np.empty(active.size)
        done = np.zeros(active.size, dtype=bool)
        while not done.any():
            sweep += 1
            start = coef.copy()
            for x, norm_j, old in zip(cols, norm, coef):
                rho = np.vecdot(x, res)
                rho /= n
                rho += norm_j * old
                np.minimum(np.maximum(rho, lo, out=clipped), hi, out=clipped)
                new = rho - clipped  # soft-threshold
                new /= norm_j
                res += x * (old - new)[:, None]
                old[...] = new
            # each coefficient moves once per sweep, so this is its largest step
            max_delta = np.abs(coef - start).max(axis=0)
            done = (max_delta < tol[active]) | (sweep >= cap[active])
        beta[:, active] = coef
        residual[active] = res
        finished = active[done]
        sweeps[finished] = sweep
        converged[finished] = max_delta[done] < tol[finished]
        active = active[~done]

    fits = []
    for b, problem in enumerate(problems):
        x_mean, y_mean = means[b]
        model = LinearModel(
            tuple(float(v) for v in beta[:, b]),
            float(y_mean - x_mean @ beta[:, b]),
            kind="lasso",
            lam=float(problem.lam),
        )
        fits.append(CdFit(model, int(sweeps[b]), bool(converged[b])))
    return fits


class TestLockstepLasso:
    """``lockstep_cd`` against the one-problem ``lasso_reference``."""

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
            problems.append(CdProblem(X, y, lam_scale * lam_max, tol, max_iter))
        refs = [lasso_reference(q.X, q.y, q.lam, q.tol, q.max_iter) for q in problems]

        fits = lockstep_cd(problems)
        assert sum(not ref[3] for ref in refs) == 2
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
            CdProblem(rng.standard_normal((10, 2)), rng.standard_normal(10), 0.1),
            CdProblem(rng.standard_normal((10, 3)), rng.standard_normal(10), 0.1),
        ]
        with pytest.raises(ValidationError, match="^lasso batch mixes 2 and 3 columns$"):
            lockstep_cd(problems)


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
        with pytest.raises(ValidationError, match="^model has 2 coefficients, matrix has 3 columns$"):
            LinearModel((1.0, 2.0), 0.0).predict(np.ones((3, 3)))


def _linear_records(n, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        cfg = sample_config(LayerKind.LINEAR, rng)
        macs = standalone_macs(cfg)
        energy = 1e-9 * macs * (1.0 + noise * rng.standard_normal()) + 1e-6
        records.append(
            MeasurementRecord(config=cfg, macs=macs, cpu_energy_j=max(energy, 1e-12))
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
        rows = np.arange(len(records))
        report = cross_validate_rows(KindMatrix.build(records), rows, ModelSpec(FeatureSetKind.MAC_ONLY), k=10, seed=1)
        assert report.k == 10 and len(report.r2_scores) == 10
        assert report.r2_mean == pytest.approx(1.0, abs=1e-9)

    def test_too_few_groups(self):
        with pytest.raises(ValidationError, match="^5 configuration groups cannot fill 10 folds$"):
            cross_validate_rows(
                KindMatrix.build(_linear_records(5)), np.arange(5), ModelSpec(FeatureSetKind.MAC_ONLY), k=10
            )

    def test_folds_partition_grouped_records(self):
        records = []
        rng = np.random.default_rng(11)
        for i in range(12):
            cfg = sample_config(LayerKind.LINEAR, rng)
            for r in (1, 2):
                records.append(
                    MeasurementRecord(config=cfg, macs=standalone_macs(cfg), cpu_energy_j=0.1 * r, repeat=r)
                )
        keys = [config_key(r.config) for r in records]
        folds = group_kfold_indices(keys, 4, seed=2)
        assert sorted(i for fold in folds for i in fold) == list(range(len(records)))
        for fold in folds:
            fold_keys = {keys[i] for i in fold}
            outside = {keys[i] for i in range(len(records)) if i not in set(fold)}
            assert not (fold_keys & outside)


def test_unknown_model_family_rejected():
    with pytest.raises(ValidationError):
        ModelSpec(FeatureSetKind.MAC_ONLY, model="ridge")


def _train_val_designs(records, spec, split_seed):
    train, val, _ = split_records(records, split_seed)
    features, X, y = fit_map(train, spec.feature_set, spec.poly, spec.feature_scaler)
    return (X, y), design_of(features, val)


class TestGridSearch:
    def test_singleton_grid(self):
        records = _linear_records(30)
        spec = ModelSpec(FeatureSetKind.MAC_ONLY, model="lasso")
        train, val = _train_val_designs(records, spec, 0)
        assert grid_search_lambda(train, val, [0.0])[1].model.lam == 0.0

    def test_noiseless_data_prefers_no_penalty(self):
        records = _linear_records(40)
        spec = ModelSpec(FeatureSetKind.MAC_ONLY, model="lasso")
        train, val = _train_val_designs(records, spec, 1)
        assert grid_search_lambda(train, val, [0.0, 1e6])[1].model.lam == 0.0

    def test_sparse_truth_support_recovery(self):
        rng = np.random.default_rng(12)
        n, p = 200, 10
        X = rng.standard_normal((n, p))
        truth = np.zeros(p)
        truth[[1, 6]] = (2.0, -3.0)
        y = X @ truth + 0.05 * rng.standard_normal(n)
        model = lasso_path(X, y, [0.1])[0].model
        support = {j for j, b in enumerate(model.coefficients) if abs(b) > 1e-6}
        assert support == {1, 6}


def _lambda_max(X, y):
    Xc, yc = X - X.mean(axis=0), y - y.mean()
    return max(abs(float(Xc[:, j] @ yc)) for j in range(X.shape[1])) / len(y)


def _collinear_wide_problem():
    """p > n, with an exact duplicate column and a near-collinear pair."""
    rng = np.random.default_rng(31)
    X = rng.standard_normal((25, 40))
    X[:, 5] = X[:, 3]
    X[:, 7] = X[:, 8] + 1e-6 * rng.standard_normal(25)
    y = X[:, :6] @ np.array([1.0, -2.0, 0.5, 1.5, 0.0, -1.0]) + 0.1 * rng.standard_normal(25)
    return X, y


class TestLassoPath:
    def test_matches_converged_cd_when_n_exceeds_p(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((80, 6))
        y = X @ np.array([1.0, -2.0, 0.0, 0.0, 0.5, 3.0]) + 0.3 * rng.standard_normal(80)
        lam_max = _lambda_max(X, y)
        # a log grid plus random penalties, which fall between breakpoints
        lams = [*(lam_max * np.logspace(-5, -0.01, 12)), *(lam_max * rng.uniform(0, 1, 8))]
        fits = lasso_path(X, y, lams)
        refs = lockstep_cd([CdProblem(X, y, lam, tol=1e-14, max_iter=100_000) for lam in lams])
        assert all(ref.converged for ref in refs)
        for fit, ref in zip(fits, refs):
            np.testing.assert_allclose(fit.model.coefficients, ref.model.coefficients, rtol=0, atol=1e-9)
            assert fit.model.intercept == pytest.approx(ref.model.intercept, abs=1e-9)
            assert fit.converged and fit.kkt <= KKT_BOUND

    def test_collinear_wide_design_completes_without_cycling(self):
        """CD converges slowly here (it stops at its cap below lambda = 0.1),
        so the path's KKT residual certifies its optimum and CD's objective,
        converged or not, bounds it from above."""
        X, y = _collinear_wide_problem()
        lams = [1e-4, 1e-3, 1e-2, 1e-1, 0.5]
        fits = lasso_path(X, y, lams)
        refs = lockstep_cd([CdProblem(X, y, lam, tol=1e-12, max_iter=3000) for lam in lams])
        assert refs[-1].converged
        for fit, ref in zip(fits, refs):
            assert fit.converged and fit.kkt <= 1e-9
            assert lasso_objective(X, y, fit.model) <= lasso_objective(X, y, ref.model) + 1e-12
        # the duplicated pair cannot both be active
        for fit in fits:
            assert fit.model.coefficients[3] == 0.0 or fit.model.coefficients[5] == 0.0

    def test_lambda_at_or_above_lambda_max_gives_exact_zeros(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((50, 4))
        y = X @ np.array([0.5, 0.0, -1.0, 2.0]) + rng.standard_normal(50)
        lam_max = _lambda_max(X, y)
        for fit in lasso_path(X, y, [lam_max, 2 * lam_max, 1e6]):
            assert fit.model.coefficients == (0.0,) * 4
            assert fit.model.intercept == pytest.approx(y.mean())
            assert fit.kkt == 0.0 and fit.converged

    def test_zero_penalty_is_the_minimum_norm_ols(self):
        X, y = _collinear_wide_problem()
        with pytest.warns(SingularityWarning):
            ols = fit_ols(X, y)
        with pytest.warns(SingularityWarning):
            (fit,) = lasso_path(X, y, [0.0])
        assert fit.model.coefficients == ols.coefficients
        assert fit.model.intercept == ols.intercept
        assert fit.model.kind == "lasso" and fit.model.lam == 0.0

    def test_fits_follow_the_requested_order(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((40, 5))
        y = X @ rng.standard_normal(5) + 0.1 * rng.standard_normal(40)
        lams = [0.1, 0.0, 0.01, 0.1, 1e-3]
        fits = lasso_path(X, y, lams)
        assert [fit.model.lam for fit in fits] == lams
        assert fits[0] == fits[3]
        # one path read at one penalty gives the same fit as read at many
        for lam, fit in zip(lams, fits):
            assert lasso_path(X, y, [lam])[0] == fit

    def test_unreached_penalty_gets_the_last_reached_point(self, monkeypatch):
        """With no path steps allowed, the last penalty reached is lambda_max:
        every penalty below it gets all zeros, reported at the requested
        penalty and flagged by that penalty's KKT residual."""
        rng = np.random.default_rng(34)
        X = rng.standard_normal((30, 5))
        y = X @ rng.standard_normal(5) + 0.2 * rng.standard_normal(30)
        monkeypatch.setattr(regress, "_PATH_STEPS_PER_RANK", 0)
        lams = [0.01, 0.1]
        assert max(lams) < _lambda_max(X, y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits = lasso_path(X, y, lams)
        assert [fit.model.lam for fit in fits] == lams
        for fit in fits:
            assert fit.model.coefficients == (0.0,) * 5
            assert fit.model.intercept == pytest.approx(y.mean())
            assert fit.kkt == lasso_kkt(X, y, fit.model) > KKT_BOUND
            assert not fit.converged
        assert sum(c.category is NotConvergedWarning for c in caught) == len(lams)

    def test_last_reached_point_is_exact_at_its_breakpoint(self):
        """Stopped after one breakpoint, the path's point for a penalty it did
        not reach is the exact Lasso solution at that breakpoint's penalty."""
        rng = np.random.default_rng(36)
        X = rng.standard_normal((40, 6))
        y = X @ np.array([2.0, -1.0, 0.5, 0.0, 0.0, 1.0]) + 0.1 * rng.standard_normal(40)
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        (coef,) = regress._path_coefficients(Xc, yc, [1e-6], 1).values()
        assert np.count_nonzero(coef) == 1
        # the penalty at which the second column enters is the active one's |gradient|
        grad = Xc.T @ (yc - Xc @ coef) / len(y)
        lam = float(np.abs(grad[coef != 0.0])[0])
        assert 1e-6 < lam < _lambda_max(X, y)
        model = LinearModel(tuple(coef), float(y.mean() - X.mean(axis=0) @ coef), "lasso", lam)
        assert lasso_kkt(X, y, model) <= 1e-9

    def test_unconverged_fit_warns_once_and_is_flagged(self, monkeypatch):
        rng = np.random.default_rng(35)
        X = rng.standard_normal((30, 5))
        X[:, 1] += 0.9 * X[:, 0]
        y = X @ rng.standard_normal(5) + 0.2 * rng.standard_normal(30)
        monkeypatch.setattr(regress, "_PATH_STEPS_PER_RANK", 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits = lasso_path(X, y, [0.001, 0.01])
        assert all(fit.kkt > KKT_BOUND and not fit.converged for fit in fits)
        messages = [str(c.message) for c in caught if c.category is NotConvergedWarning]
        assert len(messages) == 2
        assert all("KKT residual" in message for message in messages)

    def test_grid_and_folds_no_worse_than_capped_cd(self, bundle_dataset):
        """The MaxPool2d degree-4 parameter design (56 columns): at every grid
        penalty, on the train split and on every CV fold, the path's
        objective is at most that of coordinate descent capped at 500 sweeps."""
        records = [r for r in bundle_dataset if r.module is LayerKind.MAXPOOL2D]
        spec = EXPERIMENT_TABLE[LayerKind.MAXPOOL2D][0]
        train, _, _ = split_records(records, 3)
        parts = [train]
        for held in group_kfold_indices([config_key(r.config) for r in train], 10, seed=3):
            held = set(held)
            parts.append([r for i, r in enumerate(train) if i not in held])
        designs = [fit_map(part, spec.feature_set, spec.poly, spec.feature_scaler)[1:] for part in parts]
        assert designs[0][0].shape[1] <= 100
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            warnings.simplefilter("ignore", SingularityWarning)
            paths = [lasso_path(X, y, DEFAULT_LAMBDA_GRID) for X, y in designs]
        capped = lockstep_cd([
            CdProblem(X, y, lam, tol=1e-8, max_iter=500) for X, y in designs for lam in DEFAULT_LAMBDA_GRID
        ])
        capped_fits = iter(capped)
        for (X, y), fits in zip(designs, paths):
            for fit in fits:
                ref = next(capped_fits)
                assert lasso_objective(X, y, fit.model) <= lasso_objective(X, y, ref.model)


def _repeated_rows(seed, n_distinct=30, p=4):
    """Distinct rows repeated 1-4 times each, with a different target on
    every repeat (as collect writes one row per measurement repeat)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_distinct, p))
    X[:, 1] += 0.8 * X[:, 0]
    counts = rng.integers(1, 5, n_distinct)
    counts[0] = 1  # at least one row stays single
    X = np.repeat(X, counts, axis=0)
    y = X @ rng.standard_normal(p) + 0.3 * rng.standard_normal(len(X))
    return X, y


def _uncollapsed_ols(X, y):
    """Least squares on every row, with numpy's default rank cutoff and one
    refinement step: the solve without the row collapse."""
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, yc = X - x_mean, y - y_mean
    beta, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
    correction, *_ = np.linalg.lstsq(Xc, yc - Xc @ beta, rcond=None)
    beta = beta + correction
    return tuple(float(b) for b in beta), float(y_mean - x_mean @ beta)


class TestRepeatedRows:
    """``fit_ols`` and ``lasso_path`` solve on the distinct rows of the design,
    weighted by their counts, and give the fits of the uncollapsed problem."""

    def test_ols_matches_normal_equations_oracle(self):
        for seed in range(5):
            X, y = _repeated_rows(seed)
            assert len(np.unique(X, axis=0)) < len(X)
            model = fit_ols(X, y)
            beta, intercept = normal_equations_oracle(X, y)
            np.testing.assert_allclose(model.coefficients, beta, rtol=1e-9)
            assert model.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-12)

    def test_lasso_path_matches_converged_cd(self):
        X, y = _repeated_rows(40)
        lam_max = _lambda_max(X, y)
        lams = list(lam_max * np.logspace(-4, -0.05, 8))
        fits = lasso_path(X, y, lams)
        refs = lockstep_cd([CdProblem(X, y, lam, tol=1e-14, max_iter=100_000) for lam in lams])
        assert all(ref.converged for ref in refs)
        for fit, ref in zip(fits, refs):
            assert fit.converged
            assert lasso_objective(X, y, fit.model) <= lasso_objective(X, y, ref.model) + 1e-14
            np.testing.assert_allclose(fit.model.coefficients, ref.model.coefficients, rtol=0, atol=1e-9)

    def test_fits_invariant_under_row_permutation(self):
        X, y = _repeated_rows(41)
        perm = np.random.default_rng(42).permutation(len(y))
        lams = [0.0, 1e-3, 1e-2, 1e-1]
        ols, shuffled = fit_ols(X, y), fit_ols(X[perm], y[perm])
        np.testing.assert_allclose(shuffled.coefficients, ols.coefficients, rtol=1e-10)
        assert shuffled.intercept == pytest.approx(ols.intercept, rel=1e-10)
        for fit, other in zip(lasso_path(X, y, lams), lasso_path(X[perm], y[perm], lams)):
            np.testing.assert_allclose(other.model.coefficients, fit.model.coefficients, rtol=1e-9, atol=1e-12)
            assert other.model.intercept == pytest.approx(fit.model.intercept, rel=1e-9)

    def test_singularity_rank_is_that_of_the_uncollapsed_design(self):
        """A third column off the span of the first two by a relative 1e-14:
        numpy's cutoff for the 10 distinct rows (eps*10) keeps it, the cutoff
        for all 2000 rows (eps*2000) drops it, and the warning reports the
        latter."""
        rng = np.random.default_rng(43)
        distinct = rng.standard_normal((10, 2))
        third = distinct[:, :1] + 1e-14 * rng.standard_normal((10, 1))
        X = np.repeat(np.hstack([distinct, third]), 200, axis=0)
        y = X @ np.array([1.0, 2.0, 0.5]) + rng.standard_normal(len(X))
        Xc = X - X.mean(axis=0)
        full_rank = np.linalg.lstsq(Xc, y - y.mean(), rcond=None)[2]
        distinct_c = np.hstack([distinct, third]) - X.mean(axis=0)
        assert (full_rank, np.linalg.lstsq(distinct_c, y[::200], rcond=None)[2]) == (2, 3)
        with pytest.warns(SingularityWarning, match=f"rank {full_rank} < 3 columns"):
            fit_ols(X, y)

    def test_lambda_max_zeroes_every_coefficient(self):
        X, y = _repeated_rows(44)
        lam_max = _lambda_max(X, y)
        for fit in lasso_path(X, y, [lam_max, 2 * lam_max]):
            assert fit.model.coefficients == (0.0,) * X.shape[1]
            assert fit.kkt == 0.0 and fit.converged

    @pytest.mark.parametrize("shape", [(50, 5), (25, 40)])
    def test_ols_without_repeats_is_bit_identical_to_the_uncollapsed_solve(self, shape):
        rng = np.random.default_rng(45)
        for _ in range(5):
            X = rng.standard_normal(shape)
            y = rng.standard_normal(shape[0])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SingularityWarning)
                model = fit_ols(X, y)
            assert (model.coefficients, model.intercept) == _uncollapsed_ols(X, y)


def _path_with_exits():
    """Correlated columns whose path drops active columns on the way down."""
    rng = np.random.default_rng(16)
    base = rng.standard_normal((40, 3))
    X = np.column_stack([base, base @ rng.standard_normal((3, 5)) + 0.3 * rng.standard_normal((40, 5))])
    y = X @ rng.standard_normal(8) + 0.2 * rng.standard_normal(40)
    return X, y, list(_lambda_max(X, y) * np.logspace(-6, -0.05, 10))


class TestPathExits:
    def _count_refactors(self, monkeypatch, failing=False):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(len(a))
            if failing:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        return calls

    def test_exits_refactor_and_the_fits_stay_exact(self, monkeypatch):
        X, y, lams = _path_with_exits()
        calls = self._count_refactors(monkeypatch)
        fits = lasso_path(X, y, lams)
        assert calls  # some column left the active set
        refs = lockstep_cd([CdProblem(X, y, lam, tol=1e-14, max_iter=200_000) for lam in lams])
        for fit, ref in zip(fits, refs):
            assert fit.converged and fit.kkt <= 1e-9
            assert lasso_objective(X, y, fit.model) <= lasso_objective(X, y, ref.model) + 1e-14

    def test_failed_refactor_ends_the_path_and_is_flagged(self, monkeypatch):
        X, y, lams = _path_with_exits()
        self._count_refactors(monkeypatch, failing=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits = lasso_path(X, y, lams)
        unreached = [fit for fit in fits if not fit.converged]
        assert unreached and all(fit.kkt > KKT_BOUND for fit in unreached)
        assert sum(c.category is NotConvergedWarning for c in caught) == len(unreached)
        # the last point reached is the exact solution at the first exit, so
        # every unreached penalty gets the same coefficients
        assert len({fit.model.coefficients for fit in unreached}) == 1


class TestKktScaleFloor:
    def test_penalty_below_rounding_is_scaled_by_eps_lambda_max(self):
        """Below eps*lambda_max, rounding alone sets the KKT distance, so the
        residual is read against that floor: a least-squares solution at a
        vanishing penalty reads a few units, not 1e307."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal(30)[:, None]
        y = 1.5 * x[:, 0] + 0.1 * rng.standard_normal(30)
        ols = fit_ols(x, y)
        readings = [
            lasso_kkt(x, y, LinearModel(ols.coefficients, ols.intercept, "lasso", lam))
            for lam in (5e-324, 1e-300)
        ]
        assert readings[0] == readings[1]
        assert 0.0 < readings[0] < 10.0

    def test_penalty_above_the_floor_reads_as_before(self):
        """Above the floor the residual is the KKT distance over lambda."""
        X, y = _repeated_rows(47)
        (fit,) = lasso_path(X, y, [1e-3])
        model = LinearModel(tuple(np.array(fit.model.coefficients) * 1.01), fit.model.intercept, "lasso", 1e-3)
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        beta = np.asarray(model.coefficients)
        grad = Xc.T @ (yc - Xc @ beta) / len(y)
        dist = np.where(beta != 0.0, np.abs(grad - 1e-3 * np.sign(beta)), np.maximum(np.abs(grad) - 1e-3, 0.0))
        assert lasso_kkt(X, y, model) == dist.max() / 1e-3
