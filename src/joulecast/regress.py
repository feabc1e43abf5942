"""Linear regression stack: OLS, batched Lasso coordinate descent, metrics, k-fold CV.

OLS is solved through an orthogonal decomposition (SVD via lstsq), which
returns the minimum-norm solution on rank-deficient designs. The Lasso
minimizes (1/2n)*SS_res + lambda*||beta||_1 with an unpenalized intercept
handled by centering, so with centered data every coefficient is zeroed once
lambda >= max_j |X_j^T y| / n.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import MeasurementRecord, SplitSpec, config_key, split
from .errors import (
    ColumnMismatchError,
    NonFiniteError,
    NotConvergedWarning,
    SingularityWarning,
    TooFewRecordsError,
    ValidationError,
)
from .features import (
    FeatureSetKind,
    PolynomialSpec,
    build_design,
    transform_records,
)


@dataclass(frozen=True)
class LinearModel:
    coefficients: tuple[float, ...]
    intercept: float
    kind: str = "ols"  # "ols" | "lasso"
    lam: float = 0.0

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != len(self.coefficients):
            raise ColumnMismatchError(
                f"model has {len(self.coefficients)} coefficients, matrix has {X.shape[1]} columns"
            )
        return X @ np.asarray(self.coefficients) + self.intercept


@dataclass(frozen=True)
class EvalMetrics:
    r2: float
    mse: float
    max_error: float


@dataclass(frozen=True)
class CvReport:
    k: int
    r2_scores: tuple[float, ...]
    mse_scores: tuple[float, ...]
    #: a Lasso spec's fold fits, for their sweep counts; bundles do not store them
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


def _check_finite(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteError("regression inputs contain NaN/Inf")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"incompatible shapes X{X.shape}, y{y.shape}")
    return X, y


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least squares with a centered-out intercept.

    One iterative-refinement step tightens the solution to machine precision,
    so exactly representable problems solve exactly.
    """
    X, y = _check_finite(X, y)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    beta, _, rank, _ = np.linalg.lstsq(Xc, yc, rcond=None)
    correction, *_ = np.linalg.lstsq(Xc, yc - Xc @ beta, rcond=None)
    beta = beta + correction
    if rank < X.shape[1]:
        warnings.warn(
            f"design matrix rank {rank} < {X.shape[1]} columns; minimum-norm solution",
            SingularityWarning,
            stacklevel=2,
        )
    intercept = float(y_mean - x_mean @ beta)
    return LinearModel(tuple(float(b) for b in beta), intercept, kind="ols")


def soft_threshold(z: float, threshold: float) -> float:
    if z > threshold:
        return z - threshold
    if z < -threshold:
        return z + threshold
    return 0.0


@dataclass(frozen=True)
class LassoProblem:
    """One Lasso fit for ``solve_lasso``: data, penalty and stopping rule."""

    X: np.ndarray
    y: np.ndarray
    lam: float
    tol: float = 1e-8
    max_iter: int = 10_000


@dataclass(frozen=True)
class LassoFit:
    model: LinearModel
    sweeps: int
    converged: bool


def solve_lasso(problems: Sequence[LassoProblem]) -> list[LassoFit]:
    """Cyclic coordinate descent with soft-thresholding, run on a batch of
    independent problems in lockstep.

    Every problem is centered on its own data and keeps its own n, lambda,
    tol and sweep cap; all must have the same number of columns. A problem
    is frozen after the first sweep whose largest coefficient change is below
    its tol, so it stops at the sweep it would stop at if solved alone, and
    each problem that reaches its cap warns. Shorter problems are zero-padded
    to the longest; their padded residual rows stay at zero, but the padding
    can change how their dot products round in the last bit.

    A problem with lambda >= lambda_max = max_j |Xc_j . yc| / n (per-column
    dot products, as a lone sweep computes them) is answered with all zeros
    at set-up: the batched dot products round differently, and could
    otherwise leave a coefficient a rounding error above the threshold.
    """
    data = [_check_finite(problem.X, problem.y) for problem in problems]
    if not data:
        return []
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
            raise ColumnMismatchError(f"lasso batch mixes {width} and {X.shape[1]} columns")
        if problem.lam < 0:
            raise ValidationError(f"lambda={problem.lam} must be non-negative")
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
        if problem.max_iter < 1:
            continue
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
        if not converged[b]:
            warnings.warn(
                f"lasso (n={n_rows[b]}, lambda={problem.lam:g}) stopped after "
                f"{problem.max_iter} sweeps without reaching tol={problem.tol}",
                NotConvergedWarning,
                stacklevel=2,
            )
        x_mean, y_mean = means[b]
        intercept = float(y_mean - x_mean @ beta[:, b])
        model = LinearModel(
            tuple(float(v) for v in beta[:, b]), intercept, kind="lasso", lam=float(problem.lam)
        )
        fits.append(LassoFit(model, int(sweeps[b]), bool(converged[b])))
    return fits


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> LinearModel:
    """One Lasso fit: ``solve_lasso`` on a batch of one."""
    return solve_lasso([LassoProblem(X, y, lam, tol, max_iter)])[0].model


def lasso_objective(X: np.ndarray, y: np.ndarray, model: LinearModel) -> float:
    residual = y - model.predict(X)
    return float((residual @ residual) / (2 * len(y)) + model.lam * np.abs(model.coefficients).sum())


def score(measured: np.ndarray, predicted: np.ndarray) -> EvalMetrics:
    """R^2 (about the mean of ``measured``), MSE, and max absolute error.

    Sums are exactly rounded (fsum), so the metrics are invariant under row
    permutation.
    """
    measured = np.asarray(measured, dtype=float)
    residual = measured - np.asarray(predicted, dtype=float)
    ss_res = math.fsum(float(r) * float(r) for r in residual)
    y_mean = math.fsum(map(float, measured)) / len(measured)
    ss_tot = math.fsum((float(v) - y_mean) ** 2 for v in measured)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return EvalMetrics(r2=r2, mse=ss_res / len(measured), max_error=float(np.abs(residual).max()))


def evaluate(model: LinearModel, X: np.ndarray, y: np.ndarray) -> EvalMetrics:
    """``score`` of the model's predictions on an evaluation set."""
    X, y = _check_finite(X, y)
    return score(y, model.predict(X))


@dataclass(frozen=True)
class ModelSpec:
    """One regression pipeline: feature set, expansion, scaling, and model family."""

    feature_set: FeatureSetKind
    poly: PolynomialSpec | None = None
    feature_scaler: str = "none"
    model: str = "ols"  # "ols" | "lasso"
    lam: float = 0.0
    tol: float = 1e-8
    max_iter: int = 10_000

    def fit(self, X: np.ndarray, y: np.ndarray) -> LinearModel:
        if self.model == "ols":
            return fit_ols(X, y)
        if self.model == "lasso":
            return fit_lasso(X, y, self.lam, tol=self.tol, max_iter=self.max_iter)
        raise ValidationError(f"unknown model family {self.model!r}")


def group_kfold_indices(keys: Sequence[tuple], k: int, seed: int) -> list[list[int]]:
    """Deterministic k folds of record indices, keeping equal keys together."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    unique = sorted(groups, key=lambda key: tuple(-1 if v is None else v for v in key[1:]) + (key[0],))
    if len(unique) < k:
        raise TooFewRecordsError(f"{len(unique)} configuration groups cannot fill {k} folds")
    gen = np.random.default_rng(seed)
    order = [unique[i] for i in gen.permutation(len(unique))]
    folds: list[list[int]] = [[] for _ in range(k)]
    for pos, key in enumerate(order):
        folds[pos % k].extend(groups[key])
    return folds


def cross_validate(
    records: list[MeasurementRecord],
    spec: ModelSpec,
    k: int = 10,
    seed: int = 0,
) -> CvReport:
    """Configuration-grouped k-fold CV; scalers are refit on each fold's training part.

    A Lasso spec solves all folds as one ``solve_lasso`` batch. MSE is
    reported as a positive quantity (some frameworks negate it for
    score-maximization APIs).
    """
    if k < 2:
        raise ValidationError(f"k={k} must be at least 2")
    folds = group_kfold_indices([config_key(r.config) for r in records], k, seed)
    designs = []
    for held_out in folds:
        held_set = set(held_out)
        train = [r for i, r in enumerate(records) if i not in held_set]
        test = [records[i] for i in held_out]
        design, feat_params, target_params = build_design(
            train, spec.feature_set, spec.poly, spec.feature_scaler
        )
        test_design = transform_records(test, spec.feature_set, spec.poly, feat_params, target_params)
        designs.append((design, test_design))
    fits: tuple[LassoFit, ...] = ()
    if spec.model == "lasso":
        fits = tuple(solve_lasso(
            [LassoProblem(d.X, d.y, spec.lam, spec.tol, spec.max_iter) for d, _ in designs]
        ))
        models = [fit.model for fit in fits]
    else:
        models = [spec.fit(d.X, d.y) for d, _ in designs]
    metrics = [evaluate(model, t.X, t.y) for model, (_, t) in zip(models, designs)]
    return CvReport(
        k=k,
        r2_scores=tuple(m.r2 for m in metrics),
        mse_scores=tuple(m.mse for m in metrics),
        lasso_fits=fits,
    )


@dataclass(frozen=True)
class LambdaSearch:
    """A Lasso penalty grid fitted on the train split, ascending in lambda."""

    fits: tuple[LassoFit, ...]
    best: int  # index of the fit with the best validation R^2

    @property
    def chosen(self) -> LassoFit:
        return self.fits[self.best]

    @property
    def lam(self) -> float:
        return self.chosen.model.lam


def grid_search_lambda(
    records: list[MeasurementRecord],
    spec: ModelSpec,
    grid: Sequence[float],
    split_spec: SplitSpec | None = None,
) -> LambdaSearch:
    """Solve the whole grid as one ``solve_lasso`` batch on the train split and
    pick the penalty maximizing validation R^2; ties go to the larger (sparser)
    lambda. A one-value grid is fitted but not scored."""
    if not grid:
        raise ValidationError("lambda grid is empty")
    split_spec = split_spec or SplitSpec()
    train, val, _ = split(records, split_spec)
    design, feat_params, target_params = build_design(
        train, spec.feature_set, spec.poly, spec.feature_scaler
    )
    lams = sorted(float(g) for g in grid)
    fits = tuple(solve_lasso(
        [LassoProblem(design.X, design.y, lam, spec.tol, spec.max_iter) for lam in lams]
    ))
    best = 0
    if len(fits) > 1:
        val_design = transform_records(val, spec.feature_set, spec.poly, feat_params, target_params)
        best_r2 = None
        for i, fit in enumerate(fits):
            r2 = evaluate(fit.model, val_design.X, val_design.y).r2
            if best_r2 is None or r2 >= best_r2:
                best, best_r2 = i, r2
    return LambdaSearch(fits, best)

