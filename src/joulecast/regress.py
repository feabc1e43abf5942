"""Linear regression on plain arrays: OLS, an exact Lasso path, and the metrics.

OLS is solved through an orthogonal decomposition (SVD via lstsq), which
returns the minimum-norm solution on rank-deficient designs. The Lasso
minimizes (1/2n)*SS_res + lambda*||beta||_1 with an unpenalized intercept
handled by centering, so with centered data every coefficient is zeroed once
lambda >= max_j |X_j^T y| / n.

Both solvers first collapse identical design rows (the repeat measurements
of one configuration) into one count-weighted row each; the rank cutoff,
the path's step cap and every 1/n keep the full row count.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    NotConvergedWarning,
    SingularityWarning,
    ValidationError,
)


@dataclass(frozen=True)
class LinearModel:
    coefficients: tuple[float, ...]
    intercept: float
    kind: str = "ols"  # "ols" | "lasso"
    lam: float = 0.0

    @cached_property
    def beta(self) -> np.ndarray:
        """The coefficients as a read-only array, built on first use."""
        beta = np.array(self.coefficients, dtype=float)
        beta.flags.writeable = False
        return beta

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        beta = self.beta
        if X.shape[1] != len(beta):
            raise ValidationError(
                f"model has {len(beta)} coefficients, matrix has {X.shape[1]} columns"
            )
        return X @ beta + self.intercept


@dataclass(frozen=True)
class EvalMetrics:
    r2: float
    mse: float
    max_error: float


def _check_finite(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValidationError("regression inputs contain NaN/Inf")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"incompatible shapes X{X.shape}, y{y.shape}")
    return X, y


def _distinct_rows(Xc: np.ndarray, yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Identical rows of a centred design collapsed into one each.

    Returns the distinct rows, in order of first appearance, and the mean
    target of each, both scaled by sqrt(count). Least squares and the Lasso
    on these rows (with the full row count in every 1/n) have the same
    minimiser as on all the rows: within a group only the target varies,
    and its deviations from the group mean are orthogonal to every column.
    With no repeated row the result equals Xc and yc.
    """
    ids: dict[bytes, int] = {}
    group = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in Xc])
    counts = np.bincount(group)
    distinct = np.empty((len(counts), Xc.shape[1]))
    distinct[group] = Xc  # the rows of a group are equal
    root = np.sqrt(counts)
    return distinct * root[:, None], np.bincount(group, weights=yc) / counts * root


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least squares with a centered-out intercept, solved on the design's
    distinct rows (``_distinct_rows``).

    The rank cutoff is numpy's default for the uncollapsed design,
    eps*max(n, p) relative to the largest singular value, which the collapse
    does not change. One iterative-refinement step tightens the solution to
    machine precision, so exactly representable problems solve exactly.
    """
    X, y = _check_finite(X, y)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xw, yw = _distinct_rows(X - x_mean, y - y_mean)
    rcond = np.finfo(float).eps * max(X.shape)
    beta, _, rank, _ = np.linalg.lstsq(Xw, yw, rcond=rcond)
    correction, *_ = np.linalg.lstsq(Xw, yw - Xw @ beta, rcond=rcond)
    beta = beta + correction
    if rank < X.shape[1]:
        warnings.warn(
            f"design matrix rank {rank} < {X.shape[1]} columns; minimum-norm solution",
            SingularityWarning,
            stacklevel=2,
        )
    intercept = float(y_mean - x_mean @ beta)
    return LinearModel(tuple(float(b) for b in beta), intercept, kind="ols")


@dataclass(frozen=True)
class LassoFit:
    """A Lasso fit with its solver report.

    ``kkt`` is the optimality residual of ``lasso_kkt``; ``converged`` means
    ``kkt <= KKT_BOUND``.
    """

    model: LinearModel
    converged: bool
    kkt: float


#: largest relative KKT residual (``lasso_kkt``) that a ``lasso_path`` fit counts as converged
KKT_BOUND = 1e-6
#: path steps allowed per min(n, p); a penalty not reached by then gets the
#: solution at the last penalty reached, which its KKT residual flags
_PATH_STEPS_PER_RANK = 8
#: a candidate whose z-scored column keeps less than this share of its (unit)
#: variance outside the active columns' span is in that span and cannot enter
_SPAN_TOL = 1e-10


def _path_coefficients(
    Xc: np.ndarray, yc: np.ndarray, lams: Sequence[float], max_steps: int
) -> dict[float, np.ndarray]:
    """LARS-Lasso homotopy (Efron, Hastie, Johnstone & Tibshirani 2004) on
    centred data, read off at every positive penalty in ``lams``.

    A penalty the path does not reach (it stops after ``max_steps``
    breakpoints, or on a non-finite step or a failed refactor) gets the
    exact solution at the last penalty it did reach.

    In z-scored coordinates b_j = s_j beta_j (s_j the column's standard
    deviation) column j's penalty is weighted by w_j = 1/s_j. At a penalty
    lambda with active set A and signs sigma_A, the KKT equalities give
    G_AA b_A = c_A - lambda (w sigma)_A for the Gram matrix G and the
    correlations c = Z^T yc / n. Lowering the penalty by t moves b_A by
    t d with G_AA d = (w sigma)_A, and every residual correlation r_j by
    -t (G_A^T d)_j. The next breakpoint is the smallest t at which an
    active coefficient reaches zero (it leaves) or another |r_j| reaches
    (lambda - t) w_j (it enters); between breakpoints the solution is exact.

    The path runs on the distinct rows of Xc (``_distinct_rows``) with n
    the full row count, apart from the correlations c, which come from all
    the rows: one dot product per column, so that lambda_max computed
    column by column gives all zeros. Only the Gram rows of the active
    columns are kept, one computed per entry, so no p x p matrix is formed.
    The inverse M of G_AA's Cholesky factor gains a row per entry and is
    refactored, M = inv(cholesky(G_AA)), after each exit. A column whose variance outside the active
    columns' span is below ``_SPAN_TOL`` cannot enter: its correlation can
    touch its bound only by rounding, and letting it in would cycle.
    """
    targets = sorted({lam for lam in lams if lam > 0.0}, reverse=True)
    if not targets:
        return {}
    n, p = Xc.shape
    dots = np.array([float(Xc[:, j] @ yc) for j in range(p)])
    Xw, _ = _distinct_rows(Xc, yc)
    scale = np.sqrt((Xw**2).sum(axis=0) / n)
    live = scale > 0.0
    scale[~live] = 1.0
    ZT = (Xw / scale).T.copy()  # rows are the z-scored columns
    corr = dots / n / scale
    weight = 1.0 / scale
    sides = np.array([[1.0], [-1.0]])
    found: dict[float, np.ndarray] = {}
    lam = float(np.abs(dots).max(initial=0.0)) / n  # lambda_max
    while targets and targets[0] >= lam:
        found[targets.pop(0)] = np.zeros(p)
    if not targets:
        return found

    first = int(np.argmax(np.abs(dots)))
    active = [first]
    sign = [float(np.sign(dots[first]))]
    size = min(len(Xw), p) + 1
    rows = np.zeros((size, p))  # rows[:m] is G_A, the Gram rows of the active columns
    rows[0] = ZT @ ZT[first] / n
    M = np.zeros((size, size))  # M[:m, :m] is the inverse of G_AA's Cholesky factor
    M[0, 0] = 1.0 / math.sqrt(rows[0, first])
    closed = ~live  # dead or active columns
    closed[first] = True
    in_span = np.zeros(p, dtype=bool)  # found in the span since the last exit
    left, left_side = -1, 0  # the last column to leave may not re-enter on the same side at once
    reached = np.zeros(p)  # the solution at lam, the last penalty reached
    for _ in range(max_steps):
        m = len(active)
        A = np.array(active)
        Mm = M[:m, :m]
        push = weight[A] * sign
        b = Mm.T @ (Mm @ (corr[A] - lam * push))
        d = Mm.T @ (Mm @ push)
        if not (np.isfinite(b).all() and np.isfinite(d).all()):
            break
        # exits: b_j + t d_j reaches zero
        exit_at = np.full(m, np.inf)
        np.divide(-b, d, out=exit_at, where=d * sign < 0.0)
        np.maximum(exit_at, 0.0, out=exit_at)
        k = int(np.argmin(exit_at))
        j, entry = -1, np.inf
        # the distinct rows of a centred design span at most len(Xw) - 1
        # dimensions, so an active set that large already spans every column
        if m < len(Xw) - 1:
            GA = rows[:m]
            resid, a = corr - b @ GA, d @ GA
            # entries: sigma (r_j - t a_j) reaches (lambda - t) w_j; a column
            # already past its bound enters at once
            gap = lam * weight - sides * resid
            rate = weight - sides * a
            at = np.full((2, p), np.inf)
            np.divide(gap, rate, out=at, where=rate > 0.0)
            at[gap <= 0.0] = 0.0
            at[:, closed | in_span] = np.inf
            if left >= 0:
                at[left_side, left] = np.inf
            entry_at = at.min(axis=0)
            # the columns due before the next exit, earliest first, enter only if
            # enough of them lies outside the active span; that share comes from
            # the data, since G_jj - |M G_Aj|^2 would cancel to rounding noise
            due = np.flatnonzero(entry_at < min(exit_at[k], lam))
            due = due[np.argsort(entry_at[due], kind="stable")]
            for candidate in due:
                w = Mm @ GA[:, candidate]
                outside = ZT[candidate] - (Mm.T @ w) @ ZT[A]
                pivot = outside @ outside / n
                if pivot > _SPAN_TOL:
                    j, entry = candidate, entry_at[candidate]
                    break
                in_span[candidate] = True
        step = min(exit_at[k], entry, lam)
        while targets and targets[0] >= lam - step:
            coef = np.zeros(p)
            coef[A] = (b + (lam - targets[0]) * d) / scale[A]
            found[targets.pop(0)] = coef
        if not targets:
            break
        reached = np.zeros(p)
        reached[A] = (b + step * d) / scale[A]
        if exit_at[k] <= entry:
            reached[A[k]] = 0.0
            left, left_side = active.pop(k), int(sign.pop(k) < 0)
            rows[k:m - 1] = rows[k + 1:m]
            closed[left] = False
            in_span[:] = False
            try:
                M[:m - 1, :m - 1] = np.linalg.inv(np.linalg.cholesky(rows[:m - 1, active]))
            except np.linalg.LinAlgError:
                break
        else:
            diagonal = math.sqrt(pivot)  # the new row of the factor is (w, diagonal)
            M[m, :m] = -(w @ Mm) / diagonal
            M[m, m] = 1.0 / diagonal
            rows[m] = ZT @ ZT[j] / n
            active.append(j)
            sign.append(1.0 if at[0, j] <= at[1, j] else -1.0)
            closed[j] = True
            left = -1
        lam -= step
    for target in targets:
        found[target] = reached
    return found


def lasso_path(X: np.ndarray, y: np.ndarray, lams: Sequence[float]) -> list[LassoFit]:
    """Exact Lasso fits at every penalty in ``lams``, in their order, from one
    LARS-Lasso path on the centred data.

    A penalty of 0 is fitted by ``fit_ols`` (the minimum-norm solution: with
    more columns than rows the Lasso at 0 is not unique). A penalty the path
    does not reach within a few times min(n, p) breakpoints gets the solution
    at the last penalty it reached, reported at the requested one. Each fit
    carries its ``lasso_kkt`` residual, and each fit above ``KKT_BOUND``
    warns once.
    """
    X, y = _check_finite(X, y)
    lams = [float(lam) for lam in lams]
    if any(lam < 0 for lam in lams):
        raise ValidationError(f"lambda grid {lams} must be non-negative")
    n, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    found = _path_coefficients(X - x_mean, y - y_mean, lams, _PATH_STEPS_PER_RANK * min(n, p))
    models = {
        lam: LinearModel(tuple(map(float, coef)), float(y_mean - x_mean @ coef), "lasso", lam)
        for lam, coef in found.items()
    }
    if 0.0 in lams:
        ols = fit_ols(X, y)
        models[0.0] = LinearModel(ols.coefficients, ols.intercept, "lasso", 0.0)
    fits = {}
    for lam, model in models.items():
        kkt = lasso_kkt(X, y, model)
        if kkt > KKT_BOUND:
            warnings.warn(
                f"lasso (n={n}, lambda={lam:g}) has relative KKT residual {kkt:.2g} > {KKT_BOUND:g}",
                NotConvergedWarning,
                stacklevel=2,
            )
        fits[lam] = LassoFit(model, kkt <= KKT_BOUND, kkt)
    return [fits[lam] for lam in lams]


def lasso_kkt(X: np.ndarray, y: np.ndarray, model: LinearModel) -> float:
    """Relative KKT residual of a Lasso model on its training data.

    With g = Xc^T r / n for the centred design Xc and the residual
    r = yc - Xc beta, optimality asks g_j = lambda*sign(beta_j) where
    beta_j != 0 and |g_j| <= lambda where beta_j = 0. The residual is the
    largest distance of any g_j from that set, divided by lambda, or by
    lambda_max = max_j |Xc_j . yc| / n when lambda is 0 (and 0 when both are).
    A positive lambda below eps*lambda_max counts as eps*lambda_max, the
    scale at which rounding alone moves g.
    """
    X, y = _check_finite(X, y)
    beta = model.beta
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    n = len(y)
    grad = Xc.T @ (yc - Xc @ beta) / n
    dist = np.where(
        beta != 0.0, np.abs(grad - model.lam * np.sign(beta)), np.maximum(np.abs(grad) - model.lam, 0.0)
    )
    lam_max = np.abs(Xc.T @ yc).max(initial=0.0) / n
    scale = max(model.lam, np.finfo(float).eps * lam_max) if model.lam > 0 else lam_max
    return float(dist.max(initial=0.0) / scale) if scale > 0 else 0.0


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
