"""Score discretization, sparse logistic classification, cross-validation.

Self-reported scores on the 1..9 scale become three classes (low,
medium, high).  Classification is one-vs-rest L1-penalized logistic
regression on internally standardized features; the penalty uses the
mean-loss form

    (1/n) sum_i logloss_i + lambda * ||beta||_1

so the same lambda means the same amount of shrinkage regardless of
sample count.  Every fit runs one pathwise coordinate descent (Friedman,
Hastie & Tibshirani 2010, J. Stat. Softw. 33(1)): each class is fit down
a descending lambda path, warm-started from its fit at the previous
lambda, with covariance-update sweeps.  A final model is the one-point
path at the selected lambda; stratified k-fold cross-validation fits the
log-spaced grid as one path per fold, keeps its predictions as
``CLASS_ORDER`` indices and prefers the sparser (larger) lambda on ties.
Fits that spend the sweep budget without converging are logged as one
warning per call that names the target.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InputError, NumericError
from .seeding import generator

__all__ = [
    "CLASS_ORDER",
    "FeatureTable",
    "SparseLinearModel",
    "CrossValResult",
    "discretize_score",
    "fit_lasso",
    "lambda_grid",
    "cross_validate",
    "model_to_dict",
]

log = logging.getLogger(__name__)

#: Canonical class order; ties in argmax resolve toward the earlier class.
CLASS_ORDER = ("low", "medium", "high")

MAX_SWEEPS = 10_000
COORD_TOL = 1e-6
GRID_POINTS = 20
GRID_SPAN = 1e-3

#: Probability clamp for the working weights; saturated points get
#: probability exactly 0 or 1 and this floor weight, keeping the working
#: response finite for correctly classified points.
WEIGHT_FLOOR = 1e-5


@dataclass(frozen=True)
class FeatureTable:
    """Per-trial feature matrix with optional class labels per target."""

    trial_ids: tuple[str, ...]
    columns: tuple[str, ...]
    X: np.ndarray
    labels: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if self.X.shape != (len(self.trial_ids), len(self.columns)):
            raise InputError(
                f"feature matrix shape {self.X.shape} does not match "
                f"{len(self.trial_ids)} trials x {len(self.columns)} columns"
            )
        for target, classes in self.labels.items():
            if len(classes) != len(self.trial_ids):
                raise InputError(f"label column {target!r} has wrong length")


@dataclass(frozen=True)
class SparseLinearModel:
    """One-vs-rest L1 logistic model in standardized feature space."""

    columns: tuple[str, ...]
    classes: tuple[str, ...]
    weights: np.ndarray  # (n_classes, n_features)
    intercepts: np.ndarray  # (n_classes,)
    mean: np.ndarray
    scale: np.ndarray
    lam: float


@dataclass(frozen=True)
class CrossValResult:
    """Cross-validation outcome for one target and feature table."""

    accuracy: float
    confusion: np.ndarray  # (3, 3) rows true, cols predicted, CLASS_ORDER
    selected_lambda: float
    fold_accuracies: tuple[float, ...]
    lambda_grid: tuple[float, ...]
    mean_accuracy_per_lambda: tuple[float, ...]


def discretize_score(score: float) -> str:
    """Map a score in [1, 9] onto low [1,4), medium [4,6), high [6,9]."""
    if not 1.0 <= score <= 9.0:
        raise InputError(f"score {score} outside [1, 9]")
    if score < 4.0:
        return "low"
    if score < 6.0:
        return "medium"
    return "high"


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    return (X - mean) / scale, mean, scale


def _fit_binary(
    XsT: np.ndarray,
    y: np.ndarray,
    lam: float,
    init: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, float, bool]:
    """Cyclic coordinate descent for one penalized logistic regression.

    Outer iterations form the quadratic (working-response) approximation
    of the logistic loss at the current iterate; inner cyclic coordinate
    sweeps solve that weighted lasso subproblem with soft-threshold
    updates.  The intercept is unpenalized.  ``XsT`` holds one contiguous
    row per feature.  ``init`` warm-starts from a nearby solution, e.g.
    the previous point on a descending lambda path.  Convergence: no
    coefficient moves by COORD_TOL or more across a full outer step, or
    the total inner sweep budget MAX_SWEEPS is spent; the third value
    returned says whether the fit converged before that.

    The sweeps use covariance updates (Friedman, Hastie & Tibshirani
    2010, J. Stat. Softw. 33(1), section 2.2).  Each outer step forms
    once, as Python floats, the weighted Gram matrix
    ``G = (W X)(X^T)/n``, the weighted column sums ``g0`` (the cross
    terms with the intercept), the gradient ``grad = (W X) rq / n`` of
    the quadratic residual ``rq`` and its weighted sum ``s0``.  A
    coefficient that moves by ``change`` adds ``change * G[j]`` to
    ``grad`` and ``change * g0[j]`` to ``s0``; an intercept step adds
    ``step * g0`` and ``step * h0``.  ``rq`` is rebuilt from the moved
    coefficients when the sweeps end.  The iterates equal those of the
    residual form, which updates ``rq`` at every step, up to rounding.
    """
    p, n = XsT.shape
    if init is None:
        beta = np.zeros(p)
        ybar = float(y.mean())
        intercept = math.log(ybar / (1.0 - ybar))
    else:
        beta = init[0].copy()
        intercept = float(init[1])
    z = XsT.T @ beta + intercept

    inv_n = 1.0 / n
    cols = range(p)
    sweeps_left = MAX_SWEEPS
    while sweeps_left > 0:
        prob = expit(z)
        w = prob * (1.0 - prob)
        low = prob < WEIGHT_FLOOR
        high = prob > 1.0 - WEIGHT_FLOOR
        prob[low] = 0.0
        prob[high] = 1.0
        w[low | high] = WEIGHT_FLOOR

        # rq = current quadratic residual zq - u, where u = z + (y - prob)/w
        # is the working response; the sweeps carry only its weighted
        # inner products grad and s0.
        rq = -(y - prob) / w
        WX = XsT * w
        G = ((WX @ XsT.T) * inv_n).tolist()
        g0 = (WX.sum(axis=1) * inv_n).tolist()
        grad = ((WX @ rq) * inv_n).tolist()
        h0 = float(w.sum()) * inv_n
        s0 = float(w @ rq) * inv_n
        b = beta.tolist()
        intercept_start = intercept
        outer_max = 0.0

        while sweeps_left > 0:
            sweeps_left -= 1
            delta_max = 0.0

            step = -s0 / h0
            if step != 0.0:
                intercept += step
                s0 += step * h0
                for k in cols:
                    grad[k] += step * g0[k]
                delta_max = abs(step)

            for j in cols:
                Gj = G[j]
                hj = Gj[j]
                if hj == 0.0:
                    continue
                bj = b[j]
                v = bj * hj - grad[j]
                if v > lam:
                    new = (v - lam) / hj
                elif v < -lam:
                    new = (v + lam) / hj
                else:
                    new = 0.0
                change = new - bj
                if change != 0.0:
                    b[j] = new
                    s0 += change * g0[j]
                    for k in cols:
                        grad[k] += change * Gj[k]
                    if abs(change) > delta_max:
                        delta_max = abs(change)

            if delta_max > outer_max:
                outer_max = delta_max
            if delta_max < COORD_TOL:
                break

        moved = np.array(b) - beta
        beta = np.array(b)
        rq += (intercept - intercept_start) + moved @ XsT
        z = rq + z + (y - prob) / w
        if outer_max < COORD_TOL:
            return beta, intercept, True
    return beta, intercept, False


def _warn_unconverged(target: str, unconverged: int, fits: int) -> None:
    if unconverged:
        msg = "target %s: %d of %d coordinate-descent fits hit MAX_SWEEPS (%d) unconverged"
        log.warning(msg, target, unconverged, fits, MAX_SWEEPS)


def _class_codes(table: FeatureTable, target: str) -> tuple[np.ndarray, np.ndarray]:
    """``target``'s labels as ``CLASS_ORDER`` indices and the ascending indices
    of the classes present, once they are known classes, at least two of
    them, and every feature is finite."""
    if target not in table.labels:
        raise InputError(f"table carries no labels for target {target!r}")
    labels = table.labels[target]
    bad = sorted(set(labels) - set(CLASS_ORDER))
    if bad:
        raise InputError(f"unknown classes {bad}; expected {list(CLASS_ORDER)}")
    codes = np.array([CLASS_ORDER.index(c) for c in labels], dtype=int)
    present = np.unique(codes)
    if len(present) < 2:
        raise InputError(f"target {target!r} has {len(present)} class(es); need at least 2")
    if not np.all(np.isfinite(table.X)):
        raise InputError("feature table contains non-finite values")
    return codes, present


def _fit_path(
    X: np.ndarray, labels: np.ndarray, classes: np.ndarray, lambdas
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One-vs-rest fits of each of ``classes`` down the descending ``lambdas``,
    each warm-started from its class's fit at the previous lambda (a
    one-point path starts cold).  Returns the standardization mean and
    scale, the weights ``(lambda, class, feature)``, the intercepts
    ``(lambda, class)`` and the number of fits that hit MAX_SWEEPS."""
    Xs, mean, scale = _standardize(X)
    XsT = np.ascontiguousarray(Xs.T)
    weights = np.zeros((len(lambdas), len(classes), X.shape[1]))
    intercepts = np.zeros((len(lambdas), len(classes)))
    unconverged = 0
    for c, cls in enumerate(classes):
        y = (labels == cls).astype(float)
        init = None
        for g, lam in enumerate(lambdas):
            weights[g, c], intercepts[g, c], converged = _fit_binary(XsT, y, lam, init)
            init = (weights[g, c], intercepts[g, c])
            unconverged += not converged
    return mean, scale, weights, intercepts, unconverged


def fit_lasso(table: FeatureTable, target: str, lam: float) -> SparseLinearModel:
    """Fit one-vs-rest L1 logistic models for ``target`` at one lambda,
    the one-point lambda path; the coordinate-descent solver is deterministic."""
    if lam < 0.0:
        raise InputError(f"lambda must be >= 0, got {lam}")
    codes, present = _class_codes(table, target)
    mean, scale, weights, intercepts, unconverged = _fit_path(table.X, codes, present, (lam,))
    _warn_unconverged(target, unconverged, len(present))
    return SparseLinearModel(
        columns=table.columns,
        classes=tuple(CLASS_ORDER[c] for c in present),
        weights=weights[0],
        intercepts=intercepts[0],
        mean=mean,
        scale=scale,
        lam=float(lam),
    )


def lambda_grid(
    table: FeatureTable,
    target: str,
    points: int = GRID_POINTS,
    span: float = GRID_SPAN,
) -> tuple[float, ...]:
    """Log-spaced grid from the smallest all-zeroing lambda down by ``span``.

    lambda_max is the largest absolute mean gradient of any standardized
    feature at the intercept-only fit, maximized over the one-vs-rest
    subproblems; beyond it every penalized weight stays zero.
    """
    if points < 2:
        raise InputError(f"grid needs at least 2 points, got {points}")
    codes, present = _class_codes(table, target)
    Xs, _, _ = _standardize(table.X)
    lam_max = 0.0
    for cls in present:
        y = (codes == cls).astype(float)
        lam_max = max(lam_max, float(np.abs(Xs.T @ (y - y.mean())).max()) / len(y))
    if lam_max <= 0.0:
        raise NumericError("all features are uninformative; lambda grid is degenerate")
    # tiny headroom so round-off in the solver's first gradient pass can
    # never nudge a weight off zero at the head of the grid
    lam_max *= 1.0 + 1e-10
    return tuple(np.geomspace(lam_max, lam_max * span, points))


def _stratified_folds(codes: np.ndarray, k: int, seed: int) -> np.ndarray:
    fold_of = np.empty(len(codes), dtype=int)
    rng = generator(seed, "cv-folds")
    for code, cls in enumerate(CLASS_ORDER):
        members = np.nonzero(codes == code)[0]
        if members.size == 0:
            continue
        if members.size < k:
            raise InputError(
                f"class {cls!r} has {members.size} members; need at least {k} "
                f"for {k}-fold cross-validation"
            )
        members = members[rng.permutation(members.size)]
        fold_of[members] = np.arange(members.size) % k
    return fold_of


def cross_validate(
    table: FeatureTable,
    target: str,
    lambdas: tuple[float, ...] | None = None,
    k: int = 5,
    seed: int = 0,
) -> CrossValResult:
    """Stratified k-fold cross-validation over a lambda grid.

    Each fold fits the whole grid as one lambda path.  The reported
    accuracy and confusion matrix pool the validation predictions of
    every fold at the selected lambda.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    codes, present = _class_codes(table, target)
    if lambdas is None:
        lambdas = lambda_grid(table, target)
    grid = sorted((float(l) for l in lambdas), reverse=True)
    # a fold takes at most ceil(m / k) < m of a class's m >= k members,
    # so every training split holds every present class
    fold_of = _stratified_folds(codes, k, seed)

    predictions = np.empty((len(grid), len(codes)), dtype=int)  # CLASS_ORDER indices
    fits = unconverged = 0
    for fold in range(k):
        train = fold_of != fold
        mean, scale, W, b, missed = _fit_path(table.X[train], codes[train], present, grid)
        scores = ((table.X[~train] - mean) / scale) @ W.transpose(0, 2, 1) + b[:, None, :]
        predictions[:, ~train] = present[np.argmax(scores, axis=2)]
        fits += b.size
        unconverged += missed
    _warn_unconverged(target, unconverged, fits)

    correct = predictions == codes
    in_fold = fold_of == np.arange(k)[:, None]  # (fold, trial)
    fold_acc = (correct[:, None, :] & in_fold).sum(axis=2) / in_fold.sum(axis=1)
    mean_acc = fold_acc.mean(axis=1)
    best = int(np.argmax(mean_acc))  # grid is descending, so ties pick larger lambda
    n = len(CLASS_ORDER)
    confusion = np.bincount(codes * n + predictions[best], minlength=n * n).reshape(n, n)
    return CrossValResult(
        accuracy=float(np.mean(correct[best])),
        confusion=confusion,
        selected_lambda=grid[best],
        fold_accuracies=tuple(fold_acc[best]),
        lambda_grid=tuple(grid),
        mean_accuracy_per_lambda=tuple(mean_acc),
    )


def model_to_dict(model: SparseLinearModel) -> dict:
    """JSON-ready representation of a fitted model."""
    return {
        "schema_version": 1,
        "columns": list(model.columns),
        "classes": list(model.classes),
        "weights": [list(map(float, row)) for row in model.weights],
        "intercepts": [float(v) for v in model.intercepts],
        "mean": [float(v) for v in model.mean],
        "scale": [float(v) for v in model.scale],
        "lambda": float(model.lam),
    }
