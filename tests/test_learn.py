"""Score discretization, sparse logistic fits, cross-validation."""

import json
import logging
import math

import numpy as np
import pytest
from scipy.special import expit

from jrpnet import learn
from jrpnet.errors import InputError, NumericError
from jrpnet.learn import (
    CLASS_ORDER,
    CrossValResult,
    FeatureTable,
    cross_validate,
    discretize_score,
    fit_lasso,
    lambda_grid,
    model_to_dict,
)
from jrpnet.seeding import generator


def make_table(n=45, p=6, seed=0, target="valence", separation=2.0):
    """Balanced three-class table whose first feature carries the signal."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    classes = tuple(CLASS_ORDER[i % 3] for i in range(n))
    shift = {"low": -separation, "medium": 0.0, "high": separation}
    X[:, 0] += np.array([shift[c] for c in classes])
    return FeatureTable(
        trial_ids=tuple(f"t{i:03d}" for i in range(n)),
        columns=tuple(f"f{j}" for j in range(p)),
        X=X,
        labels={target: classes},
    )


def test_discretize_boundaries():
    assert discretize_score(1.0) == "low"
    assert discretize_score(3.5) == "low"
    assert discretize_score(4.0) == "medium"
    assert discretize_score(5.999) == "medium"
    assert discretize_score(6.0) == "high"
    assert discretize_score(9.0) == "high"
    with pytest.raises(InputError, match="outside"):
        discretize_score(0.5)
    with pytest.raises(InputError, match="outside"):
        discretize_score(9.5)


def mean_objective(xs, y, beta, intercept, lam):
    """Mean logistic loss plus L1 penalty for a single-feature model."""
    margin = (2.0 * y - 1.0) * (xs * beta + intercept)
    return np.logaddexp(0.0, -margin).mean() + lam * abs(beta)


def test_single_feature_fit_reaches_the_grid_optimum():
    # binary problem with one feature: exhaustive (beta, intercept) search
    # bounds the reachable objective, the solver must land at that floor
    rng = np.random.default_rng(7)
    n = 30
    y = np.array([0.0, 1.0] * (n // 2))
    x = rng.normal(size=n) + 1.5 * (2 * y - 1)
    table = FeatureTable(
        trial_ids=tuple(f"t{i}" for i in range(n)),
        columns=("f0",),
        X=x[:, None],
        labels={"valence": tuple("high" if v else "low" for v in y)},
    )
    lam = 0.05
    model = fit_lasso(table, "valence", lam)
    xs = (x - model.mean[0]) / model.scale[0]

    c_high = model.classes.index("high")
    got = mean_objective(xs, y, model.weights[c_high, 0], model.intercepts[c_high], lam)

    best = (0.0, 0.0)
    lo, hi, points = -5.0, 5.0, 201
    for _ in range(3):
        betas = np.linspace(best[0] - (hi - lo) / 2, best[0] + (hi - lo) / 2, points)
        cepts = np.linspace(best[1] - (hi - lo) / 2, best[1] + (hi - lo) / 2, points)
        obj = (
            np.logaddexp(
                0.0,
                -(2.0 * y - 1.0)[:, None, None]
                * (xs[:, None, None] * betas[None, :, None] + cepts[None, None, :]),
            ).mean(axis=0)
            + lam * np.abs(betas)[:, None]
        )
        k = np.unravel_index(np.argmin(obj), obj.shape)
        best = (float(betas[k[0]]), float(cepts[k[1]]))
        lo, hi = lo / 20, hi / 20
    floor = mean_objective(xs, y, best[0], best[1], lam)

    assert got <= floor + 1e-5
    assert model.weights[c_high, 0] > 0.0  # high class sits at larger x
    c_low = model.classes.index("low")
    assert model.weights[c_low, 0] < 0.0


def test_huge_lambda_predicts_the_majority_class():
    rng = np.random.default_rng(8)
    classes = ("low",) * 4 + ("medium",) * 12 + ("high",) * 6
    table = FeatureTable(
        trial_ids=tuple(f"t{i}" for i in range(22)),
        columns=("a", "b"),
        X=rng.normal(size=(22, 2)),
        labels={"arousal": classes},
    )
    model = fit_lasso(table, "arousal", 1e6)
    assert np.all(model.weights == 0.0)
    scores = ((table.X - model.mean) / model.scale) @ model.weights.T + model.intercepts
    assert [model.classes[c] for c in np.argmax(scores, axis=1)] == ["medium"] * 22


def test_row_duplication_leaves_the_fit_unchanged():
    table = make_table(n=30, p=4, seed=9)
    doubled = FeatureTable(
        trial_ids=table.trial_ids + tuple(f"{t}b" for t in table.trial_ids),
        columns=table.columns,
        X=np.vstack([table.X, table.X]),
        labels={"valence": table.labels["valence"] * 2},
    )
    a = fit_lasso(table, "valence", 0.02)
    b = fit_lasso(doubled, "valence", 0.02)
    assert np.allclose(a.weights, b.weights, atol=1e-8)
    assert np.allclose(a.intercepts, b.intercepts, atol=1e-8)


def test_sparsity_grows_as_lambda_shrinks():
    table = make_table(n=60, p=12, seed=10)
    grid = lambda_grid(table, "valence", points=10)
    nnz = [int(np.count_nonzero(fit_lasso(table, "valence", lam).weights)) for lam in grid]
    assert nnz[0] == 0  # the grid starts at the smallest all-zeroing lambda
    assert all(a <= b for a, b in zip(nnz, nnz[1:]))
    assert nnz[-1] > 0


def test_feature_scaling_is_absorbed_by_standardization():
    table = make_table(n=30, p=4, seed=11)
    rescaled = FeatureTable(
        trial_ids=table.trial_ids,
        columns=table.columns,
        X=table.X * np.array([1000.0, 1.0, 0.001, 1.0]) + np.array([0.0, 5.0, 0.0, -3.0]),
        labels=table.labels,
    )
    a = fit_lasso(table, "valence", 0.05)
    b = fit_lasso(rescaled, "valence", 0.05)
    assert np.allclose(a.weights, b.weights, atol=1e-8)
    assert np.allclose(a.intercepts, b.intercepts, atol=1e-8)
    scores_a = ((table.X - a.mean) / a.scale) @ a.weights.T + a.intercepts
    scores_b = ((rescaled.X - b.mean) / b.scale) @ b.weights.T + b.intercepts
    assert np.array_equal(np.argmax(scores_a, axis=1), np.argmax(scores_b, axis=1))


def test_fit_is_deterministic():
    table = make_table(n=30, p=5, seed=12)
    one = json.dumps(model_to_dict(fit_lasso(table, "valence", 0.03)), sort_keys=True)
    two = json.dumps(model_to_dict(fit_lasso(table, "valence", 0.03)), sort_keys=True)
    assert one == two


def test_cross_validation_recovers_a_clean_signal():
    table = make_table(n=45, p=6, seed=13, separation=4.0)
    result = cross_validate(table, "valence", k=5, seed=0)
    assert result.accuracy >= 0.9
    assert result.confusion.sum() == 45
    assert len(result.fold_accuracies) == 5
    assert len(result.lambda_grid) == len(result.mean_accuracy_per_lambda)
    assert list(result.lambda_grid) == sorted(result.lambda_grid, reverse=True)
    assert result.selected_lambda in result.lambda_grid


def test_cross_validation_on_permuted_labels_is_chance_level():
    table = make_table(n=45, p=6, seed=14, separation=4.0)
    for perm_seed in range(5):
        rng = np.random.default_rng(perm_seed)
        shuffled = tuple(rng.permutation(np.array(table.labels["valence"])))
        broken = FeatureTable(
            trial_ids=table.trial_ids,
            columns=table.columns,
            X=table.X,
            labels={"valence": shuffled},
        )
        result = cross_validate(broken, "valence", k=5, seed=0)
        assert 0.1 <= result.accuracy <= 0.6


def test_ties_prefer_the_sparser_lambda():
    table = make_table(n=30, p=4, seed=15)
    # both lambdas exceed lambda_max, so the fits and predictions agree
    result = cross_validate(table, "valence", lambdas=(1e5, 1e6), k=3, seed=0)
    assert result.selected_lambda == 1e6
    assert result.mean_accuracy_per_lambda[0] == result.mean_accuracy_per_lambda[1]


def test_fits_that_spend_the_sweep_budget_are_reported(monkeypatch, caplog):
    table = make_table(n=30, p=4, seed=15)
    caplog.set_level(logging.WARNING, logger="jrpnet.learn")
    cross_validate(table, "valence", lambdas=(0.03,), k=3, seed=0)
    fit_lasso(table, "valence", 0.03)
    assert not caplog.records

    monkeypatch.setattr(learn, "MAX_SWEEPS", 1)
    cross_validate(table, "valence", lambdas=(0.03,), k=3, seed=0)
    fit_lasso(table, "valence", 0.03)
    # one warning per call: 3 folds x 3 one-vs-rest classes, then 3 classes
    messages = [r.getMessage() for r in caplog.records]
    assert [r.levelno for r in caplog.records] == [logging.WARNING] * 2
    assert "valence" in messages[0] and "9 of 9" in messages[0]
    assert "valence" in messages[1] and "3 of 3" in messages[1]


def test_cross_validation_input_errors():
    table = make_table(n=30, p=4, seed=16)
    with pytest.raises(InputError, match="'low'"):
        thin = FeatureTable(
            trial_ids=table.trial_ids,
            columns=table.columns,
            X=table.X,
            labels={"valence": ("low",) * 2 + ("medium", "high") * 14},
        )
        cross_validate(thin, "valence", k=5)
    with pytest.raises(InputError, match="k must be"):
        cross_validate(table, "valence", k=1)
    with pytest.raises(InputError, match="non-finite"):
        bad = FeatureTable(
            trial_ids=table.trial_ids,
            columns=table.columns,
            X=np.where(np.arange(30)[:, None] == 0, np.nan, table.X),
            labels=table.labels,
        )
        cross_validate(bad, "valence", k=3)


def test_fit_input_errors():
    table = make_table(n=12, p=3, seed=17)
    with pytest.raises(InputError, match="lambda"):
        fit_lasso(table, "valence", -0.1)
    with pytest.raises(InputError, match="no labels"):
        fit_lasso(table, "dominance", 0.1)
    single = FeatureTable(
        trial_ids=table.trial_ids,
        columns=table.columns,
        X=table.X,
        labels={"valence": ("low",) * 12},
    )
    with pytest.raises(InputError, match="at least 2"):
        fit_lasso(single, "valence", 0.1)
    mislabeled = FeatureTable(
        trial_ids=table.trial_ids,
        columns=table.columns,
        X=table.X,
        labels={"valence": ("lo",) * 6 + ("high",) * 6},
    )
    with pytest.raises(InputError, match="unknown classes"):
        fit_lasso(mislabeled, "valence", 0.1)


def test_lambda_grid_shape_and_pinning():
    table = make_table(n=30, p=5, seed=18)
    grid = lambda_grid(table, "valence")
    assert len(grid) == 20
    assert grid[0] / grid[-1] == pytest.approx(1e3)
    assert list(grid) == sorted(grid, reverse=True)
    # the head of the grid zeroes every weight, one step down does not
    assert np.all(fit_lasso(table, "valence", grid[0]).weights == 0.0)
    assert np.any(fit_lasso(table, "valence", grid[1]).weights != 0.0)

    flat = FeatureTable(
        trial_ids=table.trial_ids,
        columns=("f0",),
        X=np.ones((30, 1)),
        labels=table.labels,
    )
    with pytest.raises(NumericError, match="uninformative"):
        lambda_grid(flat, "valence")
    with pytest.raises(InputError, match="2 points"):
        lambda_grid(table, "valence", points=1)
    single = FeatureTable(table.trial_ids, table.columns, table.X, {"valence": ("low",) * 30})
    with pytest.raises(InputError, match="at least 2"):
        lambda_grid(single, "valence")


def test_lambda_grid_rejects_non_finite_features():
    # one NaN cell is an input error, as in cross_validate, not an
    # uninformative table
    table = make_table(n=12, p=3, seed=17)
    X = table.X.copy()
    X[0, 0] = np.nan
    bad = FeatureTable(table.trial_ids, table.columns, X, table.labels)
    with pytest.raises(InputError, match="non-finite"):
        lambda_grid(bad, "valence")


def test_model_roundtrip_and_schema_guard():
    table = make_table(n=24, p=4, seed=19)
    model = fit_lasso(table, "valence", 0.04)
    raw = model_to_dict(model)
    assert json.loads(json.dumps(raw)) == raw
    assert raw["schema_version"] == 1
    assert tuple(raw["columns"]) == model.columns
    assert tuple(raw["classes"]) == model.classes
    assert np.array_equal(raw["weights"], model.weights)
    assert np.array_equal(raw["intercepts"], model.intercepts)
    assert np.array_equal(raw["mean"], model.mean)
    assert np.array_equal(raw["scale"], model.scale)
    assert raw["lambda"] == model.lam


def test_feature_table_shape_validation():
    with pytest.raises(InputError, match="shape"):
        FeatureTable(
            trial_ids=("a", "b"),
            columns=("f0",),
            X=np.zeros((3, 1)),
            labels={},
        )
    with pytest.raises(InputError, match="wrong length"):
        FeatureTable(
            trial_ids=("a", "b"),
            columns=("f0",),
            X=np.zeros((2, 1)),
            labels={"valence": ("low",)},
        )


def reference_fit_binary(XsT, y, lam, init=None):
    """Residual-update coordinate descent, the form ``learn._fit_binary``
    had before its covariance updates, kept as the oracle; like the solver
    it reads ``learn.MAX_SWEEPS`` at call time."""

    def soft(value, threshold):
        if value > threshold:
            return value - threshold
        if value < -threshold:
            return value + threshold
        return 0.0

    p, n = XsT.shape
    if init is None:
        beta = np.zeros(p)
        ybar = float(y.mean())
        intercept = math.log(ybar / (1.0 - ybar))
        z = XsT.T @ beta + intercept
    else:
        beta = init[0].copy()
        intercept = float(init[1])
        z = XsT.T @ beta + intercept

    inv_n = 1.0 / n
    sweeps_left = learn.MAX_SWEEPS
    while sweeps_left > 0:
        prob = expit(z)
        w = prob * (1.0 - prob)
        low = prob < learn.WEIGHT_FLOOR
        high = prob > 1.0 - learn.WEIGHT_FLOOR
        prob[low] = 0.0
        prob[high] = 1.0
        w[low | high] = learn.WEIGHT_FLOOR

        rq = -(y - prob) / w
        WX = XsT * w
        h = (WX * XsT).sum(axis=1) * inv_n
        h0 = w.sum() * inv_n
        outer_max = 0.0

        while sweeps_left > 0:
            sweeps_left -= 1
            delta_max = 0.0

            step = -(w @ rq) * inv_n / h0
            if step != 0.0:
                intercept += step
                rq += step
                delta_max = abs(step)

            for j in range(p):
                if h[j] == 0.0:
                    continue
                g = (WX[j] @ rq) * inv_n
                new = soft(beta[j] * h[j] - g, lam) / h[j]
                change = new - beta[j]
                if change != 0.0:
                    beta[j] = new
                    rq += change * XsT[j]
                    if abs(change) > delta_max:
                        delta_max = abs(change)

            if delta_max > outer_max:
                outer_max = delta_max
            if delta_max < learn.COORD_TOL:
                break

        z = rq + z + (y - prob) / w
        if outer_max < learn.COORD_TOL:
            return beta, intercept, True
    return beta, intercept, False


def oracle_table(n, p, seed, separation):
    """make_table plus what the benchmark's features have: an exactly
    anti-collinear pair (like frac_strong and frac_weak) on the signal
    column, and a constant column."""
    table = make_table(n=n, p=p, seed=seed, separation=separation)
    X = table.X.copy()
    X[:, 1] = 1.0 - X[:, 0]
    X[:, 2] = 0.5
    return FeatureTable(table.trial_ids, table.columns, X, table.labels)


ORACLE_TABLES = [
    # (n, p, seed, separation): n > p, n < p, and a nearly separable class
    (30, 4, 20, 2.0),
    (12, 20, 21, 1.0),
    (45, 12, 22, 2.0),
    (24, 6, 23, 12.0),
]


@pytest.mark.parametrize("max_sweeps", [1, 7, learn.MAX_SWEEPS])
@pytest.mark.parametrize("shape", ORACLE_TABLES, ids=lambda s: "n{}-p{}".format(*s))
def test_covariance_updates_match_the_residual_form(monkeypatch, shape, max_sweeps):
    monkeypatch.setattr(learn, "MAX_SWEEPS", max_sweeps)
    table = oracle_table(*shape)
    Xs, _, _ = learn._standardize(table.X)
    assert not Xs[:, 2].any()  # the constant column: zero curvature, skipped
    XsT = np.ascontiguousarray(Xs.T)
    labels = np.array(table.labels["valence"])
    grid = lambda_grid(table, "valence", points=8, span=1e-3)
    for cls in CLASS_ORDER:
        y = (labels == cls).astype(float)
        init = ref_init = None
        for lam in grid:  # warm starts down a descending grid
            beta, intercept, converged = learn._fit_binary(XsT, y, lam, init)
            ref_beta, ref_intercept, ref_converged = reference_fit_binary(XsT, y, lam, ref_init)
            assert converged == ref_converged
            assert abs(intercept - ref_intercept) <= 1e-10
            assert np.max(np.abs(beta - ref_beta)) <= 1e-10
            init, ref_init = (beta, intercept), (ref_beta, ref_intercept)


@pytest.mark.parametrize("shape", ORACLE_TABLES, ids=lambda s: "n{}-p{}".format(*s))
def test_cross_validation_matches_the_residual_form(monkeypatch, shape):
    table = oracle_table(*shape)
    got = cross_validate(table, "valence", k=3, seed=5)
    monkeypatch.setattr(learn, "_fit_binary", reference_fit_binary)
    want = cross_validate(table, "valence", k=3, seed=5)
    for field, value in vars(got).items():
        assert np.array_equal(value, getattr(want, field)), field


def test_every_fit_walks_one_warm_started_lambda_path(monkeypatch):
    table = make_table(n=30, p=4, seed=15)
    grid = lambda_grid(table, "valence", points=5)
    calls = []  # every _fit_binary call as (XsT, y, lam, init, result)
    fit = learn._fit_binary

    def recording(XsT, y, lam, init=None):
        result = fit(XsT, y, lam, init)
        calls.append((XsT, y, lam, init, result))
        return result

    monkeypatch.setattr(learn, "_fit_binary", recording)
    cross_validate(table, "valence", lambdas=grid[::-1], k=3, seed=0)
    assert len(calls) == 3 * 3 * len(grid)  # folds x classes x grid points
    paths = {}
    for call in calls:  # one path per fold (its standardized matrix) and class
        paths.setdefault((id(call[0]), call[1].tobytes()), []).append(call)
    assert len(paths) == 3 * 3
    for path in paths.values():
        assert [lam for _, _, lam, _, _ in path] == list(grid)
        assert path[0][3] is None
        for prev, call in zip(path, path[1:]):
            beta, intercept, _ = prev[4]
            assert np.array_equal(call[3][0], beta) and call[3][1] == intercept

    calls.clear()
    fit_lasso(table, "valence", grid[2])
    assert len(calls) == 3
    assert len({call[1].tobytes() for call in calls}) == 3
    assert all(init is None and lam == grid[2] for _, _, lam, init, _ in calls)


def reference_cross_validate(table, target, lambdas, k, seed):
    """The per-grid-point loops of ``cross_validate`` before its one lambda
    path per fold and integer class codes, kept as the oracle."""
    grid = sorted((float(l) for l in lambdas), reverse=True)
    labels = np.array(table.labels[target])
    fold_of = np.empty(len(labels), dtype=int)
    rng = generator(seed, "cv-folds")
    for cls in CLASS_ORDER:
        members = np.nonzero(labels == cls)[0]
        if members.size:
            members = members[rng.permutation(members.size)]
            fold_of[members] = np.arange(members.size) % k

    predictions = np.empty((len(grid), len(labels)), dtype=object)
    for fold in range(k):
        train = fold_of != fold
        val = ~train
        fold_classes = [c for c in CLASS_ORDER if c in labels[train]]
        Xs, mean, scale = learn._standardize(table.X[train])
        XsT = np.ascontiguousarray(Xs.T)
        ys = [(labels[train] == cls).astype(float) for cls in fold_classes]
        Xval = (table.X[val] - mean) / scale
        inits = [None] * len(fold_classes)
        for g, lam in enumerate(grid):
            W = np.zeros((len(fold_classes), len(table.columns)))
            b = np.zeros(len(fold_classes))
            for c in range(len(fold_classes)):
                W[c], b[c], _ = learn._fit_binary(XsT, ys[c], lam, inits[c])
                inits[c] = (W[c], b[c])
            scores = Xval @ W.T + b
            predictions[g, val] = [fold_classes[i] for i in np.argmax(scores, axis=1)]

    fold_acc = np.empty((len(grid), k))
    for g in range(len(grid)):
        for fold in range(k):
            val = fold_of == fold
            fold_acc[g, fold] = float(np.mean(predictions[g, val] == labels[val]))
    mean_acc = fold_acc.mean(axis=1)
    best = int(np.argmax(mean_acc))
    pooled = predictions[best]
    confusion = np.zeros((len(CLASS_ORDER), len(CLASS_ORDER)), dtype=int)
    for true, pred in zip(labels, pooled):
        confusion[CLASS_ORDER.index(true), CLASS_ORDER.index(pred)] += 1
    return CrossValResult(
        accuracy=float(np.mean(pooled == labels)),
        confusion=confusion,
        selected_lambda=grid[best],
        fold_accuracies=tuple(fold_acc[best]),
        lambda_grid=tuple(grid),
        mean_accuracy_per_lambda=tuple(mean_acc),
    )


def two_class_table(n, p, seed):
    """make_table with its medium class relabeled high."""
    table = make_table(n=n, p=p, seed=seed)
    labels = tuple("high" if c == "medium" else c for c in table.labels["valence"])
    return FeatureTable(table.trial_ids, table.columns, table.X, {"valence": labels})


REFERENCE_CASES = [
    # (table, k): n > p, n < p, a weak signal, two classes
    (lambda: make_table(n=30, p=4, seed=15), 3),
    (lambda: make_table(n=45, p=6, seed=24, separation=1.0), 5),
    (lambda: make_table(n=15, p=20, seed=25), 3),
    (lambda: make_table(n=60, p=12, seed=26, separation=0.5), 4),
    (lambda: two_class_table(n=36, p=5, seed=27), 3),
]


@pytest.mark.parametrize("max_sweeps", [1, learn.MAX_SWEEPS])
@pytest.mark.parametrize("grid", ["default", "tied"])
@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_cross_validation_matches_the_per_lambda_loops(monkeypatch, case, grid, max_sweeps):
    monkeypatch.setattr(learn, "MAX_SWEEPS", max_sweeps)
    make, k = REFERENCE_CASES[case]
    table = make()
    lambdas = lambda_grid(table, "valence") if grid == "default" else (1e5, 1e6)
    got = cross_validate(table, "valence", lambdas=lambdas, k=k, seed=case)
    want = reference_cross_validate(table, "valence", lambdas, k, case)
    for field, value in vars(got).items():
        assert np.array_equal(value, getattr(want, field)), field
