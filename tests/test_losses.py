"""Loss models: values, gradients, optimum solver, contraction property."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import config, losses
from dflsim.data import Dataset
from dflsim.errors import (
    BatchSizeError,
    ConvergenceError,
    DimensionMismatchError,
    EmptyDatasetError,
)
from dflsim.losses import (
    GRAD_TOL,
    RIDGE,
    SVM,
    DeviceStack,
    LossModel,
    _sum_in_order,
    full_gradient,
    loss,
    second_moment,
    smoothness,
    solve_optimum,
    stochastic_gradient,
)
from dflsim.netcost import stream


def ridge(m, reg=0.0):
    return LossModel(RIDGE, feature_dim=m, regularization=reg)


def test_ridge_zero_residual():
    ds = Dataset([[1.0, 0.0]], [0.0])
    assert loss(ridge(2), ds, np.zeros(2)) == 0.0


def test_ridge_single_point_value():
    ds = Dataset([[1.0, 0.0]], [2.0])
    assert loss(ridge(2), ds, np.zeros(2)) == pytest.approx(2.0, abs=1e-15)


def test_svm_toy_value_matches_pointwise_evaluation():
    # independent scalar-by-scalar evaluation of the squared hinge
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.3, -0.2]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    model = LossModel(SVM, feature_dim=2, regularization=0.0, num_classes=2)
    w = np.array([0.4, -0.3, 0.1, 0.25])
    expected = 0.0
    for p in range(4):
        for cls in range(2):
            target = 1.0 if cls == int(y[p]) else -1.0
            score = w[cls * 2] * X[p, 0] + w[cls * 2 + 1] * X[p, 1]
            expected += max(0.0, 1.0 - target * score) ** 2
    expected /= 4
    assert loss(model, Dataset(X, y), w) == pytest.approx(expected, rel=1e-14)

    at_zero = loss(model, Dataset(X, y), np.zeros(4))
    assert at_zero == pytest.approx(2.0, rel=1e-14)  # every margin is exactly 1


def test_gradient_single_point_hand_derivative():
    ds = Dataset([[1.0, 0.0]], [2.0])
    grad = full_gradient(ridge(2), ds, np.zeros(2))
    np.testing.assert_allclose(grad, [-2.0, 0.0], atol=1e-15)


def test_gradient_zero_at_least_squares_solution(rng):
    X = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    w_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    grad = full_gradient(ridge(4), Dataset(X, y), w_ls)
    assert np.linalg.norm(grad) < 1e-10


@pytest.mark.parametrize("kind", [RIDGE, SVM])
def test_gradient_matches_finite_differences(kind, rng):
    if kind == RIDGE:
        model = ridge(3, reg=0.05)
        ds = Dataset(rng.standard_normal((12, 3)), rng.standard_normal(12))
    else:
        model = LossModel(SVM, feature_dim=3, regularization=0.05, num_classes=3)
        ds = Dataset(rng.standard_normal((12, 3)), rng.integers(0, 3, 12).astype(float))
    w = rng.standard_normal(model.model_dim)
    grad = full_gradient(model, ds, w)
    h = 1e-6
    for j in range(model.model_dim):
        e = np.zeros(model.model_dim)
        e[j] = h
        fd = (loss(model, ds, w + e) - loss(model, ds, w - e)) / (2 * h)
        denom = max(abs(fd), 1.0)
        assert abs(grad[j] - fd) / denom < 1e-5


def test_stochastic_full_batch_is_exact(rng):
    ds = Dataset(rng.standard_normal((8, 2)), rng.standard_normal(8))
    w = rng.standard_normal(2)
    got = stochastic_gradient(ridge(2, 0.1), ds, w, 8, np.random.default_rng(0))
    np.testing.assert_array_equal(got, full_gradient(ridge(2, 0.1), ds, w))


def test_stochastic_same_stream_bit_identical(rng):
    ds = Dataset(rng.standard_normal((20, 3)), rng.standard_normal(20))
    w = rng.standard_normal(3)
    a = stochastic_gradient(ridge(3), ds, w, 4, stream(9, 1, 2, 3))
    b = stochastic_gradient(ridge(3), ds, w, 4, stream(9, 1, 2, 3))
    np.testing.assert_array_equal(a, b)


def test_stochastic_unbiased_monte_carlo():
    ds = Dataset([[1.0], [2.0]], [1.0, -1.0])
    model = ridge(1)
    w = np.array([0.5])
    exact = full_gradient(model, ds, w)
    gen = np.random.default_rng(77)
    draws = np.array([
        stochastic_gradient(model, ds, w, 1, gen)[0] for _ in range(10_000)
    ])
    stderr = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact[0]) < 3.0 * stderr


def test_stochastic_batch_size_errors(rng):
    ds = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
    with pytest.raises(BatchSizeError):
        stochastic_gradient(ridge(2), ds, np.zeros(2), 0, np.random.default_rng(0))
    with pytest.raises(BatchSizeError):
        stochastic_gradient(ridge(2), ds, np.zeros(2), 6, np.random.default_rng(0))


def test_dimension_and_empty_errors():
    ds = Dataset([[1.0, 0.0]], [1.0])
    with pytest.raises(DimensionMismatchError):
        loss(ridge(2), ds, np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        loss(ridge(3), ds, np.zeros(3))
    with pytest.raises(EmptyDatasetError):
        loss(ridge(2), Dataset(np.zeros((0, 2)), np.zeros(0)), np.zeros(2))


def test_optimum_two_point_hand_solve():
    ds = Dataset([[1.0], [1.0]], [1.0, 3.0])
    w = solve_optimum(ridge(1), DeviceStack([ds]), [1.0])
    np.testing.assert_allclose(w, [2.0], rtol=1e-12)


def test_optimum_regularized_single_point():
    lam = 0.7
    ds = Dataset([[1.0]], [5.0])
    w = solve_optimum(ridge(1, reg=lam), DeviceStack([ds]), [1.0])
    np.testing.assert_allclose(w, [5.0 / (1 + lam)], rtol=1e-12)


@pytest.mark.parametrize("kind", [RIDGE, SVM])
def test_optimum_gradient_norm_postcondition(kind, rng):
    if kind == RIDGE:
        model = ridge(3, reg=0.2)
        datasets = [Dataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
                    for _ in range(3)]
    else:
        model = LossModel(SVM, feature_dim=2, regularization=0.1, num_classes=3)
        datasets = [Dataset(rng.standard_normal((15, 2)),
                            rng.integers(0, 3, 15).astype(float))
                    for _ in range(2)]
    weights = np.array([0.5, 0.3, 0.2])[: len(datasets)]
    weights = weights / weights.sum()
    w_star = solve_optimum(model, DeviceStack(datasets), weights)
    grad = np.zeros(model.model_dim)
    for wt, ds in zip(weights, datasets):
        grad += wt * full_gradient(model, ds, w_star)
    grad0 = np.zeros(model.model_dim)
    for wt, ds in zip(weights, datasets):
        grad0 += wt * full_gradient(model, ds, np.zeros(model.model_dim))
    assert np.linalg.norm(grad) <= 1e-10 * max(1.0, np.linalg.norm(grad0))


def two_call_optimum(model, datasets, weights, max_iter=200_000):
    """The svm optimum's descent with the objective and the gradient of each iterate
    taken from their own ``DeviceStack`` calls: the reference of ``solve_optimum``."""
    stack = DeviceStack(datasets)
    weights = np.asarray(weights, dtype=np.float64)

    def objective(w):
        return float(_sum_in_order((weights * stack.losses(model, w))[:, None])[0])

    def gradient(w):
        return _sum_in_order(weights[:, None] * stack.gradients(model, w[None])[0])

    lipschitz = smoothness(model, second_moment(datasets, weights), float(np.sum(weights)))
    w = np.zeros(model.model_dim)
    grad = gradient(w)
    tol = GRAD_TOL * max(1.0, float(np.linalg.norm(grad)))
    value, step = objective(w), 1.0 / lipschitz
    for _ in range(max_iter):
        if np.sqrt(float(grad @ grad)) <= tol:
            return w
        cand = w - step * grad
        cand_value = objective(cand)
        while cand_value > value + 4.0 * np.finfo(np.float64).eps * abs(value) \
                and step > 1e-18 / lipschitz:
            step *= 0.5
            cand = w - step * grad
            cand_value = objective(cand)
        w, value = cand, cand_value
        grad = gradient(w)
    raise AssertionError("the reference descent did not converge")


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_svm_optimum_equals_the_two_call_descent(seed, counts):
    # unequal datasets, weights not proportional to their sizes
    gen = np.random.default_rng(seed)
    dim, classes = int(gen.integers(1, 4)), int(gen.integers(2, 5))
    model = LossModel(SVM, feature_dim=dim, regularization=float(gen.uniform(0.05, 0.5)),
                      num_classes=classes)
    datasets = [Dataset(gen.standard_normal((n, dim)), gen.integers(0, classes, n).astype(float))
                for n in counts]
    weights = gen.uniform(0.1, 1.0, len(counts))
    weights /= weights.sum()
    want = two_call_optimum(model, datasets, weights)
    assert np.array_equal(solve_optimum(model, DeviceStack(datasets), weights), want)


def adaptive_demo_fleet():
    """The svm fleet of ``configs/adaptive_demo.json`` and its model."""
    blob = json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / "adaptive_demo.json").read_text())
    cfg = config.parse_config(blob)
    return cfg.fleet, cfg.model


def test_an_underestimated_smoothness_backtracks_to_the_optimum(monkeypatch):
    # a fifth of the bound: the first 5/L step overshoots, and the halved steps find
    # the optimum the 1/L steps find, within the gradient tolerance
    fleet, model = adaptive_demo_fleet()
    want = fleet.optimum(model)
    bound, sum_in_order, objectives = losses.smoothness, losses._sum_in_order, []

    def recorded(terms):
        total = sum_in_order(terms)
        if terms.shape[-1] == 1:      # (D, 1) weighted losses: one iterate's objective
            objectives.append(float(total[0]))
        return total

    monkeypatch.setattr(losses, "smoothness", lambda *args: bound(*args) / 5)
    monkeypatch.setattr(losses, "_sum_in_order", recorded)
    got = fleet.optimum(model)
    monkeypatch.undo()
    # a rejected candidate: an objective above the one before it, well beyond rounding
    assert any(b > a * (1 + 1e-9) for a, b in zip(objectives, objectives[1:]))
    grad0 = fleet.global_gradient(model, np.zeros(model.model_dim))
    assert np.linalg.norm(fleet.global_gradient(model, got)) \
        <= GRAD_TOL * max(1.0, np.linalg.norm(grad0))
    assert np.abs(got - want).max() <= 1e-8


def test_an_optimum_out_of_iterations_names_its_final_gradient_norm(monkeypatch):
    # one step of 1/L from zero, then ConvergenceError with the gradient norm there
    fleet, model = adaptive_demo_fleet()
    weights = fleet.global_weights()
    grad0 = fleet.global_gradient(model, np.zeros(model.model_dim))
    lipschitz = smoothness(model, second_moment(fleet.datasets, weights), float(weights.sum()))
    final = np.linalg.norm(fleet.global_gradient(model, -grad0 / lipschitz))
    tol = GRAD_TOL * max(1.0, float(np.linalg.norm(grad0)))
    monkeypatch.setattr(losses, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=re.escape(
            f"exhausted 1 iterations, final gradient norm {final:.3e} > {tol:.3e}")):
        fleet.optimum(model)


# -- landscape properties ----------------------------------------------------


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_ridge_secant_between_extreme_eigenvalues(seed):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((10, 3))
    reg = float(gen.uniform(0.01, 1.0))
    ds = Dataset(X, gen.standard_normal(10))
    model = ridge(3, reg)
    H = X.T @ X / 10 + reg * np.eye(3)
    eigs = np.linalg.eigvalsh(H)
    w1, w2 = gen.standard_normal(3), gen.standard_normal(3)
    num = np.linalg.norm(full_gradient(model, ds, w1) - full_gradient(model, ds, w2))
    den = np.linalg.norm(w1 - w2)
    ratio = num / den
    assert eigs[0] - 1e-9 * eigs[0] <= ratio <= eigs[-1] + 1e-9 * eigs[-1]


@given(seed=st.integers(0, 10_000), frac=st.floats(0.01, 1.0))
@settings(max_examples=60)
def test_gradient_step_contraction(seed, frac):
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((8, 3))
    reg = float(gen.uniform(0.05, 1.0))
    ds = Dataset(X, gen.standard_normal(8))
    model = ridge(3, reg)
    eigs = np.linalg.eigvalsh(X.T @ X / 8 + reg * np.eye(3))
    mu, beta = eigs[0], eigs[-1]
    eta = frac * 2.0 / (mu + beta)
    w1, w2 = gen.standard_normal(3), gen.standard_normal(3)
    moved = (w1 - w2) - eta * (full_gradient(model, ds, w1) - full_gradient(model, ds, w2))
    slack = (1 - mu * eta) * np.linalg.norm(w1 - w2) - np.linalg.norm(moved)
    assert slack >= -1e-12


@given(st.integers(1, 12), st.sampled_from([(), (1,), (3,)]), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 1.0]))
def test_weighted_sum_equals_the_loop_from_zero(devices, shape, seed, zeros):
    # the solver's objective (D,) and gradient (D, M) sums, with planted -0.0
    # terms: an all -0.0 sum is 0.0, as the loop's start at zero makes it
    gen = np.random.default_rng(seed)
    weights = gen.uniform(0.0, 1.0, devices)
    values = gen.standard_normal((devices,) + shape)
    values[gen.random(values.shape) < zeros] = -0.0
    want = np.zeros(shape)
    for wt, value in zip(weights, values):
        want += wt * value
    got = _sum_in_order(weights[:, None] * values.reshape(devices, -1)).reshape(shape)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
