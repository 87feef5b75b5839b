"""Convex loss models with exact and stochastic gradients.

Two families:

* ``ridge``: per-point loss 0.5*(y - w.x)^2 on an m-dimensional weight
  vector.
* ``svm``: one-vs-all multiclass squared hinge. Per-class weight blocks are
  flattened into a single vector of length m*num_classes; the per-point
  loss is sum_s max(0, 1 - t_s * w_s.x)^2 with t_s = +1 for the true class
  and -1 otherwise.

Every per-point loss additionally carries 0.5*reg*||w||^2, so any weighted
mixture of device objectives is reg-strongly convex and the stochastic
gradient stays unbiased for the full gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, require_nonempty
from .errors import (
    BatchSizeError,
    ConvergenceError,
    DimensionMismatchError,
)

RIDGE = "ridge"
SVM = "svm"


@dataclass(frozen=True)
class LossModel:
    kind: str
    feature_dim: int
    regularization: float
    num_classes: int = 1

    def __post_init__(self):
        if self.kind not in (RIDGE, SVM):
            raise ValueError(f"kind: expected {RIDGE!r} or {SVM!r}, got {self.kind!r}")
        if self.regularization < 0:
            raise ValueError("regularization must be nonnegative")
        if self.kind == SVM and self.num_classes < 2:
            raise ValueError("num_classes must be >= 2 for svm")

    @property
    def model_dim(self) -> int:
        if self.kind == SVM:
            return self.feature_dim * self.num_classes
        return self.feature_dim

    def check_vector(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.model_dim,):
            raise DimensionMismatchError(
                f"model vector shape {w.shape} != ({self.model_dim},)"
            )
        return w

    def check_dataset(self, dataset: Dataset) -> None:
        if dataset.feature_dim != self.feature_dim:
            raise DimensionMismatchError(
                f"dataset feature dim {dataset.feature_dim} != {self.feature_dim}"
            )
        if self.kind == SVM:
            labs = dataset.labels
            if ((labs < 0) | (labs >= self.num_classes) | (labs != np.round(labs))).any():
                raise ValueError("svm labels must be integers in [0, num_classes)")


def _svm_margins(model: LossModel, X: np.ndarray, y: np.ndarray, w: np.ndarray):
    W = w.reshape(model.num_classes, model.feature_dim)
    scores = X @ W.T                                   # (n, C)
    targets = np.full_like(scores, -1.0)
    targets[np.arange(X.shape[0]), y.astype(int)] = 1.0
    margins = np.maximum(0.0, 1.0 - targets * scores)  # (n, C)
    return W, targets, margins


def loss(model: LossModel, dataset: Dataset, w: np.ndarray) -> float:
    """Mean per-point loss plus the L2 term: the device objective."""
    w = model.check_vector(w)
    model.check_dataset(dataset)
    require_nonempty(dataset, "loss")
    X, y = dataset.features, dataset.labels
    if model.kind == RIDGE:
        resid = X @ w - y
        data_term = 0.5 * float(resid @ resid) / dataset.n
    else:
        _, _, margins = _svm_margins(model, X, y, w)
        data_term = float(np.sum(margins * margins)) / dataset.n
    return data_term + 0.5 * model.regularization * float(w @ w)


def full_gradient(model: LossModel, dataset: Dataset, w: np.ndarray) -> np.ndarray:
    """Exact gradient of ``loss`` at w."""
    w = model.check_vector(w)
    model.check_dataset(dataset)
    require_nonempty(dataset, "full_gradient")
    X, y = dataset.features, dataset.labels
    if model.kind == RIDGE:
        grad = X.T @ (X @ w - y) / dataset.n
    else:
        _, targets, margins = _svm_margins(model, X, y, w)
        grad = (-2.0 * (targets * margins)).T @ X / dataset.n
        grad = grad.reshape(-1)
    return grad + model.regularization * w


def point_gradients(model: LossModel, dataset: Dataset, w: np.ndarray) -> np.ndarray:
    """Per-point gradients, one row per data point (includes the L2 term)."""
    w = model.check_vector(w)
    model.check_dataset(dataset)
    require_nonempty(dataset, "point_gradients")
    X, y = dataset.features, dataset.labels
    if model.kind == RIDGE:
        grads = (X @ w - y)[:, None] * X
    else:
        _, targets, margins = _svm_margins(model, X, y, w)
        coeff = -2.0 * (targets * margins)             # (n, C)
        grads = coeff[:, :, None] * X[:, None, :]      # (n, C, m)
        grads = grads.reshape(dataset.n, -1)
    return grads + model.regularization * w[None, :]


def stochastic_gradient(model: LossModel, dataset: Dataset, w: np.ndarray,
                        batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Mean gradient over a uniform without-replacement minibatch.

    Unbiased for ``full_gradient``; bit-reproducible given the generator
    state. ``batch_size == n`` returns the full gradient exactly.
    """
    model.check_vector(w)
    model.check_dataset(dataset)
    require_nonempty(dataset, "stochastic_gradient")
    if not 1 <= batch_size <= dataset.n:
        raise BatchSizeError(
            f"batch_size {batch_size} outside [1, {dataset.n}]"
        )
    if batch_size == dataset.n:
        return full_gradient(model, dataset, w)
    idx = rng.choice(dataset.n, size=batch_size, replace=False)
    return full_gradient(model, dataset.subset(idx), w)


def weighted_loss(model: LossModel, datasets: Sequence[Dataset],
                  weights: np.ndarray, w: np.ndarray) -> float:
    weights = np.asarray(weights, dtype=np.float64)
    return float(sum(wt * loss(model, ds, w) for wt, ds in zip(weights, datasets)))


def weighted_gradient(model: LossModel, datasets: Sequence[Dataset],
                      weights: np.ndarray, w: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    out = np.zeros(model.model_dim)
    for wt, ds in zip(weights, datasets):
        out += wt * full_gradient(model, ds, w)
    return out


GRAD_TOL = 1e-10


def solve_optimum(model: LossModel, datasets: Sequence[Dataset] | Dataset,
                  weights: Sequence[float] | None = None,
                  max_iter: int = 200_000) -> np.ndarray:
    """High-precision minimizer of the weighted objective.

    Ridge uses the normal equations directly. The squared-hinge model is
    solved by full-batch gradient descent with backtracking line search.
    Terminates when ||grad|| <= 1e-10 * max(1, ||grad(0)||); raises
    ConvergenceError (reporting the final gradient norm) on budget
    exhaustion.
    """
    if isinstance(datasets, Dataset):
        datasets = [datasets]
    if weights is None:
        sizes = np.array([ds.n for ds in datasets], dtype=np.float64)
        weights = sizes / sizes.sum()
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(datasets):
        raise DimensionMismatchError("one weight per dataset required")

    if model.kind == RIDGE:
        m = model.feature_dim
        H = np.zeros((m, m))
        b = np.zeros(m)
        for wt, ds in zip(weights, datasets):
            H += wt * (ds.features.T @ ds.features) / ds.n
            b += wt * (ds.features.T @ ds.labels) / ds.n
        H[np.diag_indices_from(H)] += model.regularization * float(np.sum(weights))
        return np.linalg.solve(H, b)

    # exact smoothness bound: active-set Hessian blocks are below 2*X'X/n
    pooled = np.zeros((model.feature_dim, model.feature_dim))
    for wt, ds in zip(weights, datasets):
        pooled += wt * (ds.features.T @ ds.features) / ds.n
    lipschitz = 2.0 * float(np.linalg.eigvalsh(pooled)[-1]) \
        + model.regularization * float(np.sum(weights))

    w = np.zeros(model.model_dim)
    grad = weighted_gradient(model, datasets, weights, w)
    tol = GRAD_TOL * max(1.0, float(np.linalg.norm(grad)))
    value = weighted_loss(model, datasets, weights, w)
    step = 1.0 / lipschitz
    for _ in range(max_iter):
        gnorm2 = float(grad @ grad)
        if np.sqrt(gnorm2) <= tol:
            return w
        # the 1/L step always descends; backtrack only if numerics disagree
        cand = w - step * grad
        cand_value = weighted_loss(model, datasets, weights, cand)
        while cand_value > value + 4.0 * np.finfo(np.float64).eps * abs(value) \
                and step > 1e-18 / lipschitz:
            step *= 0.5
            cand = w - step * grad
            cand_value = weighted_loss(model, datasets, weights, cand)
        w, value = cand, cand_value
        grad = weighted_gradient(model, datasets, weights, w)
    raise ConvergenceError(
        f"optimum solver exhausted {max_iter} iterations, "
        f"final gradient norm {np.linalg.norm(grad):.3e} > {tol:.3e}"
    )
