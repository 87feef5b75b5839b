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
    EmptyDatasetError,
    EstimationError,
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
        if not 0 <= self.regularization < np.inf:
            raise ValueError("regularization must be finite and nonnegative")
        if self.kind == SVM and self.num_classes < 2:
            raise ValueError("num_classes must be >= 2 for svm")

    @property
    def curvature(self) -> float:
        """The Lipschitz constant of a per-point loss's derivative in its
        margin: 1 for 0.5*z^2 (ridge), 2 for max(0, z)^2 (svm)."""
        return 2.0 if self.kind == SVM else 1.0

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

    def check_points(self, W) -> np.ndarray:
        """A (P, model_dim) stack of model vectors."""
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2 or W.shape[1] != self.model_dim:
            raise DimensionMismatchError(
                f"model vectors shape {W.shape} != (points, {self.model_dim})")
        return W

    def check_dataset(self, dataset: Dataset) -> None:
        if dataset.feature_dim != self.feature_dim:
            raise DimensionMismatchError(
                f"dataset feature dim {dataset.feature_dim} != {self.feature_dim}"
            )
        if self.kind == SVM:
            labs = dataset.labels
            if ((labs < 0) | (labs >= self.num_classes) | (labs != np.round(labs))).any():
                raise ValueError(
                    "num_classes: svm labels must be integers in [0, num_classes)")


def _targets(model: LossModel, labels: np.ndarray) -> np.ndarray:
    """What the kernel fits per point: the label (ridge) or a row of +-1 targets (svm)."""
    if model.kind == RIDGE:
        return labels
    targets = np.full((labels.size, model.num_classes), -1.0)
    targets[np.arange(labels.size), labels.astype(int)] = 1.0
    return targets


def _svm_margins(model: LossModel, X: np.ndarray, targets: np.ndarray,
                 W: np.ndarray) -> np.ndarray:
    """max(0, 1 - t * x.w_s) per point and class, computed in one buffer; the
    GEMM is faster on a contiguous copy of the transposed blocks, same bits."""
    blocks = W.reshape(W.shape[:-1] + (model.num_classes, model.feature_dim))
    margins = X @ np.ascontiguousarray(np.swapaxes(blocks, -1, -2))
    np.multiply(targets, margins, out=margins)
    np.subtract(1.0, margins, out=margins)
    return np.maximum(0.0, margins, out=margins)


def _dots(V: np.ndarray) -> np.ndarray:
    """v.v of every vector along the last axis, by the dot product of a 1-d call."""
    V = np.ascontiguousarray(V)
    return (V[..., None, :] @ V[..., :, None])[..., 0, 0]


def norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every vector along the last axis, bit for bit."""
    return np.sqrt(_dots(V))


def _gradients(model: LossModel, X: np.ndarray, targets: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """The gradient kernel: objective gradient over the rows of X at W.

    X is (..., n, m), targets (..., n) or (..., n, C) and W (..., M); the
    leading axes broadcast. ``np.matmul`` runs one GEMM per stacked slice
    with the shapes of the single-device call, so a slice of a stacked
    result equals the 2-d call bit for bit.
    """
    n = X.shape[-2]
    if model.kind == RIDGE:
        resid = (X @ W[..., None])[..., 0] - targets
        grad = (np.swapaxes(X, -1, -2) @ resid[..., None])[..., 0] / n
    else:
        coeff = _svm_margins(model, X, targets, W)
        np.multiply(targets, coeff, out=coeff)
        np.multiply(-2.0, coeff, out=coeff)
        grad = np.swapaxes(coeff, -1, -2) @ X / n
        grad = grad.reshape(grad.shape[:-2] + (model.model_dim,))
    return grad + model.regularization * W


def _losses(model: LossModel, X: np.ndarray, targets: np.ndarray,
            W: np.ndarray) -> np.ndarray:
    """The objective over the rows of X at W, stacked like ``_gradients``."""
    n = X.shape[-2]
    if model.kind == RIDGE:
        data_term = 0.5 * _dots((X @ W[..., None])[..., 0] - targets) / n
    else:
        sq = _svm_margins(model, X, targets, W)
        np.multiply(sq, sq, out=sq)
        data_term = np.sum(sq.reshape(sq.shape[:-2] + (-1,)), axis=-1) / n
    return data_term + 0.5 * model.regularization * _dots(W)


def loss(model: LossModel, dataset: Dataset, w: np.ndarray) -> float:
    """Mean per-point loss plus the L2 term: the device objective."""
    w = model.check_vector(w)
    model.check_dataset(dataset)
    require_nonempty(dataset, "loss")
    return float(_losses(model, dataset.features, _targets(model, dataset.labels), w))


def full_gradient(model: LossModel, dataset: Dataset, w: np.ndarray) -> np.ndarray:
    """Exact gradient of ``loss`` at w."""
    w = model.check_vector(w)
    model.check_dataset(dataset)
    require_nonempty(dataset, "full_gradient")
    return _gradients(model, dataset.features, _targets(model, dataset.labels), w)


def minibatch(keys: np.ndarray, batch_size: int) -> np.ndarray:
    """The minibatch of one uniform key per point: the positions of the
    ``batch_size`` smallest keys along the last axis, in key order, equal
    keys in point order; bit for bit ``np.argsort(keys, axis=-1,
    kind="stable")[..., :batch_size]``.

    Every row is sorted with numpy's default (unstable, SIMD where the host
    has it) argsort. A row whose first ``batch_size + 1`` sorted keys rise
    strictly has distinct smallest keys, all below the rest, so any sort
    picks the same positions in the same order; every other row (a tie, or
    a NaN, at or below the cut) is sorted again stably. The result thus
    does not depend on which sort kernel numpy dispatches to.
    """
    order = np.argsort(keys, axis=-1)
    head = np.take_along_axis(keys, order[..., :batch_size + 1], axis=-1)
    tied = ~np.all(head[..., 1:] > head[..., :-1], axis=-1)
    if tied.any():
        order[tied] = np.argsort(keys[tied], axis=-1, kind="stable")
    return order[..., :batch_size]


def stochastic_gradient(model: LossModel, dataset: Dataset, w: np.ndarray,
                        batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Mean gradient over a uniform without-replacement minibatch.

    The minibatch is the ``batch_size`` smallest of n keys drawn with
    ``rng.random(n)`` (``minibatch``), the rule the engine applies to each
    device's stream. Unbiased for ``full_gradient``; bit-reproducible given
    the generator state. ``batch_size == n`` returns the full gradient
    exactly and draws nothing.
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
    idx = minibatch(rng.random(dataset.n), batch_size)
    return full_gradient(model, dataset.subset(idx), w)


# largest kernel temporary a stacked call builds, in float64 elements
CHUNK_ELEMENTS = 32768


class DeviceStack:
    """Every device's data stored once, stacked for the batched kernel.

    Rows are stored device after device, the devices sorted by point count,
    so each group of equal ``n`` is one ``(G, n, m)`` block: nothing is
    padded. A loss model's layout, its kernel targets (the labels, or the
    +-1 rows of the svm) and their block views, is built and the data
    checked once per model. Every method runs ``_gradients`` (or
    ``_losses``) on whole blocks, and slice i of a result equals the
    single-device call for device i bit for bit. Model vectors come
    checked: per call by the fleet's public functions, once by ``Protocol``.
    """

    def __init__(self, datasets: Sequence[Dataset]):
        dims = sorted({ds.feature_dim for ds in datasets})
        if len(dims) > 1:
            raise DimensionMismatchError(f"devices hold feature dims {dims}")
        self.counts = np.array([ds.n for ds in datasets], dtype=np.int64)
        order = np.argsort(self.counts, kind="stable")
        self.features = np.concatenate([datasets[i].features for i in order])
        self.labels = np.concatenate([datasets[i].labels for i in order])
        self.offsets = np.empty_like(self.counts)
        self.offsets[order] = np.cumsum(self.counts[order]) - self.counts[order]
        self.groups = []            # (device ids, first row, points per device)
        for n in sorted(set(self.counts.tolist())):   # np.unique would import numpy.ma
            devices = order[self.counts[order] == n]
            self.groups.append((devices, int(self.offsets[devices[0]]), n))
        # every device's first row and the fewest points, the default minibatch rows
        self._every_device = (self.offsets[:, None], int(self.counts.min()))
        self._layouts: dict = {}

    @property
    def num_devices(self) -> int:
        return self.counts.size

    def datasets(self) -> tuple[Dataset, ...]:
        """One Dataset per device, each a view of its rows."""
        return tuple(Dataset(self.features[o:o + n], self.labels[o:o + n])
                     for o, n in zip(self.offsets.tolist(), self.counts.tolist()))

    def layout(self, model: LossModel):
        """(targets, blocks) of ``model``, built on first use: the kernel targets
        of every row, and (device ids, (G, n, m) features, targets) blocks of
        at most CHUNK_ELEMENTS targets."""
        if model not in self._layouts:
            self._layouts[model] = self._build_layout(model)
        return self._layouts[model]

    def _build_layout(self, model: LossModel):
        model.check_dataset(Dataset(self.features, self.labels))
        if (self.counts == 0).any():
            raise EmptyDatasetError(f"device {int(np.argmin(self.counts))}: dataset is empty")
        targets = _targets(model, self.labels)
        width = targets[:1].size
        blocks = []
        for devices, first, n in self.groups:
            per_block = max(1, CHUNK_ELEMENTS // (n * width))
            for s in range(0, devices.size, per_block):
                block = devices[s:s + per_block]
                rows = slice(first + s * n, first + (s + block.size) * n)
                blocks.append((block, self.features[rows].reshape(block.size, n, -1),
                               targets[rows].reshape((block.size, n) + targets.shape[1:])))
        return targets, tuple(blocks)

    def points_per_chunk(self, model: LossModel) -> int:
        """Points per ``gradients`` call for a caller that sums and differences
        the (P, D, M) result: its few arrays of that shape fit one budget."""
        return max(1, CHUNK_ELEMENTS // (4 * self.num_devices * model.model_dim))

    def gradients(self, model: LossModel, W: np.ndarray) -> np.ndarray:
        """(P, M) points -> (P, D, M): the gradient of every device at every point."""
        out = np.empty((W.shape[0], self.num_devices, model.model_dim))
        for devices, X, targets in self.layout(model)[1]:
            step = max(1, CHUNK_ELEMENTS // targets.size)   # points per kernel call
            for s in range(0, W.shape[0], step):
                out[s:s + step, devices] = _gradients(model, X, targets, W[s:s + step, None])
        return out

    def own_gradients(self, model: LossModel, W: np.ndarray) -> np.ndarray:
        """(D, M) -> (D, M): the gradient of device i at its own point W[i]."""
        out = np.empty_like(W)
        for devices, X, targets in self.layout(model)[1]:
            out[devices] = _gradients(model, X, targets, W[devices])
        return out

    def minibatch_gradients(self, model: LossModel, W, idx, devices=None) -> np.ndarray:
        """(k, M) points and (k, b) point indices -> (k, M) minibatch gradients.

        Row j is the gradient of device ``devices[j]`` (default: device j)
        over its points ``idx[j]`` at ``W[j]``, the value of
        ``full_gradient`` on ``dataset.subset(idx[j])``.
        """
        targets = self.layout(model)[0]
        idx = np.asarray(idx, dtype=np.int64)
        first_rows, smallest = self._every_device if devices is None else (
            self.offsets[devices, None], int(self.counts[devices].min(initial=idx.shape[1])))
        if not 1 <= idx.shape[1] <= smallest:
            raise BatchSizeError(f"batch_size {idx.shape[1]} outside [1, {smallest}]")
        rows = first_rows + idx
        return _gradients(model, self.features.take(rows, axis=0),
                          targets.take(rows, axis=0), W)

    def losses(self, model: LossModel, W: np.ndarray) -> np.ndarray:
        """(..., M) points -> (..., D): the objective of every device at every point."""
        points = W.reshape(-1, W.shape[-1])
        out = np.empty((points.shape[0], self.num_devices))
        for devices, X, targets in self.layout(model)[1]:
            step = max(1, CHUNK_ELEMENTS // targets.size)   # points per kernel call
            for s in range(0, points.shape[0], step):
                out[s:s + step, devices] = _losses(model, X, targets, points[s:s + step, None])
        return out.reshape(W.shape[:-1] + (self.num_devices,))


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * values[i], added one term at a time from zero."""
    products = weights.reshape(weights.shape + (1,) * (values.ndim - 1)) * values
    # 0.0 + the running sum: the loop's start at zero, which makes an all -0.0 sum 0.0
    return 0.0 + np.add.accumulate(products, axis=0)[-1]


def second_moment(datasets: Sequence[Dataset], weights) -> np.ndarray:
    """sum_i weights[i] * X_i'X_i / n_i: the pooled second moment of the
    features, added dataset by dataset; a non-finite one is refused."""
    pooled = np.zeros((datasets[0].feature_dim,) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for wt, ds in zip(weights, datasets):
            pooled += wt * (ds.features.T @ ds.features) / ds.n
    if not np.isfinite(pooled).all():
        raise EstimationError("features: their pooled second moment is not finite")
    return pooled


def smoothness(model: LossModel, pooled: np.ndarray, weight_sum: float) -> float:
    """A Lipschitz constant of the gradient of sum_i w_i * (device i's
    objective), for nonnegative weights w summing to ``weight_sum`` and
    ``pooled = second_moment(datasets, w)``.

    The ridge Hessian is pooled + reg*weight_sum. The derivative of
    max(0, z)^2 is 2-Lipschitz, so each svm class block of the gradient
    moves by at most 2*pooled (its active-set Hessian is below 2*X'X/n):
    the bound is ``model.curvature * lambda_max(pooled) + reg*weight_sum``.
    """
    return model.curvature * float(np.linalg.eigvalsh(pooled)[-1]) \
        + model.regularization * weight_sum


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
        H = second_moment(datasets, weights)
        b = np.zeros(model.feature_dim)
        for wt, ds in zip(weights, datasets):
            b += wt * (ds.features.T @ ds.labels) / ds.n
        H[np.diag_indices_from(H)] += model.regularization * float(np.sum(weights))
        return np.linalg.solve(H, b)

    lipschitz = smoothness(model, second_moment(datasets, weights), float(np.sum(weights)))

    stack = DeviceStack(datasets)

    def objective(w):
        return float(_weighted_sum(weights, stack.losses(model, w)))

    def gradient(w):
        return _weighted_sum(weights, stack.gradients(model, w[None])[0])

    w = np.zeros(model.model_dim)
    grad = gradient(w)
    tol = GRAD_TOL * max(1.0, float(np.linalg.norm(grad)))
    value = objective(w)
    step = 1.0 / lipschitz
    for _ in range(max_iter):
        gnorm2 = float(grad @ grad)
        if np.sqrt(gnorm2) <= tol:
            return w
        # the 1/L step always descends; backtrack only if numerics disagree
        cand = w - step * grad
        cand_value = objective(cand)
        while cand_value > value + 4.0 * np.finfo(np.float64).eps * abs(value) \
                and step > 1e-18 / lipschitz:
            step *= 0.5
            cand = w - step * grad
            cand_value = objective(cand)
        w, value = cand, cand_value
        grad = gradient(w)
    raise ConvergenceError(
        f"optimum solver exhausted {max_iter} iterations, "
        f"final gradient norm {np.linalg.norm(grad):.3e} > {tol:.3e}"
    )
