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
    margins = X @ np.ascontiguousarray(blocks.swapaxes(-1, -2))
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
               W: np.ndarray, margins: np.ndarray | None = None) -> np.ndarray:
    """The gradient kernel: objective gradient over the rows of X at W.

    X is (..., n, m), targets (..., n) or (..., n, C) and W (..., M); the
    leading axes broadcast. ``np.matmul`` runs one GEMM per stacked slice
    with the shapes of the single-device call, so a slice of a stacked
    result equals the 2-d call bit for bit. An svm caller may hand in the
    ``_svm_margins`` of these arguments, which are overwritten.
    """
    n = X.shape[-2]
    if model.kind == RIDGE:
        resid = (X @ W[..., None])[..., 0] - targets
        grad = (X.swapaxes(-1, -2) @ resid[..., None])[..., 0] / n
    else:
        coeff = _svm_margins(model, X, targets, W) if margins is None else margins
        np.multiply(targets, coeff, out=coeff)
        np.multiply(-2.0, coeff, out=coeff)
        grad = coeff.swapaxes(-1, -2) @ X / n
        grad = grad.reshape(grad.shape[:-2] + (model.model_dim,))
    return grad + model.regularization * W


def _losses(model: LossModel, X: np.ndarray, targets: np.ndarray,
            W: np.ndarray, margins: np.ndarray | None = None) -> np.ndarray:
    """The objective over the rows of X at W, stacked like ``_gradients``, and
    like it overwriting the svm ``margins`` it is handed."""
    n = X.shape[-2]
    if model.kind == RIDGE:
        data_term = 0.5 * _dots((X @ W[..., None])[..., 0] - targets) / n
    else:
        sq = _svm_margins(model, X, targets, W) if margins is None else margins
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


# low bits of a raw PCG64 draw that ``Generator.random`` drops: (draw >> 11) * 2**-53
POINT_BITS = 11


def smallest_draws(draws: np.ndarray, batch_size: int) -> np.ndarray:
    """The minibatch of one raw uint64 PCG64 draw per point: the positions of
    the ``batch_size`` smallest keys ``draws >> 11`` along the last axis, in key
    order, equal keys in point order; bit for bit ``np.argsort(draws >> 11,
    axis=-1, kind="stable")[..., :batch_size]``. Overwrites ``draws``.

    A row of n <= 2**11 points becomes ``(draw & ~0x7FF) | point``: distinct
    integers in exactly that order, so after one in-place sort of every row,
    whatever kernel numpy dispatches to, the low bits of its first
    ``batch_size`` entries are the minibatch. A longer row, whose point indices
    do not fit below the key, takes the stable argsort.
    """
    n = draws.shape[-1]
    if n > 1 << POINT_BITS:
        return np.argsort(draws >> POINT_BITS, axis=-1, kind="stable")[..., :batch_size]
    draws &= 2**64 - 2**POINT_BITS      # the key bits
    draws |= np.arange(n, dtype=np.uint64)
    draws.sort(axis=-1)
    return (draws[..., :batch_size] & (2**POINT_BITS - 1)).astype(np.intp)


def stochastic_gradient(model: LossModel, dataset: Dataset, w: np.ndarray,
                        batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Mean gradient over a uniform without-replacement minibatch.

    The minibatch is the ``smallest_draws`` of n raw draws
    ``rng.bit_generator.random_raw(n)``, the rule the engine applies to each
    device's stream: the ``batch_size`` smallest of the keys ``rng.random(n)``
    would give, one raw draw per double. Unbiased for ``full_gradient``;
    bit-reproducible given the generator state. ``batch_size == n`` returns
    the full gradient exactly and draws nothing.
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
    idx = smallest_draws(rng.bit_generator.random_raw(dataset.n), batch_size)
    return full_gradient(model, dataset.subset(idx), w)


# largest kernel temporary a stacked call builds, in float64 elements
CHUNK_ELEMENTS = 32768


class DeviceStack:
    """Every device's data stored once, stacked for the batched kernel.

    Rows are stored device after device, the devices sorted by point count,
    so each group of equal ``n`` is one ``(G, n, m)`` block: nothing is
    padded. A loss model's layout, its kernel targets (the labels, or the
    +-1 rows of the svm) and their block views, is built and the data
    checked once per model. A block's device ids are a slice when they run
    consecutively upwards, as on a fleet of equal devices, else an id array:
    either indexes a (..., D, ...) array the same way, a slice as a view.
    Four entries run the kernel: ``gradients``, ``own_gradients`` and
    ``losses`` on whole blocks, where slice i of a result equals the
    single-device call for device i bit for bit, and ``row_gradients`` on
    the data rows it is handed (the minibatches of the SGD step and of the
    sigma estimate). Model vectors come checked: per call by the fleet's
    public functions, once by ``Protocol``.
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
        self._layouts, self._last = {}, (None, None)   # by model; (last model, its layout)

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
        at most CHUNK_ELEMENTS targets, the ids a slice or an array; the last
        model's is found by identity."""
        if model is not self._last[0]:
            if model not in self._layouts:
                self._layouts[model] = self._build_layout(model)
            self._last = (model, self._layouts[model])
        return self._last[1]

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
                ids = slice(int(block[0]), int(block[-1]) + 1) \
                    if (np.diff(block) == 1).all() else block    # a view, not a gather
                blocks.append((ids, self.features[rows].reshape(block.size, n, -1),
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

    def row_gradients(self, model: LossModel, W, rows) -> np.ndarray:
        """(k, M) points, (k, b) data rows -> (k, M): the gradient over rows[j] at W[j]."""
        return _gradients(model, self.features.take(rows, axis=0),
                          self.layout(model)[0].take(rows, axis=0), W)

    def losses(self, model: LossModel, W: np.ndarray) -> np.ndarray:
        """(..., M) points -> (..., D): the objective of every device at every point,
        one kernel call per block for as many points as fill 2*CHUNK_ELEMENTS margins."""
        points = W.reshape(-1, W.shape[-1])
        out = np.empty((points.shape[0], self.num_devices))
        for devices, X, targets in self.layout(model)[1]:
            step = max(1, 2 * CHUNK_ELEMENTS // targets.size)   # points per kernel call
            for s in range(0, points.shape[0], step):
                out[s:s + step, devices] = _losses(model, X, targets, points[s:s + step, None])
        return out.reshape(W.shape[:-1] + (self.num_devices,))


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """(..., K, M) C-ordered -> (..., M): the K rows added in order from 0.0, as a loop
    would, so an all -0.0 sum is 0.0; the one in-order sum of the subnet and global
    sums, the weighted device total and ``solve_optimum``. The reduce adds in order
    unless it pairwise-sums 8 or more rows of length 1: there 0.0 + the running sum."""
    if terms.shape[-1] == 1 and terms.shape[-2] >= 8:
        return 0.0 + np.add.accumulate(terms, axis=-2)[..., -1, :]
    return np.add.reduce(terms, axis=-2, initial=0.0)


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
MAX_ITER = 200_000      # descent steps of the svm optimum before ConvergenceError


def solve_optimum(model: LossModel, stack: DeviceStack, weights) -> np.ndarray:
    """High-precision minimizer of sum_i weights[i] * (device i's objective) over
    the devices of ``stack``, whose rows are read in place.

    Ridge uses the normal equations directly. The squared-hinge model is
    solved by full-batch gradient descent with backtracking line search.
    Each iterate's objective and gradient come from one ``_svm_margins``
    array per layout block, so an accepted candidate's gradient is the next
    step's, and their weighted sums are ``_sum_in_order``'s. Terminates when
    ||grad|| <= 1e-10 * max(1, ||grad(0)||); raises ConvergenceError
    (reporting the final gradient norm) after MAX_ITER steps.
    """
    datasets = stack.datasets()
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
    blocks = stack.layout(model)[1]
    weights = weights[:, None]
    values, grads = np.empty((len(datasets), 1)), np.empty((len(datasets), model.model_dim))

    def evaluate(w):
        """(objective, gradient) at w: per block the bits of ``DeviceStack.losses`` and
        ``DeviceStack.gradients`` at the one point w, from one margins array."""
        W = w[None, None]
        for devices, X, targets in blocks:
            margins = _svm_margins(model, X, targets, W)
            values[devices, 0] = _losses(model, X, targets, W, margins.copy())[0]
            grads[devices] = _gradients(model, X, targets, W, margins)[0]
        return float(_sum_in_order(weights * values)[0]), _sum_in_order(weights * grads)

    w = np.zeros(model.model_dim)
    value, grad = evaluate(w)
    tol = GRAD_TOL * max(1.0, float(np.linalg.norm(grad)))
    step = 1.0 / lipschitz
    for _ in range(MAX_ITER):
        gnorm2 = float(grad @ grad)
        if np.sqrt(gnorm2) <= tol:
            return w
        # the 1/L step always descends; backtrack only if numerics disagree
        cand = w - step * grad
        cand_value, cand_grad = evaluate(cand)
        while cand_value > value + 4.0 * np.finfo(np.float64).eps * abs(value) \
                and step > 1e-18 / lipschitz:
            step *= 0.5
            cand = w - step * grad
            cand_value, cand_grad = evaluate(cand)
        w, value, grad = cand, cand_value, cand_grad
    raise ConvergenceError(
        f"optimum solver exhausted {MAX_ITER} iterations, "
        f"final gradient norm {np.linalg.norm(grad):.3e} > {tol:.3e}"
    )
