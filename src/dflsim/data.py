"""Dataset container, file ingestion and synthetic generators.

File formats understood by the loaders:

CSV
    Header row ``y,x1,...,xm``; one point per subsequent row, label first,
    all fields decimal text. Feature count is inferred from the header.

IDX / ubyte
    Big-endian binary. Image file: 4-byte magic ``0x00000803``, then three
    4-byte unsigned dims (count, rows, cols), then ``count*rows*cols``
    unsigned pixel bytes in row-major order. Label file: magic
    ``0x00000801``, one 4-byte count, then ``count`` label bytes.
    Images are flattened to vectors and scaled to [0, 1].

A loader fault names the parameter of the file, then the file:
``path: points.csv:3: expected 2 fields, got 1``.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyDatasetError


@dataclass(frozen=True)
class Dataset:
    """Immutable (features, labels) pair; rows are data points."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.ascontiguousarray(np.asarray(self.labels, dtype=np.float64))
        if feats.ndim != 2:
            raise DimensionMismatchError(f"features must be 2-d, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise DimensionMismatchError(
                f"labels shape {labs.shape} does not match {feats.shape[0]} points"
            )
        if not (np.isfinite(feats).all() and np.isfinite(labs).all()):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx])


def require_nonempty(dataset: Dataset, where: str) -> None:
    if dataset.n == 0:
        raise EmptyDatasetError(f"{where}: dataset is empty")


# ---------------------------------------------------------------------------
# file ingestion


def load_csv(path) -> Dataset:
    """Read a ``y,x1,...,xm`` CSV into a Dataset."""
    where = f"path: {path}"
    with Path(path).open(newline="") as handle:
        header, *rows = list(csv.reader(handle)) or [[]]
    if not header or header[0].strip() != "y":
        raise ValueError(f"{where}: expected header row starting with 'y'")
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DimensionMismatchError(
                f"{where}:{row_no}: expected {len(header)} fields, got {len(row)}")
    if not rows:
        raise EmptyDatasetError(f"{where}: no data rows")
    try:       # a field that is not a number, or not finite
        table = np.array([[float(v) for v in row] for row in rows])
        return Dataset(table[:, 1:], table[:, 0])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_idx(name: str, path, magic: int, dims: int, kind: str):
    """The ``dims`` sizes and the byte payload of the IDX ``kind`` file at ``path``."""
    raw = Path(path).read_bytes()
    header = 4 + 4 * dims
    if len(raw) < header or struct.unpack(">I", raw[:4])[0] != magic:
        raise ValueError(f"{name}: {path}: not an IDX {kind} file")
    sizes = struct.unpack(f">{dims}I", raw[4:header])
    if len(raw) - header < math.prod(sizes):
        raise ValueError(f"{name}: {path}: {len(raw) - header} bytes for "
                         f"{math.prod(sizes)} values")
    return sizes, np.frombuffer(raw, dtype=np.uint8, count=math.prod(sizes), offset=header)


def load_idx(path, labels_path, limit: int | None = None) -> Dataset:
    (count, rows, cols), pixels = _read_idx("path", path, _IDX_IMAGE_MAGIC, 3, "image")
    feats = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    _, labels = _read_idx("labels_path", labels_path, _IDX_LABEL_MAGIC, 1, "label")
    labs = labels.astype(np.float64)
    if feats.shape[0] != labs.shape[0]:
        raise DimensionMismatchError(
            f"labels_path: {labels_path}: {labs.shape[0]} labels for {feats.shape[0]} images"
        )
    if limit is not None:
        feats, labs = feats[:limit], labs[:limit]
    return Dataset(feats, labs)


# ---------------------------------------------------------------------------
# synthetic generators


def _require_positive(**sizes) -> None:
    """Generator sizes; a message starts with the parameter's name."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name}: expected a positive integer, got {value}")


def make_blobs(num_classes: int, points_per_class: int, feature_dim: int,
               spread: float, rng: np.random.Generator,
               center_scale: float = 1.0,
               orthogonal_centers: bool = False) -> Dataset:
    """Gaussian class blobs with unit-sphere centers scaled by center_scale.

    ``orthogonal_centers`` orthonormalizes the center directions (requires
    feature_dim >= num_classes), making the classes linearly separable with
    wide margins.
    """
    _require_positive(num_classes=num_classes, points_per_class=points_per_class,
                      feature_dim=feature_dim)
    if orthogonal_centers and feature_dim < num_classes:
        raise ValueError(f"orthogonal_centers: need feature_dim >= num_classes, "
                         f"got {feature_dim} < {num_classes}")
    centers = rng.standard_normal((num_classes, feature_dim))
    if orthogonal_centers:
        q, _ = np.linalg.qr(centers.T)
        centers = q[:, :num_classes].T
    centers *= center_scale / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    feats, labs = [], []
    for cls in range(num_classes):
        pts = centers[cls] + spread * rng.standard_normal((points_per_class, feature_dim))
        feats.append(pts)
        labs.append(np.full(points_per_class, cls, dtype=np.float64))
    order = rng.permutation(num_classes * points_per_class)
    return Dataset(np.concatenate(feats)[order], np.concatenate(labs)[order])


def make_ridge_cloud(num_points: int, feature_dim: int, noise: float,
                     rng: np.random.Generator) -> Dataset:
    """Linear-response regression cloud y = w0.x + noise."""
    _require_positive(num_points=num_points, feature_dim=feature_dim)
    w0 = rng.standard_normal(feature_dim)
    feats = rng.standard_normal((num_points, feature_dim))
    labs = feats @ w0 + noise * rng.standard_normal(num_points)
    return Dataset(feats, labs)


def make_shared_design(direction: np.ndarray, label_sets: Sequence[Sequence[float]]) -> list[Dataset]:
    """One dataset per label set, every point carrying the same feature vector.

    With a common design the per-group Hessians coincide, so smoothness,
    strong convexity, gradient-diversity and SGD-noise constants of the
    resulting ridge problems are exact closed forms; used by the certified
    validation problems.
    """
    direction = np.asarray(direction, dtype=np.float64)
    out = []
    for labels in label_sets:
        labels = np.asarray(labels, dtype=np.float64)
        out.append(Dataset(np.tile(direction, (labels.size, 1)), labels))
    return out
