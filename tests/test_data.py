"""Dataset container, CSV/IDX ingestion round trips, generators."""

import csv
import re
import struct

import numpy as np
import pytest

from dflsim.data import (
    Dataset,
    load_csv,
    load_idx,
    make_blobs,
    make_shared_design,
)
from dflsim.errors import DimensionMismatchError, EmptyDatasetError


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the layout ``load_csv`` reads: label first, repr floats."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y"] + [f"x{i + 1}" for i in range(dataset.feature_dim)])
        for x, y in zip(dataset.features.tolist(), dataset.labels.tolist()):
            writer.writerow([repr(y)] + [repr(v) for v in x])


def test_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        Dataset(np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset([[np.nan, 1.0]], [0.0])


def test_csv_round_trip(tmp_path, rng):
    ds = Dataset(rng.standard_normal((17, 3)), rng.standard_normal(17))
    path = tmp_path / "toy.csv"
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_header_and_shape_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,x1,x2\n1,2\n")
    with pytest.raises(DimensionMismatchError):
        load_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("y,x1\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(empty)


def test_idx_round_trip(tmp_path, rng):
    count, rows, cols = 6, 4, 5
    pixels = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    img_path = tmp_path / "imgs.ubyte"
    lab_path = tmp_path / "labs.ubyte"
    img_path.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + pixels.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())
    ds = load_idx(img_path, lab_path, limit=5)
    assert ds.n == 5 and ds.feature_dim == rows * cols
    np.testing.assert_allclose(ds.features[2], pixels[2].reshape(-1) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels[:5].astype(float))
    with pytest.raises(ValueError):
        load_idx(lab_path, lab_path)


def test_loader_faults_name_the_parameter_then_the_file(tmp_path):
    text = tmp_path / "text.csv"
    text.write_text("y,x1\n1,2\n0,abc\n")
    with pytest.raises(ValueError, match=f"^path: {re.escape(str(text))}: could not convert"):
        load_csv(text)
    images, labels = tmp_path / "imgs.ubyte", tmp_path / "labs.ubyte"
    images.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(7))     # one byte short
    labels.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
    with pytest.raises(ValueError, match=f"^path: {re.escape(str(images))}: 7 bytes for 8 values"):
        load_idx(images, labels)
    images.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(8))
    with pytest.raises(DimensionMismatchError, match=f"^labels_path: {re.escape(str(labels))}: 3 labels for 2"):
        load_idx(images, labels)


def test_blobs_shapes_and_labels(rng):
    ds = make_blobs(4, 25, 6, spread=0.5, rng=rng)
    assert ds.n == 100 and ds.feature_dim == 6
    values, counts = np.unique(ds.labels, return_counts=True)
    np.testing.assert_array_equal(values, np.arange(4.0))
    assert (counts == 25).all()


def test_shared_design_constant_feature():
    parts = make_shared_design([2.0, 1.0], [[0.0, 1.0], [3.0]])
    assert parts[0].n == 2 and parts[1].n == 1
    assert (parts[0].features == [2.0, 1.0]).all()
