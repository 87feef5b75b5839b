"""Golden outputs of the checked-in configs.

Pins the config hash and the SHA-256 of the seed-0 metrics and events
CSVs of every ``configs/*.json``. A change that alters these bytes on
purpose must show why, re-pin the digests and say so in CHANGES.md.

The tolerance mode compares a fresh seed-0 metrics CSV with the one
checked in under ``tests/golden/`` at rtol 1e-12 and reports the largest
relative deviation: a change that moves the bits must still pass it
before the digests are re-pinned.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dflsim import cli
from dflsim.config import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN_CSV = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

# name -> (config_hash, metrics.csv sha256, events.csv sha256)
GOLDEN = {
    "adaptive_demo": (
        "9659029f52270b495ffe10872651f514cd9055c1450f09d30fa20e7bfc73a612",
        "b8ec214735c277ac564764488c37ec338e91367dbd70506e02bfbd5e97beb1ad",
        "372f055f356988e9fb90ac068fa65396417b78c6f5f2ee8f954c577655ed95ae",
    ),
    "label_skew_svm": (
        "b7e2761d545231ad52da599a5aa36db1c066dba08d88415b75f34c56fd356ed7",
        "afedf8b4adce41e1790ff4b8ec177e89f40b042e5a1e148ae004c9a100a098e4",
        "9f92db5d567d77a7779b014bb2a1449a25b46b51e8803d75fb9593b9252e5011",
    ),
    "minimal_ridge": (
        "21cde20e3d4c758cfdad8d14738e4bdf0e64070c0d729452d31c1d6730adbaec",
        "7b11f95bdffc888b9f88be24e03a772ce10e56d71d30016ad05d9dbd701c6ef8",
        "659467e3949491f0f8545002e28f21f53c3efe8402922fdf766decbf940cfe1e",
    ),
}


def test_every_checked_in_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed0_outputs_match_pinned_digests(name, tmp_path):
    blob = json.loads((CONFIGS / f"{name}.json").read_text())
    config_hash, metrics_sha, events_sha = GOLDEN[name]
    assert parse_config(blob).config_hash() == config_hash
    blob["seeds"] = [0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    digest = lambda kind: hashlib.sha256(
        (out / f"run_seed0_{kind}.csv").read_bytes()).hexdigest()
    assert (digest("metrics"), digest("events")) == (metrics_sha, events_sha)


def largest_relative_deviation(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / |want| over the entries; NaN where both are NaN is equal."""
    both_nan = np.isnan(got) & np.isnan(want)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(got - want) / np.abs(want)
    dev[(got == want) | both_nan] = 0.0
    return float(np.nan_to_num(dev, nan=np.inf).max(initial=0.0))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed0_metrics_within_rtol_of_checked_in_csv(name, tmp_path):
    blob = json.loads((CONFIGS / f"{name}.json").read_text())
    blob["seeds"] = [0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    read = lambda p: np.genfromtxt(p, delimiter=",", names=True)
    got = read(out / "run_seed0_metrics.csv")
    want = read(GOLDEN_CSV / f"{name}_seed0_metrics.csv")
    assert got.dtype.names == want.dtype.names and got.shape == want.shape
    deviations = {col: largest_relative_deviation(got[col], want[col])
                  for col in want.dtype.names}
    worst = max(deviations, key=deviations.get)
    print(f"{name}: largest relative deviation {deviations[worst]:.3g} ({worst})")
    assert deviations[worst] <= RTOL, \
        f"{name}: column {worst} deviates by {deviations[worst]:.3g} > rtol {RTOL}"


# The benchmark's tracked_svm20 unit: the adaptive_demo fleet under label_skew_svm's
# fixed schedule with the schema defaults (noise-free companions, w*, a row every
# slot), radio off. The only pinned run whose outputs hold the svm optimum and the
# svm companions; kept out of GOLDEN, which mirrors configs/.
TRACKED_SVM20 = {
    "dataset": {"kind": "blobs", "num_classes": 10, "points_per_class": 120,
                "feature_dim": 6, "spread": 0.6, "seed": 7},
    "model": {"kind": "svm", "regularization": 0.01, "num_classes": 10},
    "topology": {"num_devices": 20, "num_subnets": 4, "labels_per_device": 3,
                 "partition_seed": 11},
    "schedule": {"mode": "fixed", "num_intervals": 10, "tau": 20, "alpha": 0.5,
                 "eta": 0.03, "delay": 10, "local_agg_period": 5},
    "seeds": [0],
    "batch_size": 10,
}


def test_tracked_svm_outputs_match_pinned_digests(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TRACKED_SVM20))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    digest = lambda kind: hashlib.sha256(
        (out / f"run_seed0_{kind}.csv").read_bytes()).hexdigest()
    assert (digest("metrics"), digest("events")) == (
        "8a2ae025c7bac3ca37103b066f9c0a1d92d022828795efcc2d9bc09f05dc3fa2",
        "659467e3949491f0f8545002e28f21f53c3efe8402922fdf766decbf940cfe1e",
    )
