"""Golden outputs of the checked-in configs.

Pins the config hash and the SHA-256 of the seed-0 metrics and events
CSVs of every ``configs/*.json``. A change that alters these bytes on
purpose must show why, re-pin the digests and say so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dflsim import cli
from dflsim.config import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# name -> (config_hash, metrics.csv sha256, events.csv sha256)
GOLDEN = {
    "adaptive_demo": (
        "9659029f52270b495ffe10872651f514cd9055c1450f09d30fa20e7bfc73a612",
        "1e2e47a3584a081dba23db327afd7a3a0b4ffe3270e8046994f34f2ba0189721",
        "a7b5197922ffceb39a9fb6413a0f7d215b9794b5dc458fab6b7355bfbc503ddc",
    ),
    "label_skew_svm": (
        "b7e2761d545231ad52da599a5aa36db1c066dba08d88415b75f34c56fd356ed7",
        "2f250f809aa12d23403e1aa77c97e968c682b76cfd313b642b38e68d60380448",
        "28c6e3a083bae27b31d4b57366fd075376a0ef475d222305df8ccc63869ae216",
    ),
    "minimal_ridge": (
        "21cde20e3d4c758cfdad8d14738e4bdf0e64070c0d729452d31c1d6730adbaec",
        "cd8d5c00269ad8b28763c32a98149adb1f213c032a889c2a2c605bd65329335c",
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
