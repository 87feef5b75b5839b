"""scripts/same_bytes.py on the checked-in configs: a tree against itself and a perturbed copy."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def same_bytes(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPO / "scripts" / "same_bytes.py"), str(parent),
                           str(change), "--configs-only"], capture_output=True, text=True)


def test_a_tree_has_the_bytes_of_itself():
    done = same_bytes(REPO, REPO)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "same bytes: 3 configs, serial and --workers 2\n"


def test_a_subnet_sum_off_by_2_to_the_minus_40_is_named(tmp_path):
    tree = tmp_path / "tree"
    for part in ("src", "configs"):
        shutil.copytree(REPO / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    with (tree / "src" / "dflsim" / "fleet.py").open("a") as handle:
        handle.write("\n_subnet_sums = FleetTopology.subnet_sums\n"
                     "FleetTopology.subnet_sums = lambda self, values: "
                     "_subnet_sums(self, values) * (1.0 + 2.0 ** -40)\n")
    done = same_bytes(REPO, tree)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == "adaptive_demo --workers 1: run_manifest.json differs\n"
