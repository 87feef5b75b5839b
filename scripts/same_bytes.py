#!/usr/bin/env python3
"""Same-bytes gate: two dflsim trees write identical run outputs.

Runs ``python3 -m dflsim run`` with each tree's ``src`` on the import path,
serially and with ``--workers 2``, on every ``configs/*.json`` of the parent
tree, the 16 ``adaptive_svm50`` pool seeds and ``tracked_svm20`` seeds 0-2.
The workload configs come from ``dflbench/workloads.py`` of this checkout,
imported without writing bytecode, as ``scripts/ab_units.py`` does. After
each pair of runs it compares the two output directories (metrics, events
and manifest) file by file, and exits 1 naming the first file that differs
or the first run that fails; it exits 0 when every file is identical.

    python3 scripts/same_bytes.py PARENT_TREE CHANGE_TREE [--configs-only]

``--configs-only`` runs the checked-in configs alone.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOAD_SEEDS = {"adaptive_svm50": range(16), "tracked_svm20": range(3)}


def config_paths(parent: Path, work: Path, configs_only: bool) -> list[Path]:
    """The checked-in configs of ``parent``, then the workload configs, written to ``work``."""
    paths = sorted((parent / "configs").glob("*.json"))
    if configs_only:
        return paths
    sys.dont_write_bytecode = True      # leave dflbench/ as it is
    sys.path.insert(0, str(REPO / "dflbench"))
    import workloads

    for name, seeds in WORKLOAD_SEEDS.items():
        paths += [workloads.WORKLOADS[name].write_config(seed, work) for seed in seeds]
    return paths


def run(tree: Path, config: Path, out: Path, workers: str) -> str | None:
    """``dflsim run`` of ``config`` from ``tree`` into ``out``; its stderr if it fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "dflsim", "run", str(config),
                           "--workers", workers, "--output", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    return None if done.returncode == 0 else done.stderr.strip() or f"exit {done.returncode}"


def first_difference(a: Path, b: Path) -> str | None:
    """The first file name, in sorted order, that is missing from one side or differs."""
    for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        if not ((a / name).is_file() and (b / name).is_file()
                and filecmp.cmp(a / name, b / name, shallow=False)):
            return name
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--configs-only", action="store_true",
                        help="run the checked-in configs alone")
    args = parser.parse_args()
    trees = (args.parent.resolve(), args.change.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = config_paths(trees[0], work, args.configs_only)
        for config in configs:
            for workers in ("1", "2"):
                label = f"{config.stem} --workers {workers}"
                outs = [work / side / f"{config.stem}_w{workers}" for side in ("parent", "change")]
                for tree, out in zip(trees, outs):
                    error = run(tree, config, out, workers)
                    if error is not None:
                        print(f"{label}: the run from {tree} failed: {error}")
                        return 1
                name = first_difference(*outs)
                if name is not None:
                    print(f"{label}: {name} differs")
                    return 1
        print(f"same bytes: {len(configs)} configs, serial and --workers 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
