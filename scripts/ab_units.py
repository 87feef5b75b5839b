#!/usr/bin/env python3
"""In-process interleaved A/B of two dflsim trees on one dflbench workload.

Loads ``<tree>/src/dflsim`` of each tree under its own package name (the
modules import each other relatively, so both live in one interpreter) and
builds each side's runner with ``dflbench/child.py``'s ``make_runner``
while ``dflsim`` names that tree: a unit is the benchmark's own, prepared,
run and checked as the benchmark does. Runs units alternately, A then B,
then B then A, after WARMUP untimed units; the checked outputs (digests of
the metrics and events, and of a CLI unit's manifest, which holds the
controller's decisions) of every unit must be equal on both sides. Prints
each side's median and quartiles of seconds per unit, the median of the
per-pair ratios B/A, how many pairs B won, and whether a speed-up claim for B
would hold: B wins at least 9 of 10 pairs (ties count for neither) and the
medians differ by more than A's interquartile range.

    python3 scripts/ab_units.py PARENT_TREE CHANGE_TREE --workload replicas_theorem --units 400

Raw wall time on a shared host: read the ratio and the win count, which
interleaving protects, not the absolute seconds. This is not the benchmark,
whose numbers come from ``dflbench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]
WARMUP = 2          # untimed units per side before the timed ones
BENCH_SEED = 0      # the benchmark seed whose simulation-seed order the units follow


def load_tree(tree: Path, package: str) -> None:
    """Import every module of ``<tree>/src/dflsim`` as ``package``, and point
    ``dflsim`` and ``dflsim.<module>`` at them."""
    src = tree.resolve() / "src" / "dflsim"
    spec = importlib.util.spec_from_file_location(
        package, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules["dflsim"] = sys.modules[package] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[package])
    for path in sorted(src.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            sys.modules[f"dflsim.{path.stem}"] = importlib.import_module(f"{package}.{path.stem}")


def timed_unit(runner, sim_seed: int) -> tuple[float, dict]:
    """Seconds of ``runner.run``, and what ``runner.check`` makes of its output, with
    the digest of a CLI unit's manifest, read before ``check`` removes its directory."""
    inputs = runner.prepare(sim_seed)
    start = perf_counter()
    output = runner.run(sim_seed, inputs)
    seconds = perf_counter() - start
    manifest = hashlib.sha256((output / "run_manifest.json").read_bytes()).hexdigest() \
        if isinstance(output, Path) else None
    return seconds, {**runner.check(sim_seed, output), "manifest": manifest}


def summary(label: str, seconds: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(seconds, n=4)
    return f"{label}: median {median * 1e3:.3f} ms, quartiles {q1 * 1e3:.3f} .. {q3 * 1e3:.3f} ms"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="checkout of side A (the parent)")
    parser.add_argument("tree_b", type=Path, help="checkout of side B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--units", type=int, default=40, help="timed units per side")
    args = parser.parse_args()
    if args.units < 2:
        parser.error("--units: quartiles need at least 2 units per side")

    sys.dont_write_bytecode = True      # leave dflbench/ as it is
    sys.path.insert(0, str(REPO / "dflbench"))
    import child

    if args.workload not in child.wl.WORKLOADS:
        parser.error(f"--workload: expected one of {sorted(child.wl.WORKLOADS)}")
    workload = child.wl.WORKLOADS[args.workload]
    seeds = workload.sim_seeds(BENCH_SEED)
    with tempfile.TemporaryDirectory() as work:
        runners = []
        for label, tree in (("a", args.tree_a), ("b", args.tree_b)):
            load_tree(tree, f"dflsim_{label}")
            side_dir = Path(work) / label
            side_dir.mkdir()
            runners.append(child.make_runner(workload, side_dir))
        times = ([], [])
        for u in range(-WARMUP, args.units):
            sim_seed = seeds[u % len(seeds)]
            order = (0, 1) if u % 2 == 0 else (1, 0)
            runs = {s: timed_unit(runners[s], sim_seed) for s in order}
            if runs[0][1]["problem"] is not None or runs[0][1] != runs[1][1]:
                raise SystemExit(f"unit {u} (seed {sim_seed}): {runs[0][1]} against {runs[1][1]}")
            if u >= 0:
                for s in (0, 1):
                    times[s].append(runs[s][0])
    ratios = [b / a for a, b in zip(*times)]
    wins = sum(r < 1 for r in ratios)       # a tie counts for neither side
    q1, median_a, q3 = statistics.quantiles(times[0], n=4)
    holds = 10 * wins >= 9 * len(ratios) and median_a - statistics.median(times[1]) > q3 - q1
    print(f"{args.workload}: {args.units} units per side, checked outputs equal in every unit")
    print(summary(f"A {args.tree_a}", times[0]))
    print(summary(f"B {args.tree_b}", times[1]))
    print(f"median ratio B/A {statistics.median(ratios):.3f}, B faster in {wins} of {len(ratios)} pairs")
    print(f"claim rule (B wins at least 9 of 10 pairs, and A's median exceeds B's by more "
          f"than A's interquartile range): {'holds' if holds else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
