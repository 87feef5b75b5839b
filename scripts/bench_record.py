#!/usr/bin/env python3
"""Record one benchmark run of a checkout as ``BENCH_<short sha>.json``.

Runs ``python3 dflbench/run.py --workload all`` in the checkout twice, as
subprocesses: with ``--trace 0`` for the end-to-end metrics, then with
``--trace 1`` for the layer breakdown. Per workload the file holds the
end-to-end metrics as printed, the layer shares (each span's ``.share``
metric, in per cent of the traced time), the speed probe's median and
``check.bits_identical`` as read from the untraced run, and whether each
run was correct. Beside them it holds the checkout's git SHA, whether its
tracked files differed from that commit, and the benchmark's environment
stamp (Python, numpy, BLAS, CPUs, thread variables).

    python3 scripts/bench_record.py [--tree CHECKOUT] [--seconds 20] [--seed 0]
                                    [--output DIR]

The checkout defaults to this one and the output directory to its root.
Exits 1 when a run fails or a workload reports incorrect outputs, after
writing the file.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PROBE = re.compile(r"# speed probe: median ([0-9.]+) us")
BITS = re.compile(r"# check\.bits_identical ([0-9.]+)")


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def parse(stdout: str) -> tuple[dict, dict]:
    """The environment stamp, and per workload its JSON result with the probe
    median and ``bits_identical`` from the lines printed before it."""
    env, runs, notes = {}, {}, {}
    for line in stdout.splitlines():
        if line.startswith("workload "):
            name, notes = line[len("workload "):].split(":", 1)[0], {}
        elif line.startswith("env "):
            env = json.loads(line[len("env "):])
        elif (match := PROBE.match(line)) is not None:
            notes["probe_median_us"] = float(match.group(1))
        elif (match := BITS.match(line)) is not None:
            notes["bits_identical"] = float(match.group(1))
        elif line.startswith("{"):
            runs[name] = {**json.loads(line), **notes}
    env.pop("git", None)        # recorded as the file's sha
    return env, runs


def bench(tree: Path, trace: int, seconds: float, seed: int) -> tuple[int, dict, dict]:
    done = subprocess.run(
        [sys.executable, "dflbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    return (done.returncode, *parse(done.stdout))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=REPO, help="checkout to measure")
    parser.add_argument("--seconds", type=float, default=20.0, help="run length per workload")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    parser.add_argument("--output", type=Path, default=REPO, help="directory of the file")
    args = parser.parse_args()
    tree = args.tree.resolve()
    sha = git(tree, "rev-parse", "HEAD")
    dirty = bool(git(tree, "status", "--porcelain", "--untracked-files=no"))
    status, env, plain = bench(tree, 0, args.seconds, args.seed)
    traced_status, _, traced = bench(tree, 1, args.seconds, args.seed)
    workloads = {}
    for name, run in plain.items():
        layers = traced.get(name, {"correct": False, "metrics": {}})
        workloads[name] = {
            "end_to_end": run["metrics"],
            "layer_shares": {key[:-len(".share")]: value["value"]
                             for key, value in layers["metrics"].items()
                             if key.endswith(".share")},
            "probe_median_us": run.get("probe_median_us"),
            "bits_identical": run.get("bits_identical"),
            "correct": {"trace0": run["correct"], "trace1": layers["correct"]},
        }
    record = {"sha": sha, "dirty": dirty, "seconds": args.seconds, "seed": args.seed,
              "env": env, "workloads": workloads}
    path = args.output / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(workloads)} workloads")
    correct = all(all(w["correct"].values()) for w in workloads.values())
    return 0 if status == traced_status == 0 and correct and workloads else 1


if __name__ == "__main__":
    sys.exit(main())
