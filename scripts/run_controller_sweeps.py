#!/usr/bin/env python3
"""Adaptive-controller sweeps: chosen combiner weight vs delay and vs skew.

Runs the full adaptive loop (estimation, trigger, grid solver) over a range
of round-trip delays at a pinned interval length, then over a range of
label-skew severities, reporting the mean chosen combiner weight per point
and how many decisions had no alpha but 0 on their grid (alpha_cap <=
alpha_step). The sweep itself is ``dflsim.validate.controller_trends``,
which acceptance criterion 9 runs too.
"""

import argparse
import csv
from pathlib import Path

from dflsim.validate import controller_trends


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--output", default="runs/controller_sweeps")
    args = parser.parse_args()

    rows = []
    for p in controller_trends(range(args.seeds)):
        name = f"delay={p.value:2d}" if p.axis == "delay" else f"labels/device={p.value}"
        print(f"{name}: mean alpha {p.mean_alpha:.4f}, mean tau {p.mean_tau:.1f}, "
              f"alpha grid {{0}} in {p.zero_grid} of {p.decisions} decisions")
        rows.append((p.axis, p.value, p.mean_alpha, p.mean_tau))

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "controller_sweeps.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["axis", "value", "mean_alpha", "mean_tau"])
        writer.writerows(rows)
    print(f"wrote {out / 'controller_sweeps.csv'}")


if __name__ == "__main__":
    main()
