#!/usr/bin/env python3
"""Delay-robustness ordering experiment on the label-skew SVM toy.

Compares the combiner protocol (alpha=0.5) against hierarchical FedAvg
(alpha=0), flat FedAvg, the delay-free variants, and the never-synchronize
ablation (alpha=1), averaged over seeds. Prints a table of mean final
losses and writes a CSV next to the output directory. The experiment
itself is ``dflsim.validate.ordering_experiment``, which acceptance
criterion 8 runs too.
"""

import argparse
import csv
from pathlib import Path

from dflsim.validate import ordering_experiment


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--intervals", type=int, default=10)
    parser.add_argument("--eta", type=float, default=0.03)
    parser.add_argument("--output", default="runs/ordering")
    args = parser.parse_args()

    rows = ordering_experiment(range(args.seeds), eta=args.eta, intervals=args.intervals)
    width = max(len(r[0]) for r in rows)
    for name, mean, std in rows:
        print(f"{name:<{width}}  final loss {mean:.4f} +/- {std:.4f}")

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "ordering.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["variant", "mean_final_loss", "std_final_loss"])
        writer.writerows(rows)
    print(f"wrote {out / 'ordering.csv'}")


if __name__ == "__main__":
    main()
