"""Workload definitions of the dflsim benchmark.

A workload turns the benchmark seed into its inputs (the configs and the
order of simulation seeds), runs one unit of work -- one simulation seed,
or one replica run for ``replicas_theorem`` -- and checks that unit's
outputs.  Importing this module does not import dflsim, so the parent
process can generate configs without the package.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

# configs/label_skew_svm.json and configs/adaptive_demo.json as of the
# commit that defined this benchmark; copied so a later edit of configs/
# cannot silently change what the benchmark measures.
LABEL_SKEW_SVM = {
    "dataset": {"kind": "blobs", "num_classes": 10, "points_per_class": 300,
                "feature_dim": 12, "spread": 0.25, "center_scale": 6.0,
                "orthogonal_centers": True, "seed": 7},
    "model": {"kind": "svm", "regularization": 0.01, "num_classes": 10},
    "topology": {"num_devices": 50, "num_subnets": 10, "labels_per_device": 3,
                 "partition_seed": 11},
    "schedule": {"mode": "fixed", "num_intervals": 10, "tau": 20, "alpha": 0.5,
                 "eta": 0.03, "delay": 10, "local_agg_period": 5,
                 "track_noise_free": False, "track_optimality": False,
                 "metrics_every": 10},
    "radio": {},
    "seeds": [0, 1, 2, 3, 4],
    "batch_size": 10,
    "output_dir": "runs/label_skew_svm",
}
ADAPTIVE_DEMO = {
    "dataset": {"kind": "blobs", "num_classes": 10, "points_per_class": 120,
                "feature_dim": 6, "spread": 0.6, "seed": 7},
    "model": {"kind": "svm", "regularization": 0.01, "num_classes": 10},
    "topology": {"num_devices": 20, "num_subnets": 4, "labels_per_device": 3,
                 "partition_seed": 11},
    "schedule": {"mode": "adaptive", "delay": 10, "track_noise_free": False,
                 "metrics_every": 10, "track_optimality": False},
    "control": {"energy_weight": 0.001, "delay_weight": 0.01, "bound_weight": 1.0,
                "phi": 2.0, "tau_max": 30, "tau_min": 30, "alpha_step": 0.01,
                "horizon": 240, "initial_tau": 30, "probe_scale": 0.5},
    "radio": {},
    "seeds": [0, 1, 2],
    "batch_size": 10,
    "output_dir": "runs/adaptive_demo",
}

METRIC_COLUMNS = ("t", "k", "loss", "gap", "e1", "e2", "e3", "cum_energy", "cum_delay")

# replicas_theorem: the certified problem of `dflsim validate theorem`
THEOREM_TAU, THEOREM_DELAY, THEOREM_SYNCS = 6, 2, 50


def _fixed_svm50() -> dict:
    return copy.deepcopy(LABEL_SKEW_SVM)


def _adaptive_svm50() -> dict:
    cfg = copy.deepcopy(LABEL_SKEW_SVM)
    cfg["schedule"] = copy.deepcopy(ADAPTIVE_DEMO["schedule"])
    cfg["control"] = copy.deepcopy(ADAPTIVE_DEMO["control"])
    return cfg


def _tracked_svm20() -> dict:
    cfg = copy.deepcopy(ADAPTIVE_DEMO)
    del cfg["control"], cfg["radio"]
    schedule = copy.deepcopy(LABEL_SKEW_SVM["schedule"])
    for key in ("track_noise_free", "track_optimality", "metrics_every"):
        del schedule[key]             # back to the schema defaults
    cfg["schedule"] = schedule
    return cfg


class Workload:
    """One benchmark workload.

    ``pool`` simulation seeds (0..pool-1) have pinned output digests; the
    benchmark seed picks the order in which a run walks through them.
    """

    def __init__(self, name: str, why: str, pool: int, base_config=None):
        self.name = name
        self.why = why
        self.pool = pool
        self.base_config = base_config

    @property
    def via_cli(self) -> bool:
        return self.base_config is not None

    def sim_seeds(self, bench_seed: int) -> list[int]:
        order = list(range(self.pool))
        random.Random(bench_seed).shuffle(order)
        return order

    def config(self, sim_seed: int) -> dict:
        cfg = self.base_config()
        cfg["seeds"] = [sim_seed]
        cfg["output_dir"] = "runs/bench"
        return cfg

    def write_config(self, sim_seed: int, directory: Path) -> Path:
        path = directory / f"{self.name}_seed{sim_seed}.json"
        path.write_text(json.dumps(self.config(sim_seed), indent=1))
        return path


WORKLOADS = {
    w.name: w for w in (
        Workload("fixed_svm50",
                 "label_skew_svm as checked in: slot loop and sampling do the work, "
                 "control none; the 5x target of the batched gradient oracle",
                 pool=64, base_config=_fixed_svm50),
        Workload("adaptive_svm50",
                 "label_skew_svm fleet under the adaptive_demo controller: trigger and "
                 "estimation full gradients dominate; the 10x target",
                 pool=16, base_config=_adaptive_svm50),
        Workload("replicas_theorem",
                 "validate-theorem traffic: 4 devices, dim 2, pure per-call overhead "
                 "on tiny arrays; where a replica axis would show",
                 pool=300),
        Workload("tracked_svm20",
                 "schema defaults (noise-free companions, optimum, metrics every slot): "
                 "the only workload measuring analysis and solve_optimum",
                 pool=64, base_config=_tracked_svm20),
    )
}


# ---------------------------------------------------------------------------
# output checks (shared by every workload)


def metrics_text(metrics: dict) -> str:
    """Metric columns in the CSV layout of `dflsim run` (lossless floats)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(METRIC_COLUMNS)
    for row in zip(*(metrics[name] for name in METRIC_COLUMNS)):
        writer.writerow([int(v) if name in ("t", "k") else repr(float(v))
                         for name, v in zip(METRIC_COLUMNS, row)])
    return out.getvalue()


def events_text(events) -> str:
    """Cost events in the CSV layout of `dflsim run`."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t", "kind", "subnet", "energy_j", "delay_s"])
    for ev in events:
        writer.writerow([ev.t, ev.kind, ev.subnet, repr(float(ev.energy_j)),
                         repr(float(ev.delay_s))])
    return out.getvalue()


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_outputs(metrics: dict, events: list, sync_times, finite: tuple) -> str | None:
    """Common per-seed checks; returns the first violation or None.

    ``metrics`` maps column name to a list of floats, ``events`` is a list
    of (t, energy_j, delay_s) in log order, ``finite`` names the columns
    the run enables; every other column must be all NaN.
    """
    for name in METRIC_COLUMNS:
        vals = metrics[name]
        if name in finite:
            if not all(math.isfinite(v) for v in vals):
                return f"non-finite value in metric column {name}"
        elif not all(math.isnan(v) for v in vals):
            return f"disabled metric column {name} holds values"
    energy = delay = 0.0
    pos = 0
    for t, cum_e, cum_d in zip(metrics["t"], metrics["cum_energy"], metrics["cum_delay"]):
        while pos < len(events) and events[pos][0] <= t:
            energy += events[pos][1]
            delay += events[pos][2]
            pos += 1
        if cum_e != energy or cum_d != delay:
            return f"cum_energy/cum_delay at t={int(t)} do not replay the event log"
    if pos != len(events):
        return "events logged after the last metric row"
    logged = set(metrics["t"])
    if len(sync_times) == 0:
        return "no synchronization instants"
    missing = [int(s) for s in sync_times if s not in logged]
    if missing:
        return f"sync instants {missing[:3]} missing from the metric log"
    return None


def check_decisions(decisions: list, delay: int, tau_max: int) -> str | None:
    """adaptive_svm50: every decision is a fallback or feasible on the grid."""
    if not decisions:
        return "no controller decisions"
    for n, d in enumerate(decisions):
        if d["fallback"]:
            continue
        if not delay <= d["tau_next"] <= tau_max:
            return f"decision {n}: tau {d['tau_next']} outside [{delay}, {tau_max}]"
        if not d["alpha_next"] < d["alpha_cap"]:
            return f"decision {n}: alpha {d['alpha_next']} >= cap {d['alpha_cap']}"
    return None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_outputs(out_dir: Path, sim_seed: int) -> dict:
    """Read what `dflsim run` wrote for one seed and check it."""
    metrics_csv = (out_dir / f"run_seed{sim_seed}_metrics.csv").read_text()
    events_csv = (out_dir / f"run_seed{sim_seed}_events.csv").read_text()
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    header, rows = read_table(metrics_csv)
    metrics = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    _, ev_rows = read_table(events_csv)
    events = [(int(r[0]), float(r[3]), float(r[4])) for r in ev_rows]
    cfg = manifest["effective_config"]
    sched = cfg["schedule"]
    finite = ["t", "k", "loss", "cum_energy", "cum_delay"]
    if sched["track_optimality"]:
        finite.append("gap")
        if sched["track_noise_free"]:
            finite += ["e1", "e2", "e3"]
    sync_times = manifest.get("sync_times", {}).get(str(sim_seed), [])
    problem = check_outputs(metrics, events, sync_times, tuple(finite))
    decisions = manifest.get("decisions", {}).get(str(sim_seed), [])
    if problem is None and sched["mode"] == "adaptive":
        problem = check_decisions(decisions, sched["delay"], cfg["control"]["tau_max"])
    return {
        "problem": problem,
        "digest": [sha256(metrics_csv), sha256(events_csv)],
        "device_slots": int(metrics["t"][-1]) * cfg["topology"]["num_devices"],
        "fallbacks": sum(bool(d["fallback"]) for d in decisions),
    }
