"""Experiment configuration: JSON schema, defaults and assembly helpers.

A config document is a JSON object with sections ``dataset``, ``model``,
``topology``, ``schedule``, optional ``radio`` and ``control``, plus
``seeds``, ``batch_size`` and ``output_dir``. Every defaulted field is
echoed back into the effective config that lands in the run manifest, so
the manifest hash changes exactly when an effective value changes.
The ``control``/``radio`` defaults are those of ``ControlConfig``/
``RadioConfig``; the runtime constructors validate the values.

``parse_config`` is the one place a config is checked. It builds every
input that does not depend on the seed once -- the loss model, the fleet,
the fixed schedule or the controller config, the radio config -- so a
fault that shows only once the data exists is a ConfigError naming its
field too, raised before any output is written: ``check_config`` needs no
data, ``build_config`` builds it and checks the rest.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .control import ControlConfig, aggregation_indicators, subnet_contributions
from .data import Dataset, load_csv, load_idx, make_blobs, make_ridge_cloud
from .engine import IntervalPlan, TrainingSchedule
from .errors import ConfigError, DFLError
from .fleet import FleetTopology, HeterogeneityParams, build_topology, partition_label_skew
from .losses import SVM, LossModel, second_moment
from .netcost import CostSnapshot, RadioConfig, stream

TAG_DATA = 7


@dataclass
class ExperimentConfig:
    """A checked config: its effective values and the inputs every seed shares.

    ``schedule`` is the fixed mode's schedule and None in adaptive mode;
    ``w_star`` is the fleet's optimum, None unless ``track_optimality``.
    """

    effective: dict
    model: LossModel
    fleet: FleetTopology
    schedule: TrainingSchedule | None
    control: ControlConfig | None
    radio: RadioConfig | None
    w_star: np.ndarray | None

    @property
    def seeds(self) -> list[int]:
        return list(self.effective["seeds"])

    @property
    def batch_size(self) -> int:
        return self.effective["batch_size"]

    @property
    def output_dir(self) -> str:
        return self.effective["output_dir"]

    def config_hash(self) -> str:
        blob = json.dumps(self.effective, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


DATASET_DEFAULTS = {
    "kind": "blobs", "num_classes": 10, "points_per_class": 300,
    "feature_dim": 8, "spread": 0.6, "center_scale": 1.0,
    "orthogonal_centers": False, "seed": 7,
    "noise": 0.1, "num_points": 400, "path": None, "labels_path": None,
    "limit": None,
}
MODEL_DEFAULTS = {"kind": SVM, "regularization": 1e-2, "num_classes": 10}
TOPOLOGY_DEFAULTS = {
    "num_devices": 50, "subnet_sizes": None, "num_subnets": 10,
    "labels_per_device": 3, "partition_seed": 11,
}
SCHEDULE_DEFAULTS = {
    "mode": "fixed", "num_intervals": 10, "tau": 20, "alpha": 0.0,
    "eta": 0.01, "delay": 0, "up_delay": None, "local_agg_period": None,
    "alpha_ablation": False, "metrics_every": 1, "track_noise_free": True,
    "track_optimality": True,
}
# The parameter files of ``dflsim bounds`` and ``dflsim control``. A type in
# place of a default marks a required field; ``zeta`` defaults to 2 beta omega.
PARAMS_DEFAULTS = {"mu": float, "beta": float, "omega": 0.0, "zeta": None, "delta": 0.0,
                   "sigma": 0.0, "phi": 0.0, "delta_c": [0.0], "zeta_c": [0.0]}
BOUNDS_DEFAULTS = {**PARAMS_DEFAULTS, "tau": int, "delay": int, "alpha": 0.0,
                   "safety": 0.9, "eta_max": None, "gamma": None, "e3_init": 0.0}
SNAPSHOT_DEFAULTS = {"params": dict, "cost": dict, "control": None, "subnet_weights": list,
                     "gap_estimates": list, "delay": int, "t_now": 0, "e3_init": 0.0}
COST_DEFAULTS = {"global_energy": float, "global_delay": float,
                 "local_energy": list, "local_delay": list}
# every number of a parameter file is finite; these have a least value too
LEAST_VALUES = {"tau": (1, "positive and "), **dict.fromkeys((
    "omega", "zeta", "delta", "sigma", "phi", "delta_c", "zeta_c", "delay", "t_now", "e3_init",
    "subnet_weights", "gap_estimates", *COST_DEFAULTS), (0, "nonnegative and "))}
# types of the fields whose default is None (JSON null is always accepted)
NULLABLE_TYPES = {
    "path": str, "labels_path": str, "limit": int, "subnet_sizes": list,
    "up_delay": int, "local_agg_period": int, "gamma_safety": float,
    "zeta": float, "eta_max": float, "gamma": float,
    **dict.fromkeys(("dataset", "model", "topology", "schedule", "control", "radio"), dict),
}
TOP_LEVEL_DEFAULTS = {**dict.fromkeys(("dataset", "model", "topology", "schedule", "control",
                                       "radio")), "seeds": [0], "batch_size": 10,
                      "output_dir": "runs"}


def _is_a(value, kind) -> bool:
    """JSON type check: an int is also a float, a bool is never an int."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def _merge(section, defaults: dict, where: str) -> dict:
    """``section`` over ``defaults``, type-checked; ``where`` "" is a file's top level.

    A type in place of a default marks a required field; a list holds numbers only.
    """
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where or 'top level'}: expected a JSON object")
    prefix, merged = f"{where}." if where else "", dict(defaults)
    for name, value in section.items():
        if name not in defaults:
            raise ConfigError(f"{prefix}{name}: unknown field")
        default = defaults[name]
        kind = default if isinstance(default, type) else \
            NULLABLE_TYPES[name] if default is None else type(default)
        if not (_is_a(value, kind) or (value is None and default is None)):
            raise ConfigError(
                f"{prefix}{name}: expected {kind.__name__}, got {type(value).__name__}")
        if isinstance(value, list) and not all(_is_a(v, float) for v in value):
            raise ConfigError(f"{prefix}{name}: expected a list of numbers, got {value}")
        if name.endswith("seed") and value < 0:
            raise ConfigError(f"{prefix}{name}: expected a nonnegative integer")
        merged[name] = value
    missing = [name for name, value in merged.items() if isinstance(value, type)]
    if missing:
        raise ConfigError(f"{prefix}{missing[0]}: required field missing")
    return merged


def checked(where: str, build):
    """Run a constructor, reporting a rejected field as a ConfigError.

    Constructor messages start with the field name, so ``where.`` completes the path.
    """
    prefix = f"{where}." if where else ""
    try:
        return build()
    except (ValueError, TypeError, DFLError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def control_config(section) -> ControlConfig:
    """A validated ControlConfig from a (partial) ``control`` section."""
    merged = _merge(section, asdict(ControlConfig()), "control")
    return checked("control", lambda: ControlConfig(**merged))


def read_json(path) -> dict:
    """A JSON object from a file; unreadable or malformed input is a ConfigError."""
    try:
        blob = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return blob


def load_config(path) -> ExperimentConfig:
    return parse_config(read_json(path))


def parse_config(raw: dict) -> ExperimentConfig:
    return build_config(*check_config(raw))


def check_config(raw: dict) -> tuple:
    """The checks that need no data: (effective values, schedule, control, radio)."""
    top = _merge(raw, TOP_LEVEL_DEFAULTS, "")
    control = None if top["control"] is None else control_config(top["control"])
    effective = {
        **top,
        "dataset": _merge(top["dataset"], DATASET_DEFAULTS, "dataset"),
        "model": _merge(top["model"], MODEL_DEFAULTS, "model"),
        "topology": _merge(top["topology"], TOPOLOGY_DEFAULTS, "topology"),
        "schedule": _merge(top["schedule"], SCHEDULE_DEFAULTS, "schedule"),
        "control": None if control is None else asdict(control),
        "radio": None if top["radio"] is None
        else _merge(top["radio"], {**asdict(RadioConfig()), "placement_seed": 3}, "radio"),
    }
    seeds = effective["seeds"]
    if not seeds or not all(_is_a(s, int) and s >= 0 for s in seeds):
        raise ConfigError("seeds: expected a nonempty list of nonnegative integers")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds: {seeds} repeats a seed; each seed runs once")
    if effective["batch_size"] < 1:
        raise ConfigError("batch_size: expected a positive integer")

    ds, topo, sched = effective["dataset"], effective["topology"], effective["schedule"]
    if ds["kind"] not in ("blobs", "ridge-cloud", "csv", "idx"):
        raise ConfigError(f"dataset.kind: unknown kind {ds['kind']!r}")
    _check_numbers({fld: ds[fld] for fld in ("noise", "spread", "center_scale")}, "dataset.")
    files = {"csv": ("path",), "idx": ("path", "labels_path")}.get(ds["kind"], ())
    for fld in files:
        if ds[fld] is None or not Path(ds[fld]).is_file():
            raise ConfigError(f"dataset.{fld}: no such file {ds[fld]!r}")
    sizes = subnet_sizes(topo)

    if sched["mode"] not in ("fixed", "adaptive"):
        raise ConfigError(f"schedule.mode: expected 'fixed' or 'adaptive', got {sched['mode']!r}")
    if sched["metrics_every"] < 1:
        raise ConfigError("schedule.metrics_every: expected a positive integer")
    schedule = None
    if sched["mode"] == "fixed":
        if sched["alpha"] == 1 and not sched["alpha_ablation"]:
            raise ConfigError("schedule.alpha: 1.0 requires schedule.alpha_ablation=true")
        schedule = checked("schedule", lambda: TrainingSchedule.uniform(
            num_intervals=sched["num_intervals"], tau=sched["tau"],
            alpha=float(sched["alpha"]), eta=float(sched["eta"]), delay=sched["delay"],
            up_delay=sched["up_delay"], local_agg_period=sched["local_agg_period"],
            num_subnets=len(sizes)))
    else:
        if control is None:
            raise ConfigError("control: required when schedule.mode='adaptive'")
        if sched["delay"] < 0:
            raise ConfigError("schedule.delay: expected a nonnegative integer")
        # the delay split rule of every interval, on the shortest that holds the delay
        checked("schedule", lambda: IntervalPlan(tau=sched["delay"] + 1, alpha=0.0, eta=1.0,
                                                 delay=sched["delay"], up_delay=sched["up_delay"]))
    radio = None if effective["radio"] is None else checked("radio", lambda: RadioConfig(
        **{k: v for k, v in effective["radio"].items() if k != "placement_seed"}))
    return effective, schedule, control, radio


def build_config(effective: dict, schedule, control, radio) -> ExperimentConfig:
    """The config of a ``check_config`` result: its data, and the checks that need it."""
    # the data last: every check of ``check_config`` is cheaper than building it
    ds, topo, sched = effective["dataset"], effective["topology"], effective["schedule"]
    dataset = checked("dataset", lambda: build_dataset(ds))
    mdl = effective["model"]
    model = checked("model", lambda: LossModel(
        kind=mdl["kind"], feature_dim=dataset.feature_dim,
        regularization=float(mdl["regularization"]),
        num_classes=mdl["num_classes"] if mdl["kind"] == SVM else 1))
    fleet = checked("topology",
                    lambda: build_fleet(topo, subnet_sizes(topo), dataset, model))
    checked("model", lambda: fleet.stack.layout(model))    # the labels suit the model
    checked("dataset", lambda: second_moment(fleet.datasets, fleet.global_weights()))  # finite X'X
    smallest, batch_size = int(fleet.stack.counts.min()), effective["batch_size"]
    if batch_size > smallest:
        raise ConfigError(f"batch_size: {batch_size} exceeds {smallest}, "
                          "the point count of the smallest device")
    # last, after every check: a solve that does not converge is a runtime error
    w_star = fleet.optimum(model) if sched["track_optimality"] else None
    return ExperimentConfig(effective, model, fleet, schedule, control, radio, w_star)


def subnet_sizes(topo: dict) -> list[int]:
    """Devices per subnet: explicit ``subnet_sizes`` or an even split."""
    for fld in ("num_devices", "num_subnets"):
        if topo[fld] < 1:
            raise ConfigError(f"topology.{fld}: expected a positive integer")
    sizes = topo["subnet_sizes"]
    if sizes is None:
        if topo["num_devices"] % topo["num_subnets"]:
            raise ConfigError("topology.num_devices: must divide evenly into num_subnets")
        return [topo["num_devices"] // topo["num_subnets"]] * topo["num_subnets"]
    if not all(_is_a(s, int) and s >= 1 for s in sizes) or sum(sizes) != topo["num_devices"]:
        raise ConfigError("topology.subnet_sizes: expected positive integers summing to num_devices")
    return sizes


def _param_file(section, defaults: dict, where: str) -> tuple[dict, HeterogeneityParams]:
    """A checked parameter-file section and its HeterogeneityParams. After the range checks
    the constructor rejects only mu, omega or omega_c; its message gets the key prefix."""
    values, prefix = _merge(section, defaults, where), f"{where}." if where else ""
    _check_numbers(values, prefix)
    try:
        params = HeterogeneityParams(
            mu=values["mu"], beta=values["beta"], inter_delta=values["delta"],
            inter_zeta=values["zeta"] if values["zeta"] is not None
            else 2.0 * values["omega"] * values["beta"],
            intra_delta=values["delta_c"], intra_zeta=values["zeta_c"],
            sgd_noise=values["sigma"], subnet_noise_budget=values["phi"])
    except ValueError as exc:
        raise ConfigError(re.sub(r"\b(mu|beta|omega|zeta)(_c)?\b", rf"{prefix}\g<0>",
                                 str(exc))) from exc
    return values, params


def _check_numbers(values: dict, prefix: str) -> None:
    """Every number of a merged section is finite and in its ``LEAST_VALUES`` range."""
    for name, value in values.items():
        low, word = LEAST_VALUES.get(name, (-math.inf, ""))
        numbers = value if isinstance(value, list) else [value]
        # a comparison with NaN is false; no float conversion, so a huge int cannot overflow
        if isinstance(value, (int, float, list)) \
                and not all(x >= low and abs(x) <= sys.float_info.max for x in numbers):
            raise ConfigError(f"{prefix}{name} must be {word}finite, got {value}")


def check_bounds(raw: dict) -> tuple[dict, HeterogeneityParams]:
    """The checked values of a ``dflsim bounds`` parameter file, and its params."""
    values, params = _param_file(raw, BOUNDS_DEFAULTS, "")
    checked("", lambda: ControlConfig(safety=values["safety"]))     # the same range
    values.update({k: float(values[k]) for k in ("eta_max", "gamma") if values[k] is not None})
    return values, params


def check_snapshot(raw: dict) -> dict:
    """The ``solve_p`` arguments of a checked ``dflsim control`` snapshot file."""
    snap = _merge(raw, SNAPSHOT_DEFAULTS, "")
    params = _param_file(snap["params"], PARAMS_DEFAULTS, "params")[1]
    costs = _merge(snap["cost"], COST_DEFAULTS, "cost")
    control = control_config(snap["control"])
    _check_numbers(costs, "cost.")
    _check_numbers(snap, "")
    if snap["t_now"] >= control.horizon:
        raise ConfigError(f"t_now: {snap['t_now']} >= control.horizon {control.horizon}")
    weights, gaps, local_energy, local_delay = (np.asarray(values, dtype=np.float64) for values in (
        snap["subnet_weights"], snap["gap_estimates"], costs["local_energy"], costs["local_delay"]))
    # one entry per subnet; delta_c and zeta_c may hold one for all (their default [0.0])
    per_subnet = {"gap_estimates": gaps, "cost.local_energy": local_energy,
                  "cost.local_delay": local_delay, "params.delta_c": params.intra_delta,
                  "params.zeta_c": params.intra_zeta}
    for key, values in per_subnet.items():
        one_for_all = key.startswith("params.") and values.shape == (1,)
        if values.shape != weights.shape and not one_for_all:
            raise ConfigError(f"{key}: shape {values.shape}, expected {weights.shape}: "
                              "one entry per subnet of subnet_weights")
    cost = CostSnapshot(float(costs["global_energy"]), float(costs["global_delay"]),
                        local_energy, local_delay)
    with np.errstate(over="ignore", invalid="ignore"):     # a contribution may overflow
        theta = aggregation_indicators(subnet_contributions(gaps, weights, params), control.phi)
    return dict(cost=cost, params=params, config=control, theta=theta,
                t_now=snap["t_now"], delay=snap["delay"], e3_init=snap["e3_init"])


# ---------------------------------------------------------------------------
# assembly


def build_dataset(ds: dict) -> Dataset:
    """The dataset of a merged ``dataset`` section."""
    rng = stream(ds["seed"], TAG_DATA)
    if ds["kind"] == "blobs":
        return make_blobs(ds["num_classes"], ds["points_per_class"],
                          ds["feature_dim"], ds["spread"], rng,
                          center_scale=ds["center_scale"],
                          orthogonal_centers=ds["orthogonal_centers"])
    if ds["kind"] == "ridge-cloud":
        return make_ridge_cloud(ds["num_points"], ds["feature_dim"], ds["noise"], rng)
    if ds["kind"] == "csv":
        return load_csv(ds["path"])
    return load_idx(ds["path"], ds["labels_path"], limit=ds["limit"])


def build_fleet(topo: dict, sizes: list[int], dataset: Dataset,
                model: LossModel) -> FleetTopology:
    """``dataset`` dealt to the devices of a merged ``topology`` section: label
    skew for the svm, an even random split otherwise. Messages name the field."""
    if topo["num_devices"] > dataset.n:
        raise ValueError(f"num_devices: {topo['num_devices']} devices for "
                         f"{dataset.n} data points")
    rng = stream(topo["partition_seed"], TAG_DATA, 1)
    if model.kind == SVM:
        parts = partition_label_skew(dataset, topo["num_devices"],
                                     topo["labels_per_device"], rng)
    else:
        idx = rng.permutation(dataset.n)
        parts = [dataset.subset(chunk) for chunk in np.array_split(idx, topo["num_devices"])]
    return build_topology(parts, sizes)
