"""CLI harness: run/sweep/bounds/control/validate, manifests, round trips."""

import csv
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import dflsim
from dflsim import cli
from dflsim.config import parse_config, load_config
from dflsim.engine import EVENT_COLUMNS, METRIC_COLUMNS, RunResult
from dflsim.validate import SUITES

MINIMAL = {
    "dataset": {"kind": "ridge-cloud", "num_points": 60, "feature_dim": 3,
                "noise": 0.2, "seed": 7},
    "model": {"kind": "ridge", "regularization": 0.1},
    "topology": {"num_devices": 4, "num_subnets": 2},
    "schedule": {"mode": "fixed", "num_intervals": 4, "tau": 6, "alpha": 0.3,
                 "eta": 0.05, "delay": 2, "local_agg_period": 3},
    "seeds": [0],
    "batch_size": 5,
    "output_dir": "runs/test",
}

BOUNDS_PARAMS = {"mu": 0.5, "beta": 2.0, "omega": 0.1, "delta": 0.3,
                 "sigma": 0.5, "phi": 0.2, "tau": 8, "delay": 2, "alpha": 0.0,
                 "e3_init": 1.0}
CONTROL_SNAPSHOT = {
    "params": {"mu": 0.5, "beta": 2.0, "omega": 0.0, "delta": 0.1,
               "sigma": 0.5, "phi": 0.2, "delta_c": [0.1, 0.1],
               "zeta_c": [0.0, 0.0]},
    "cost": {"global_energy": 0.5, "global_delay": 0.2,
             "local_energy": [0.01, 0.02], "local_delay": [0.001, 0.002]},
    "control": {"tau_max": 8, "alpha_step": 0.25, "horizon": 80,
                "phi": 0.2},
    "subnet_weights": [0.5, 0.5],
    "gap_estimates": [1.0, 0.5],
    "delay": 2,
    "t_now": 0,
    "e3_init": 1.0,
}
BASE_INPUTS = {"run": MINIMAL, "sweep": MINIMAL, "bounds": BOUNDS_PARAMS,
               "control": CONTROL_SNAPSHOT}
DROP = object()
REPO = Path(__file__).resolve().parents[1]


def read_metrics_csv(path) -> dict:
    """Lossless reload of a metrics CSV into column arrays."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    table = np.asarray(rows)
    return {name: table[:, i] for i, name in enumerate(header)}


class File(NamedTuple):
    """A data file the test writes under its working directory; the field names it."""

    name: str
    data: bytes


# 60 images of 1x3 pixels and their 60 labels, the shape of MINIMAL's data
IDX_IMAGES = File("imgs.idx", struct.pack(">IIII", 0x803, 60, 1, 3) + bytes(180))
IDX_LABELS = File("labs.idx", struct.pack(">II", 0x801, 60) + bytes(60))


def write_config(tmp_path, overrides=None, **top):
    blob = json.loads(json.dumps(MINIMAL))
    for key, val in (overrides or {}).items():
        section, field = key.split(".")
        blob[section][field] = val
    blob.update(top)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    return path


def test_run_smoke_and_row_count(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    metrics = (out / "run_seed0_metrics.csv").read_text().splitlines()
    assert metrics[0] == "t,k,loss,gap,e1,e2,e3,cum_energy,cum_delay"
    assert len(metrics) == 1 + 24 + 1  # header + T steps + initial state row
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seeds"] == [0]
    assert "final_loss" in manifest["summary"]["0"]


def test_manifest_stamps_the_environment(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "dflsim": dflsim.__version__}


def test_run_byte_identical(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", str(path), "--output", str(out1)])
    cli.main(["run", str(path), "--output", str(out2)])
    assert (out1 / "run_seed0_metrics.csv").read_bytes() \
        == (out2 / "run_seed0_metrics.csv").read_bytes()
    assert (out1 / "run_seed0_events.csv").read_bytes() \
        == (out2 / "run_seed0_events.csv").read_bytes()


def test_run_missing_field_exit_code(tmp_path, capsys):
    blob = json.loads(json.dumps(MINIMAL))
    del blob["schedule"]["tau"]
    blob["schedule"]["mode"] = "fixed"
    blob["schedule"]["num_intervals"] = 0  # invalid on purpose
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["run", str(path)]) == 2
    assert "num_intervals" in capsys.readouterr().err


def test_run_invalid_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2


def test_unknown_field_named(tmp_path, capsys):
    path = write_config(tmp_path, overrides={"schedule.bogus": 1})
    assert cli.main(["run", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, field", [
    ("run", {"control.alpha_step": 2}, "control.alpha_step"),
    ("run", {"control.tau_max": 1}, "control.tau_max"),
    ("run", {"radio.bandwidth_hz": -1}, "radio.bandwidth_hz"),
    ("run", {"radio.bits_per_parameter": 0}, "radio.bits_per_parameter"),
    ("run", {"topology.num_subnets": 0}, "topology.num_subnets"),
    ("run", {"topology.num_devices": 0}, "topology.num_devices"),
    ("run", {"schedule.delay": 4, "schedule.up_delay": 5}, "schedule.up_delay"),
    ("run", {"schedule.eta": "abc"}, "schedule.eta"),
    ("run", {"schedule.metrics_every": 0}, "schedule.metrics_every"),
    ("run", {"model.regularization": "x"}, "model.regularization"),
    ("run", {"model.kind": "svm", "model.num_classes": 1}, "model.num_classes"),
    ("run", {"dataset.kind": "csv", "dataset.path": "no_such_dir/points.csv"},
     "dataset.path"),
    ("bounds", {"mu": DROP}, "mu"),
    ("bounds", {"mu": 3.0}, "mu"),
    ("control", {"control.bogus": 1}, "control.bogus"),
    ("run", {"schedule.local_agg_period": 0}, "schedule.local_agg_period"),
    ("run", {"schedule.local_agg_period": -2}, "schedule.local_agg_period"),
    ("run", {"model.kind": "svm", "dataset.kind": "blobs",
             "topology.labels_per_device": 0}, "topology.labels_per_device"),
    ("run", {"model.kind": "svm", "dataset.kind": "blobs", "dataset.num_classes": 4,
             "model.num_classes": 4, "topology.labels_per_device": 5},
     "topology.labels_per_device"),
    ("run", {"schedule.mode": "adaptive", "control.horizon": 40, "schedule.delay": 10,
             "schedule.up_delay": -1}, "schedule.up_delay"),
    ("run", {"schedule.mode": "adaptive", "control.horizon": 40, "schedule.delay": 10,
             "schedule.up_delay": 50}, "schedule.up_delay"),
    ("run", {"seeds": [0, -1]}, "seeds"),
    ("run", {"dataset.seed": -1}, "dataset.seed"),
    ("run", {"topology.partition_seed": -1}, "topology.partition_seed"),
    ("run", {"radio.placement_seed": -1}, "radio.placement_seed"),
    ("run --seed-offset -1", {}, "seeds"),
    ("sweep --axis schedule.tau --values 6 --seed-offset -1", {}, "seeds"),
    # faults that show only once the data is built: 60 points, 15 on each device
    ("run", {"batch_size": 16}, "batch_size"),
    ("run", {"topology.num_devices": 80}, "topology.num_devices"),
    ("run", {"dataset.num_points": -3}, "dataset.num_points"),
    ("run", {"dataset.feature_dim": 0}, "dataset.feature_dim"),
    ("run", {"dataset.kind": "blobs", "dataset.num_classes": 4,
             "dataset.orthogonal_centers": True}, "dataset.orthogonal_centers"),
    ("run", {"model.kind": "svm", "dataset.kind": "blobs",
             "dataset.points_per_class": 0}, "dataset.points_per_class"),
    ("run", {"dataset.kind": "blobs", "dataset.num_classes": 0}, "dataset.num_classes"),
    ("run", {"model.kind": "svm", "dataset.kind": "blobs", "dataset.num_classes": 4,
             "model.num_classes": 3, "topology.labels_per_device": 2}, "model.num_classes"),
    ("run", {"schedule.alpha": 1.0}, "schedule.alpha"),     # the one alpha = 1 guard
    # a faulty data file: the field, then the file
    ("run", {"dataset.kind": "csv", "dataset.path": File("bad.csv", b"x,y\n1,2\n")},
     "dataset.path: bad.csv: expected header row starting with 'y'"),
    ("run", {"dataset.kind": "csv", "dataset.path": File("ragged.csv", b"y,x1\n1,2\n3\n")},
     "dataset.path: ragged.csv:3: expected 2 fields, got 1"),
    ("run", {"dataset.kind": "csv", "dataset.path": File("empty.csv", b"y,x1\n")},
     "dataset.path: empty.csv: no data rows"),
    ("run", {"dataset.kind": "csv", "dataset.path": File("nan.csv", b"y,x1\n1,nan\n")},
     "dataset.path: nan.csv: dataset contains non-finite entries"),
    ("run", {"dataset.kind": "idx", "dataset.path": IDX_LABELS,
             "dataset.labels_path": IDX_LABELS}, "dataset.path: labs.idx: not an IDX image"),
    ("run", {"dataset.kind": "idx", "dataset.path": IDX_IMAGES,
             "dataset.labels_path": IDX_IMAGES},
     "dataset.labels_path: imgs.idx: not an IDX label file"),
    ("run", {"dataset.kind": "idx", "dataset.path": IDX_IMAGES,
             "dataset.labels_path": File("short.idx", IDX_LABELS.data[:-1])},
     "dataset.labels_path: short.idx: 59 bytes for 60 values"),
    # a malformed or empty sweep list, before any output is written
    ("sweep --axis schedule.delay --values 0,abc", {}, "--values: '0,abc' is not"),
    ("sweep --axis schedule.delay --values=", {}, "--values: empty list"),
    # NaN fails every range check: each is written so that a comparison with NaN rejects
    ("run", {"radio.bandwidth_hz": math.nan}, "radio.bandwidth_hz"),
    ("run", {"control.phi": math.nan}, "control.phi"),
    ("run", {"control.energy_weight": math.nan}, "control.energy_weight"),
    ("run", {"control.delay_weight": math.nan}, "control.delay_weight"),
    ("run", {"control.bound_weight": math.nan, "control.energy_weight": 1.0},
     "control.bound_weight"),
    ("run", {"control.probe_scale": math.nan}, "control.probe_scale"),
    ("run", {"control.probe_scale": 0}, "control.probe_scale"),
    ("run", {"schedule.eta": math.nan}, "schedule.eta"),
    ("run", {"model.regularization": math.nan}, "model.regularization"),
    # every radio value is finite, the two dB levels included
    ("run", {"radio.noise_density_dbm_hz": math.nan}, "radio.noise_density_dbm_hz"),
    ("run", {"radio.pathloss_ref_db": -math.inf}, "radio.pathloss_ref_db"),
    ("run", {"radio.bandwidth_hz": math.inf}, "radio.bandwidth_hz"),
    ("run", {"radio.edge_cloud_latency_s": math.inf}, "radio.edge_cloud_latency_s"),
    # a repeated seed would run twice and write one output pair
    ("run", {"seeds": [1, 0, 1]}, "seeds"),
    # the first interval and the bootstrap probes of the controller
    ("run", {"control.initial_tau": 0}, "control.initial_tau"),
    ("run", {"control.initial_tau": -1}, "control.initial_tau"),
    ("run", {"control.probe_count": 1}, "control.probe_count"),
    # +inf passes a check that only rejects NaN; phi = inf alone is legal (never aggregates)
    ("run", {"model.regularization": math.inf}, "model.regularization"),
    ("run", {"schedule.eta": math.inf}, "schedule.eta"),
    ("run", {"control.probe_scale": math.inf}, "control.probe_scale"),
    ("run", {"control.energy_weight": math.inf}, "control.energy_weight"),
    ("run", {"control.delay_weight": math.inf}, "control.delay_weight"),
    ("run", {"control.bound_weight": math.inf}, "control.bound_weight"),
    # a sweep checks every value before its first run; a repeated value would run twice
    ("sweep --axis schedule.delay --values 0,100", {}, "schedule.delay"),
    ("sweep --axis schedule.delay --values 1,1", {}, "--values"),
    # every per-subnet array has one entry per subnet weight, or delta_c/zeta_c one in all
    ("control", {"gap_estimates": [1.0, 0.5, 0.2]}, "gap_estimates"),
    ("control", {"subnet_weights": [0.4, 0.3, 0.3]}, "subnet_weights"),
    ("control", {"params.delta_c": [0.1, 0.1, 0.1]}, "params.delta_c"),
    ("control", {"params.zeta_c": [0.0, 0.0, 0.0]}, "params.zeta_c"),
    ("control", {"cost.local_energy": [0.01]}, "cost.local_energy"),
    ("control", {"cost.local_delay": [0.001, 0.002, 0.003]}, "cost.local_delay"),
    ("control", {"gap_estimates": [1.0, -0.5]}, "gap_estimates"),
    ("control", {"gap_estimates": [math.nan, 0.5]}, "gap_estimates"),
    ("control", {"gap_estimates": [math.inf, 0.5]}, "gap_estimates"),
    ("control", {"subnet_weights": [math.nan, 0.5]}, "subnet_weights"),
    ("control", {"subnet_weights": [-3.0, 0.5]}, "subnet_weights"),
    ("control", {"delay": "x"}, "delay"),
    ("bounds", {"alpha": "x"}, "alpha"),
    ("bounds", {"e3_init": [1.0]}, "e3_init"),
    ("bounds", {"tau": DROP}, "tau"),
    # a worker count below 1 would fall back to a serial run
    ("run --workers 0", {}, "--workers"),
    ("run --workers -3", {}, "--workers"),
    ("sweep --axis schedule.delay --values 0 --workers 0", {}, "--workers"),
    # the parameter files go through the schema checker of every config section
    ("bounds", {"tau": 8.7}, "tau"),
    ("control", {"delay": 2.5}, "delay"),
    ("bounds", {"tau": True}, "tau"),
    ("bounds", {"tau": -3}, "tau"),
    ("bounds", {"sigma": DROP, "sigmaa": 0.5}, "sigmaa"),
    ("bounds", {"sigma": None}, "sigma"),
    ("bounds", {"delta_c": ["x"]}, "delta_c"),
    ("control", {"subnet_weights": ["x", 0.5]}, "subnet_weights"),
    ("control", {"cost.global_energy": "x"}, "cost.global_energy"),
    ("bounds", {"e3_init": math.nan}, "e3_init"),
    ("bounds", {"sigma": math.inf}, "sigma"),
    ("bounds", {"safety": 1.5}, "safety"),
    ("control", {"t_now": -5}, "t_now"),
    ("control", {"t_now": 200}, "t_now"),
    ("control", {"cost.global_energy": math.nan}, "cost.global_energy"),
    ("control", {"cost.global_energy": -1}, "cost.global_energy"),
    ("control", {"bogus": 1}, "bogus"),
    ("control", {"params.bogus": 1}, "params.bogus"),
    # a horizon below 1 ran no slot and exited 0
    ("run", {"schedule.mode": "adaptive", "control.horizon": 0}, "control.horizon"),
    ("control", {"control.horizon": -1}, "control.horizon"),
    # the data scales are checked by name before any data is built
    ("run", {"dataset.noise": math.inf}, "dataset.noise"),
    ("run", {"dataset.kind": "blobs", "dataset.spread": math.nan}, "dataset.spread"),
    ("run", {"dataset.kind": "blobs", "dataset.center_scale": -math.inf},
     "dataset.center_scale"),
    ("run", {"dataset.kind": "blobs", "dataset.spread": 10 ** 400}, "dataset.spread"),
    # finite, but the features' second moment overflows: refused once the data is built
    ("run", {"dataset.kind": "blobs", "dataset.spread": 1e300}, "dataset.features"),
    # an explicit subnet split that misses a device; an even split that cannot be made
    ("run", {"topology.num_devices": 8, "topology.subnet_sizes": [3, 4]},
     "topology.subnet_sizes"),
    ("run", {"topology.num_devices": 8, "topology.num_subnets": 3}, "topology.num_devices"),
    # the controller's tau range, gamma safety and cost weights, and the backhaul latency
    ("run", {"control.tau_min": 9, "control.tau_max": 8}, "control.tau_min"),
    ("run", {"control.gamma_safety": 1.5}, "control.gamma_safety"),
    ("run", {"control.energy_weight": 0, "control.delay_weight": 0,
             "control.bound_weight": 0}, "control.bound_weight"),
    ("run", {"radio.edge_cloud_latency_s": -1}, "radio.edge_cloud_latency_s"),
    # a lone step size or gamma would be dropped for the auto-selected pair
    ("bounds", {"eta_max": 0.01}, "gamma: required"),
    ("bounds", {"gamma": 0.001}, "eta_max: required"),
    # the batch size, the kinds and modes, the adaptive schedule and a sweep axis
    ("run", {"batch_size": 0}, "batch_size"),
    ("run", {"dataset.kind": "bogus"}, "dataset.kind"),
    ("run", {"model.kind": "bogus"}, "model.kind"),
    ("run", {"schedule.mode": "bogus"}, "schedule.mode"),
    ("run", {"schedule.mode": "adaptive"}, "control: required"),
    ("run", {"schedule.mode": "adaptive", "control.horizon": 40, "schedule.delay": -1},
     "schedule.delay"),
    ("sweep --axis seeds.x --values 1", {}, "seeds.x"),
    # new rows go here, at the end: a dict row's id holds its place in this list
], ids=lambda v: v if isinstance(v, str) else None)
def test_bad_input_exits_2_naming_field(tmp_path, capsys, monkeypatch, command, overrides,
                                        field):
    monkeypatch.chdir(tmp_path)     # where a File override is written
    argv = command.split()      # the subcommand, then any flags
    blob = json.loads(json.dumps(BASE_INPUTS[argv[0]]))
    if argv[0] in ("run", "sweep"):
        blob["output_dir"] = str(tmp_path / "out")
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        node = blob
        for part in parents:
            node = node.setdefault(part, {})
        if value is DROP:
            del node[leaf]
        elif isinstance(value, File):
            Path(value.name).write_bytes(value.data)
            node[leaf] = value.name
        else:
            node[leaf] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    assert cli.main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert not (tmp_path / "out").exists()      # nothing is written


@pytest.mark.parametrize("command", ["run", "sweep", "bounds", "control"])
def test_a_missing_or_non_object_input_file_exits_2_naming_it(tmp_path, capsys, command):
    flags = ["--axis", "schedule.tau", "--values", "6"] if command == "sweep" else []
    missing, array = tmp_path / "absent.json", tmp_path / "array.json"
    array.write_text("[1, 2]")
    for path, reason in ((missing, "cannot read"), (array, "expected a JSON object")):
        assert cli.main([command, str(path), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: {reason}")


def test_a_radio_sweep_of_a_radio_less_config_prices_its_events(tmp_path):
    path = write_config(tmp_path)       # MINIMAL has no radio section
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--axis", "radio.bandwidth_hz",
                     "--values", "2e6", "--output", str(out)]) == 0
    sub = out / "sweep_radio_bandwidth_hz_2000000.0"
    manifest = json.loads((sub / "radio_bandwidth_hz_2000000.0_manifest.json").read_text())
    assert manifest["effective_config"]["radio"]["bandwidth_hz"] == 2e6
    with (sub / "radio_bandwidth_hz_2000000.0_seed0_events.csv").open(newline="") as handle:
        local = [row for row in csv.DictReader(handle) if row["kind"] == "local"]
    assert local and all(float(row["energy_j"]) > 0 for row in local)


def test_csv_labels_per_device_above_label_count_exits_2(tmp_path, capsys):
    # the label count of a file dataset is known only once it is loaded
    rows = ["y,x1,x2"] + [f"{i % 3},{0.1 * i},{0.2 * i}" for i in range(30)]
    data = tmp_path / "points.csv"
    data.write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path, overrides={
        "dataset.kind": "csv", "dataset.path": str(data), "model.kind": "svm",
        "model.num_classes": 3, "topology.labels_per_device": 4})
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: topology.labels_per_device") and "[1, 3]" in err
    assert not (tmp_path / "out").exists()


def test_regression_labels_under_the_default_svm_name_the_model(tmp_path, capsys):
    # without its model section the ridge config gets the svm kind, whose labels
    # are checked before the partition deals them out by label
    blob = json.loads((REPO / "configs" / "minimal_ridge.json").read_text())
    del blob["model"]
    path = tmp_path / "ridge.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model.num_classes: svm labels must be integers")
    assert not (tmp_path / "out").exists()


def test_a_multi_seed_run_builds_the_data_once(tmp_path, monkeypatch):
    from dflsim import config

    calls = count_calls(monkeypatch, config, "build_dataset", "build_fleet")
    path = write_config(tmp_path, seeds=[0, 1, 2, 3, 4])
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert calls == {"build_dataset": 1, "build_fleet": 1}


def count_calls(monkeypatch, module, *names) -> dict:
    """Call counts of ``module``'s functions ``names``, wrapped in place."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_multi_seed_run_solves_the_optimum_once(tmp_path, monkeypatch):
    from dflsim import fleet

    calls = count_calls(monkeypatch, fleet, "solve_optimum")
    blob = json.loads((REPO / "configs" / "minimal_ridge.json").read_text())
    blob["seeds"] = [0, 1, 2, 3, 4]
    path = tmp_path / "ridge.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert calls == {"solve_optimum": 1}
    assert len(list((tmp_path / "out").glob("*_metrics.csv"))) == 5


def test_an_optimum_that_does_not_converge_exits_1_before_any_output(tmp_path, monkeypatch,
                                                                     capsys):
    from dflsim import fleet
    from dflsim.errors import ConvergenceError

    def stuck(*args):
        raise ConvergenceError("no convergence; gradient norm 1.0")

    monkeypatch.setattr(fleet, "solve_optimum", stuck)
    path = write_config(tmp_path)
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("ConvergenceError: no convergence")
    assert not (tmp_path / "out").exists()


def test_an_allocation_failure_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    # the (m, m) normal matrix of a ridge optimum with feature_dim 1e6, not allocated here
    from dflsim import fleet

    message = ("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
               "and data type float64")

    def too_big(*args):
        raise MemoryError(message)

    monkeypatch.setattr(fleet, "solve_optimum", too_big)
    path = write_config(tmp_path)
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"MemoryError: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_fixed_schedule_sums_subnets_only_in_the_slots_that_read_them(tmp_path,
                                                                       monkeypatch):
    # label_skew_svm: 10 intervals of 20 slots aggregating every 5th slot, the
    # capture at slot 10 among them: 40 slots read the sums, then the fleet
    # averages of 5 flushes: the t=0 row, then 20 rows in pieces of
    # 32768 // (50*120) = 5; 200 slots would be 205
    from dflsim.fleet import FleetTopology

    calls = count_calls(monkeypatch, FleetTopology, "subnet_sums")
    blob = json.loads((REPO / "configs" / "label_skew_svm.json").read_text())
    blob["seeds"] = [0]
    path = tmp_path / "svm.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert calls == {"subnet_sums": 45}


def test_a_replica_run_builds_its_layout_once_and_checks_no_slot(monkeypatch):
    from dflsim.engine import IntervalPlan, TrainingSchedule, run_training
    from dflsim.losses import DeviceStack, LossModel
    from dflsim.validate import theorem_problem

    layouts = count_calls(monkeypatch, DeviceStack, "_build_layout")
    prob = theorem_problem(batch_size=1)
    every_slot = tuple(range(1, 7))
    plan = IntervalPlan(tau=6, alpha=0.5, eta=0.05, delay=2,
                        local_agg_offsets=(every_slot, every_slot))
    checks = count_calls(monkeypatch, LossModel, "check_points", "check_vector")
    res = run_training(prob.topology, prob.model, TrainingSchedule((plan,) * 50), seed=0,
                       batch_size=1, w_star=prob.w_star, metrics_every=6)
    assert res.metrics["t"][-1] == 300
    assert layouts == {"_build_layout": 1}
    # Protocol checks w_star once; no slot and no metrics row checks a model vector
    assert checks == {"check_points": 0, "check_vector": 1}


def test_a_sweep_builds_each_swept_config_once(tmp_path, monkeypatch):
    from dflsim import config

    calls = count_calls(monkeypatch, config, "build_dataset", "build_fleet")
    argv = ["sweep", str(REPO / "configs" / "minimal_ridge.json"), "--axis",
            "schedule.delay", "--values", "0,4", "--output", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert calls == {"build_dataset": 2, "build_fleet": 2}


def test_a_seeds_sweep_runs_the_swept_seeds(tmp_path):
    path = write_config(tmp_path, seeds=[0, 1])
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--axis", "seeds", "--values", "[3]",
                     "--output", str(out)]) == 0
    sub = out / "sweep_seeds_[3]"
    manifest = json.loads((sub / "seeds_[3]_manifest.json").read_text())
    assert manifest["seeds"] == manifest["effective_config"]["seeds"] == [3]
    assert sorted(p.name for p in sub.glob("*_metrics.csv")) == ["seeds_[3]_seed3_metrics.csv"]
    rows = (out / "sweep_seeds.csv").read_text().splitlines()[1:]
    assert {row.split(",")[2] for row in rows} == {"3"}


@pytest.mark.parametrize("command, key, value, internal", [
    ("bounds", "sigma", -1.0, "sgd_noise"),
    ("bounds", "delta", -1.0, "inter_delta"),
    ("bounds", "phi", -1.0, "subnet_noise_budget"),
    ("bounds", "zeta", -1.0, "inter_zeta"),
    ("control", "params.delta_c", [-0.1, 0.1], "intra_delta"),
    ("control", "params.zeta_c", [-0.1, 0.0], "intra_zeta"),
    # NaN fails the range checks too
    ("bounds", "delta", math.nan, "inter_delta"),
    ("control", "params.delta_c", [math.nan, 0.1], "intra_delta"),
])
def test_param_file_errors_name_the_file_keys(tmp_path, capsys, command, key, value,
                                              internal):
    blob = json.loads(json.dumps(BASE_INPUTS[command]))
    *parents, leaf = key.split(".")
    node = blob
    for part in parents:
        node = node[part]
    node[leaf] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(blob))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be nonnegative"), err
    assert internal not in err


def test_config_hash_changes_iff_effective_changes(tmp_path):
    a = parse_config(json.loads(json.dumps(MINIMAL)))
    b = parse_config(json.loads(json.dumps(MINIMAL)))
    assert a.config_hash() == b.config_hash()
    blob = json.loads(json.dumps(MINIMAL))
    blob["schedule"]["tau"] = 7
    c = parse_config(blob)
    assert c.config_hash() != a.config_hash()
    # defaults are echoed: explicitly writing a default value changes nothing
    blob2 = json.loads(json.dumps(MINIMAL))
    blob2["schedule"]["metrics_every"] = 1
    d = parse_config(blob2)
    assert d.config_hash() == a.config_hash()


def test_metrics_csv_round_trip(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "rt"
    cli.main(["run", str(path), "--output", str(out)])
    table = read_metrics_csv(out / "run_seed0_metrics.csv")
    again = out / "again.csv"
    # rewrite from the parsed columns and compare byte-for-byte
    with again.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(table))
        for row in zip(*table.values()):
            writer.writerow([int(v) if name in ("t", "k") else repr(float(v))
                             for name, v in zip(table, row)])
    assert again.read_bytes() == (out / "run_seed0_metrics.csv").read_bytes()


def test_seed_offset(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "off"
    cli.main(["run", str(path), "--seed-offset", "5", "--output", str(out)])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seeds"] == [5]


def test_sweep_axis_and_empty_values(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "sw"
    assert cli.main(["sweep", str(path), "--axis", "schedule.alpha",
                     "--values", "0.0,0.5", "--output", str(out)]) == 0
    table = (out / "sweep_schedule_alpha.csv").read_text().splitlines()
    assert table[0] == "axis,value,seed,metric,metric_value"
    values = {line.split(",")[1] for line in table[1:]}
    assert values == {"0.0", "0.5"}
    assert cli.main(["sweep", str(path), "--axis", "schedule.alpha",
                     "--values", "", "--output", str(out)]) == 2


def test_sweep_workers_match_serial(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    cli.main(["run", str(path), "--output", str(out1)])
    cli.main(["run", str(path), "--workers", "2", "--output", str(out2)])
    assert (out1 / "run_seed0_metrics.csv").read_bytes() \
        == (out2 / "run_seed0_metrics.csv").read_bytes()
    # a radio-on config: its events and manifest too
    path = write_config(tmp_path, radio={}, seeds=[0, 1])
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", str(path), "--output", str(out1)]) == 0
    assert cli.main(["run", str(path), "--workers", "2", "--output", str(out2)]) == 0
    for name in ("run_seed0_events.csv", "run_seed1_events.csv", "run_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert len((out1 / "run_seed1_events.csv").read_text().splitlines()) > 1


def write_metrics_rowwise(path, result):
    """The metrics CSV as ``csv.writer`` wrote it row by row: the reference bytes."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRIC_COLUMNS)
        columns = [result.metrics[name] for name in METRIC_COLUMNS]
        for row in zip(*columns):
            writer.writerow([int(v) if name in ("t", "k") else repr(float(v))
                             for name, v in zip(METRIC_COLUMNS, row)])


def write_events_rowwise(path, result):
    """The events CSV as ``csv.writer`` wrote it from ``RunResult.events``."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "kind", "subnet", "energy_j", "delay_s"])
        for ev in result.events:
            writer.writerow([ev.t, ev.kind, ev.subnet,
                             repr(float(ev.energy_j)), repr(float(ev.delay_s))])


EDGE_FLOATS = [5e-324, -5e-324, 1e308, -1.7976931348623157e308, -0.0, 0.0, math.nan,
               math.inf, -math.inf, 0.1, 1e16, 123456789.0]
EDGE_INTS = [0, -1, 2**31, 2**53 + 1, 2**63 - 1, -2**63]


@pytest.mark.parametrize("rows_per_write", [5, cli.ROWS_PER_WRITE])
@pytest.mark.parametrize("num_events", [0, len(EDGE_FLOATS)])
def test_the_column_formatter_writes_the_bytes_of_csv_writer(tmp_path, monkeypatch, num_events,
                                                              rows_per_write):
    monkeypatch.setattr(cli, "ROWS_PER_WRITE", rows_per_write)
    floats = np.array(EDGE_FLOATS)
    ints = np.resize(np.array(EDGE_INTS, dtype=np.int64), floats.size)
    metrics = {name: ints if name in ("t", "k") else np.roll(floats, j)
               for j, name in enumerate(METRIC_COLUMNS)}
    events = dict(zip(EVENT_COLUMNS, (
        ints[::-1], np.where(ints < 0, "global", "local"), ints, floats, floats[::-1])))
    result = RunResult(metrics, {name: column[:num_events] for name, column in events.items()},
                       np.array([]), np.zeros(1))
    for name, write, header, columns in [
            ("metrics", write_metrics_rowwise, METRIC_COLUMNS, result.metrics),
            ("events", write_events_rowwise, EVENT_COLUMNS, result.event_columns)]:
        write(tmp_path / f"{name}_rowwise.csv", result)
        cli._write_csv(tmp_path / f"{name}.csv", header, [columns[n] for n in header])
        assert (tmp_path / f"{name}.csv").read_bytes() \
            == (tmp_path / f"{name}_rowwise.csv").read_bytes(), name
    # a sweep table's mixed rows: JSON values, quoted fields, Python floats and ints
    values = ["a,b", 'say "hi"', "two\nlines", "cr\r", "", None, True, [1, 2], 2**70,
              *EDGE_FLOATS]
    metrics = [*EDGE_FLOATS, *EDGE_INTS]
    rows = [("schedule.alpha", value, seed, "final_loss", metrics[seed % len(metrics)])
            for seed, value in enumerate(values)]
    header = ("axis", "value", "seed", "metric", "metric_value")
    with (tmp_path / "sweep_rowwise.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    cli._write_csv(tmp_path / "sweep.csv", header, list(zip(*rows)))
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "sweep_rowwise.csv").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_floating_point_warning_exits_1_in_one_line(tmp_path, monkeypatch, capsys, workers):
    def overflowing_step(*args, **kwargs):
        return np.float64(1e308) * 10.0

    monkeypatch.setattr(cli, "run_training", overflowing_step)
    path = write_config(tmp_path, seeds=[0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the CLI's own filter decides
        code = cli.main(["run", str(path), "--workers", workers,
                         "--output", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "RuntimeWarning: overflow encountered in scalar multiply\n"
    assert not list((tmp_path / "out").glob("*"))


def test_bounds_subcommand(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(BOUNDS_PARAMS))
    assert cli.main(["bounds", str(path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    for key in ("C1", "C2", "C3", "K1", "K2", "Y1", "Y2", "Y3",
                "alpha_star", "eta_max_limit", "gamma_limit", "nu_0"):
        assert key in blob
    assert blob["lambda_plus"] > 0 > blob["lambda_minus"]


def test_control_subcommand(tmp_path, capsys):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(CONTROL_SNAPSHOT))
    assert cli.main(["control", str(path)]) == 0
    decision = json.loads(capsys.readouterr().out)
    assert 2 <= decision["tau_next"] <= 8
    assert 0.0 <= decision["alpha_next"] < 1.0


def without(blob: dict, *keys) -> dict:
    return {key: value for key, value in blob.items() if key not in keys}


# valid parameter files whose stdout is pinned byte for byte in tests/golden/<name>.json
GOLDEN_PARAM_FILES = {
    "bounds_base": BOUNDS_PARAMS,
    "bounds_eta_gamma": {**BOUNDS_PARAMS, "eta_max": 0.003, "gamma": 0.0008},
    "bounds_safety_zeta": {**without(BOUNDS_PARAMS, "omega"), "zeta": 0.3, "safety": 0.5},
    "control_base": CONTROL_SNAPSHOT,
    "control_no_intra": {**CONTROL_SNAPSHOT,
                         "params": without(CONTROL_SNAPSHOT["params"], "delta_c", "zeta_c")},
    "control_no_control": without(CONTROL_SNAPSHOT, "control"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PARAM_FILES))
def test_param_file_output_is_byte_identical_to_golden(tmp_path, capsys, name):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(GOLDEN_PARAM_FILES[name]))
    assert cli.main([name.split("_")[0], str(path)]) == 0
    golden = (REPO / "tests" / "golden" / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_an_unweighted_cost_that_overflows_leaves_the_decision_alone(tmp_path, capsys):
    # energy_weight is 0 by default: a 1e308 energy makes energy_term inf, not the objective NaN
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**CONTROL_SNAPSHOT,
                                "cost": {**CONTROL_SNAPSHOT["cost"], "global_energy": 1e308}}))
    assert cli.main(["control", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)
    golden = json.loads((REPO / "tests" / "golden" / "control_base.json").read_text())
    assert (got["tau_next"], got["alpha_next"]) == (golden["tau_next"], golden["alpha_next"])
    assert got["energy_term"] == math.inf


def test_readme_table_lists_every_parameter_file_key_and_which_are_required():
    from dflsim import config

    table = (REPO / "README.md").read_text().split("| File key |")[1].split("\n\n")[0]
    rows = [line.strip("|").split("|") for line in table.splitlines()[2:]]
    documented = {key: row[3].strip() == "required"
                  for row in rows for key in re.findall(r"`(\w+)`", row[0])}
    schema = {**config.BOUNDS_DEFAULTS, **config.SNAPSHOT_DEFAULTS, **config.COST_DEFAULTS}
    assert documented == {key: isinstance(default, type) for key, default in schema.items()}


# one key at a time: drop it, or give it one of these values (1e308 is 2**31 for an int)
MUTATIONS = [DROP, "x", [1], True, None, -1, 0, 1e308, math.nan, math.inf, -math.inf]


def key_paths(blob: dict) -> list[tuple]:
    """Every key of a file: top level, one level down, and each list's first entry."""
    paths = []
    for key, value in blob.items():
        children = [(key, sub) for sub in value] if isinstance(value, dict) else []
        for path, leaf in [((key,), value)] + [(p, value[p[1]]) for p in children]:
            paths += [path, path + (0,)] if isinstance(leaf, list) else [path]
    return paths


def mutated(blob: dict, path: tuple, value):
    out = node = json.loads(json.dumps(blob))
    for part in path[:-1]:
        node = node[part]
    if value is DROP:
        del node[path[-1]]
    else:
        huge = isinstance(node[path[-1]], int) and value == 1e308
        node[path[-1]] = 2 ** 31 if huge else value
    return out


# faults past the file check, in the controller's arithmetic: each must still fault
KNOWN_FAULTS = {}


@pytest.mark.parametrize("command", ["bounds", "control"])
def test_every_mutation_of_a_parameter_file_exits_cleanly(tmp_path, capsys, command):
    """Exit 2 naming the key, exit 1 with one ``<DFLError subclass>: ...`` line, or
    exit 0 with JSON that holds no NaN; never an uncaught exception."""
    from dflsim import errors

    path, faults = tmp_path / "input.json", []
    for keys in key_paths(BASE_INPUTS[command]):
        dotted = ".".join(k for k in keys if isinstance(k, str))
        for value in MUTATIONS:
            path.write_text(json.dumps(mutated(BASE_INPUTS[command], keys, value)))
            case = f"{keys} = {'drop' if value is DROP else value!r}"
            try:
                code, escaped = cli.main([command, str(path)]), ""
            except Exception as exc:        # noqa: BLE001 -- every escape is a fault
                code, escaped = None, f"uncaught {type(exc).__name__}: {exc}"
            out, err = capsys.readouterr()
            err = escaped or err
            kind = getattr(errors, err.partition(":")[0], None)
            clean = code == 2 and err.startswith("config error: ") and dotted in err \
                or code == 1 and isinstance(kind, type) and issubclass(kind, errors.DFLError) \
                and err.count("\n") == 1 \
                or code == 0 and "NaN" not in out and bool(json.loads(out))
            if clean == (case in KNOWN_FAULTS.get(command, ())):
                faults.append(f"{case}: exit {code}, {err.strip() or out}")
    assert not faults, "\n".join(faults)


def test_validate_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["validate", "nonsense"])


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_validate_quick_suite_passes(suite, capsys):
    assert cli.main(["validate", suite, "--quick"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    golden = REPO / "tests" / "golden" / f"validate_{suite}_quick.txt"
    assert out == golden.read_text()


def test_checked_in_minimal_config_runs(tmp_path):
    repo_cfg = Path(__file__).resolve().parents[1] / "configs" / "minimal_ridge.json"
    cfg = load_config(repo_cfg)
    out = tmp_path / "repo"
    assert cli.main(["run", str(repo_cfg), "--output", str(out)]) == 0
    steps = cfg.effective["schedule"]["num_intervals"] * cfg.effective["schedule"]["tau"]
    rows = (out / "run_seed0_metrics.csv").read_text().splitlines()
    assert len(rows) == 1 + steps + 1


def test_divergent_run_exits_1_naming_slot_and_device(tmp_path, capsys):
    repo_cfg = Path(__file__).resolve().parents[1] / "configs" / "minimal_ridge.json"
    blob = json.loads(repo_cfg.read_text())
    blob["schedule"]["eta"] = 50
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["run", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"DivergenceError: t=\d+, k=\d+: device \d+ ", err)
    assert not list(out.glob("*.csv"))


def test_divergent_run_names_its_first_non_finite_row_without_warnings(tmp_path, capsys):
    # slot 84 sits inside the 100 rows after t=0, one piece, computed when the run ends
    blob = json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / "minimal_ridge.json").read_text())
    blob["schedule"]["eta"] = 50
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("DivergenceError: t=84, k=8: device 1 has a "
                                       "non-finite squared norm; the run diverged\n")
    assert not list((tmp_path / "out").glob("*"))


def test_an_unpriced_slot_exits_1_naming_the_slot(tmp_path, capsys):
    # 1e-320 W of transmit power underflows every uplink rate to zero, so the
    # first local aggregation, at slot 5, has no price
    blob = json.loads((REPO / "configs" / "label_skew_svm.json").read_text())
    blob["radio"]["device_tx_power_w"] = 1e-320
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "CostModelError: slot 5: aggregation energy needs positive rates\n"
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_run_that_fails_at_run_time_writes_no_output_directory(tmp_path, capsys, workers):
    # the unpriced slot of label_skew_svm fails every seed; a directory is made only
    # once every seed has run, and one that was there keeps its files
    blob = json.loads((REPO / "configs" / "label_skew_svm.json").read_text())
    blob["radio"]["device_tx_power_w"] = 1e-320
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    out, kept = tmp_path / "out", tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("kept")
    for command in (["run", str(path), "--output", str(out)],
                    ["run", str(path), "--output", str(kept)],
                    ["sweep", str(path), "--axis", "schedule.alpha", "--values", "0.5",
                     "--output", str(out)]):
        assert cli.main([*command, "--workers", workers]) == 1, command
        assert capsys.readouterr().err == \
            "CostModelError: slot 5: aggregation energy needs positive rates\n"
    assert not out.exists()
    assert [(f.name, f.read_text()) for f in kept.iterdir()] == [("notes.txt", "kept")]


@pytest.mark.parametrize("name, sizes", [("minimal_ridge", [3, 5]),
                                         ("label_skew_svm", [1, 1, 1, 47])])
def test_explicit_subnet_sizes_run_the_same_bytes_serial_and_parallel(tmp_path, name, sizes):
    # unequal subnets: the fleet sums gather through the padded member table, and
    # the radio prices each member count as its own group
    blob = json.loads((REPO / "configs" / f"{name}.json").read_text())
    blob["topology"]["subnet_sizes"] = sizes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    assert load_config(path).fleet.table[1] is not None
    outs = (tmp_path / "w1", tmp_path / "w2")
    for out, workers in zip(outs, ("1", "2")):
        assert cli.main(["run", str(path), "--workers", workers, "--output", str(out)]) == 0
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    assert len(names) == 1 + 2 * len(blob["seeds"])
    for file in names:
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), file
    manifest = json.loads((outs[0] / "run_manifest.json").read_text())
    assert manifest["partition"]["subnet_sizes"] == sizes
    if "radio" in blob:
        events = (outs[0] / "run_seed0_events.csv").read_text().splitlines()
        assert {line.split(",")[2] for line in events[1:]} == {"-1", "0", "1", "2", "3"}


def test_explicit_subnet_sizes_record_the_subnet_count_that_runs(tmp_path):
    # subnet_sizes overrides num_subnets: the manifest records the count that ran,
    # and so hashes as the config that gives that count explicitly
    blob = json.loads((REPO / "configs" / "label_skew_svm.json").read_text())
    blob["topology"]["subnet_sizes"] = [1, 1, 1, 47]
    blob["seeds"], blob["schedule"]["num_intervals"] = [0], 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["effective_config"]["topology"]["num_subnets"] == 4
    blob["topology"]["num_subnets"] = 4
    assert manifest["config_hash"] == parse_config(blob).config_hash()
    # sizes that agree with num_subnets keep the hash they had before the count was recorded
    ridge = json.loads((REPO / "configs" / "minimal_ridge.json").read_text())
    ridge["topology"]["subnet_sizes"] = [3, 5]
    assert parse_config(ridge).config_hash() == \
        "25a7abe0fedce2282df3a73589428b1515ce84ea6ca448306575f428857b23ad"


def test_an_optimum_out_of_iterations_exits_1_naming_the_gradient_norm(tmp_path, monkeypatch,
                                                                       capsys):
    # the tracked_svm20 benchmark config: adaptive_demo's data under label_skew_svm's
    # schedule with the schema's tracking defaults, so the optimum is solved at load
    from dflsim import losses

    blob = json.loads((REPO / "configs" / "adaptive_demo.json").read_text())
    schedule = json.loads((REPO / "configs" / "label_skew_svm.json").read_text())["schedule"]
    for key in ("track_noise_free", "track_optimality", "metrics_every"):
        del schedule[key]
    del blob["control"], blob["radio"]
    blob["schedule"] = schedule
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    monkeypatch.setattr(losses, "MAX_ITER", 1)
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"ConvergenceError: optimum solver exhausted 1 iterations, "
                        r"final gradient norm \d\.\d{3}e[+-]\d+ > \d\.\d{3}e[+-]\d+\n", err)
    assert not (tmp_path / "out").exists()


def test_a_tracked_svm_without_regularization_solves_past_an_all_zero_feature(tmp_path):
    # regularization 0 and a feature that is 0 at every point: each Hessian's row and
    # column of that feature are 0, so the Newton step is the minimum-norm solve
    from dflsim import losses
    from dflsim.data import make_blobs

    data = make_blobs(4, 15, 3, 0.6, np.random.default_rng(7))
    lines = ["y,x1,x2,x3,x4"] + [",".join(map(repr, [y, *x, 0.0])) for x, y
                                 in zip(data.features.tolist(), data.labels.tolist())]
    (tmp_path / "points.csv").write_text("\n".join(lines) + "\n")
    blob = {**MINIMAL, "dataset": {"kind": "csv", "path": str(tmp_path / "points.csv")},
            "model": {"kind": "svm", "regularization": 0.0, "num_classes": 4}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert np.isfinite(read_metrics_csv(tmp_path / "out" / "run_seed0_metrics.csv")["gap"]).all()
    cfg = load_config(path)
    grad = lambda w: np.linalg.norm(cfg.fleet.global_gradient(cfg.model, w))
    assert grad(cfg.w_star) <= losses.GRAD_TOL * max(1.0, grad(np.zeros(cfg.model.model_dim)))


def adaptive_demo(tmp_path, section: str, field: str, value) -> Path:
    """``configs/adaptive_demo.json`` for seed 0 with one value replaced."""
    blob = json.loads((REPO / "configs" / "adaptive_demo.json").read_text())
    blob[section][field] = value
    blob["seeds"] = [0]
    path = tmp_path / "adaptive.json"
    path.write_text(json.dumps(blob))
    return path


@pytest.mark.parametrize("section, field", [("control", "probe_scale"),
                                            ("model", "regularization")])
def test_non_finite_bootstrap_estimates_exit_1_with_an_estimation_error(
        tmp_path, capsys, section, field):
    # probes or gradients beyond the floats leave the secant estimates inf or NaN
    path = adaptive_demo(tmp_path, section, field, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("EstimationError: secant estimates are not finite")
    assert "Traceback" not in err and err.count("\n") == 1


def test_probes_past_the_float_range_exit_1_in_one_line(tmp_path, capsys):
    # 1e308 times a normal draw beyond 1.8 overflows: the probes themselves are inf
    path = adaptive_demo(tmp_path, "control", "probe_scale", 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("EstimationError: ") and err.count("\n") == 1


def test_an_overflowing_gap_bound_takes_the_fallback_decision(tmp_path):
    # phi = 1e300 overflows every bound the solver scans: no grid point is left
    path = adaptive_demo(tmp_path, "control", "phi", 1e300)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path), "--output", str(out)]) == 0
    text = (out / "run_manifest.json").read_text()
    assert "Infinity" not in text
    decisions = json.loads(text)["decisions"]["0"]
    assert decisions and all(d["fallback"] for d in decisions)


def run_python(*args):
    """``python *args`` from the repo root with this checkout's src on PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src")] + paths))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=root, timeout=300)


def test_module_entry_point_runs_the_cli():
    done = run_python("-m", "dflsim", "validate", "facts", "--quick")
    assert done.returncode == 0, done.stderr
    assert "[PASS]" in done.stdout


def test_cli_import_leaves_the_suites_unloaded():
    # only ``dflsim validate`` needs validate.py; run and sweep do not load it
    done = run_python("-c", "import sys, dflsim.cli; print('dflsim.validate' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_package_import_loads_no_submodule():
    # every consumer imports the module it uses; the package re-exports nothing
    done = run_python("-c", "import sys, dflsim; "
                            "print(sorted(m for m in sys.modules if m.startswith('dflsim.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only ``--workers`` above 1 needs the process pool
    done = run_python("-c", "import sys, dflsim.cli; "
                            "print('concurrent.futures.process' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("script, csv_name, header", [
    ("run_ordering_experiment.py", "ordering.csv", "variant,mean_final_loss,std_final_loss"),
    ("run_controller_sweeps.py", "controller_sweeps.csv", "axis,value,mean_alpha,mean_tau"),
], ids=["ordering", "sweeps"])
def test_script_writes_its_csv(script, csv_name, header, tmp_path):
    done = run_python(f"scripts/{script}", "--seeds", "1", "--output", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / csv_name).read_text().splitlines()[0] == header


def test_the_ab_script_runs_two_units_of_one_tree_against_itself():
    done = run_python("scripts/ab_units.py", ".", ".", "--workload", "replicas_theorem",
                      "--units", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "replicas_theorem: 2 units per side, checked outputs equal in every unit"
    assert lines[-1].startswith("claim rule (B wins at least 9 of 10 pairs")


def test_sweep_alpha_with_ablation_value(tmp_path):
    path = write_config(tmp_path, overrides={"schedule.alpha_ablation": True})
    out = tmp_path / "abl"
    assert cli.main(["sweep", str(path), "--axis", "schedule.alpha",
                     "--values", "0.0,0.5,1.0", "--output", str(out)]) == 0
    for value in ("0.0", "0.5", "1.0"):
        sub = out / f"sweep_schedule_alpha_{value}"
        assert (sub / f"schedule_alpha_{value}_seed0_metrics.csv").exists()


def test_adaptive_delay_sweep_emits_mean_alpha(tmp_path):
    blob = {
        "dataset": {"kind": "blobs", "num_classes": 4, "points_per_class": 40,
                    "feature_dim": 4, "spread": 0.5, "seed": 3},
        "model": {"kind": "ridge", "regularization": 2.0},
        "topology": {"num_devices": 4, "num_subnets": 2, "labels_per_device": 2,
                     "partition_seed": 5},
        "schedule": {"mode": "adaptive", "delay": 2, "track_noise_free": False,
                     "track_optimality": False, "metrics_every": 10},
        "control": {"phi": 1.0, "tau_max": 8, "horizon": 32, "initial_tau": 8,
                    "probe_scale": 0.5},
        "seeds": [0],
        "batch_size": 5,
    }
    path = tmp_path / "adaptive.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "swd"
    assert cli.main(["sweep", str(path), "--axis", "schedule.delay",
                     "--values", "1,3", "--output", str(out)]) == 0
    rows = (out / "sweep_schedule_delay.csv").read_text().splitlines()
    metrics = {line.split(",")[3] for line in rows[1:]}
    assert "mean_alpha" in metrics and "mean_tau" in metrics


def test_adaptive_manifest_records_estimate_reuse(tmp_path):
    blob = {
        "dataset": {"kind": "blobs", "num_classes": 4, "points_per_class": 40,
                    "feature_dim": 4, "spread": 0.5, "seed": 3},
        "model": {"kind": "ridge", "regularization": 2.0},
        "topology": {"num_devices": 4, "num_subnets": 2, "partition_seed": 5},
        # capture one slot into the interval: the uploads are the synchronized models
        "schedule": {"mode": "adaptive", "delay": 7, "track_noise_free": False,
                     "track_optimality": False, "metrics_every": 8},
        "control": {"phi": 1.0, "tau_max": 8, "tau_min": 8, "horizon": 16,
                    "initial_tau": 8, "probe_scale": 0.5},
        "seeds": [0],
        "batch_size": 5,
    }
    path = tmp_path / "adaptive.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    decisions = json.loads((out / "run_manifest.json").read_text())["decisions"]["0"]
    assert decisions[0]["estimates_reused"] is True


def test_a_one_interval_adaptive_run_writes_its_summary_and_one_record(tmp_path):
    # horizon 8 = initial_tau: the only interval ends at the horizon, so nothing is decided
    blob = {
        "dataset": {"kind": "blobs", "num_classes": 4, "points_per_class": 40,
                    "feature_dim": 4, "spread": 0.5, "seed": 3},
        "model": {"kind": "ridge", "regularization": 2.0},
        "topology": {"num_devices": 4, "num_subnets": 2, "partition_seed": 5},
        "schedule": {"mode": "adaptive", "delay": 2, "track_noise_free": False,
                     "track_optimality": False, "metrics_every": 8},
        "control": {"phi": 1.0, "tau_max": 8, "horizon": 8, "initial_tau": 8,
                    "probe_scale": 0.5},
        "seeds": [0],
        "batch_size": 5,
    }
    path = tmp_path / "adaptive.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["summary"]["0"]["fallbacks"] == 0
    assert math.isnan(manifest["summary"]["0"]["mean_alpha"])
    assert manifest["decisions"]["0"] == []
    assert [(r["tau"], r["delay"]) for r in manifest["intervals"]["0"]] == [(8, 2)]


def test_adaptive_manifest_records_realized_aggregations(tmp_path, monkeypatch):
    from dflsim.engine import Protocol

    realized = []
    run_interval = Protocol.run_interval

    def spy(self, plan, theta_policy=None):
        outcome = run_interval(self, plan, theta_policy)
        realized.append(outcome.theta_counts.tolist())
        return outcome

    monkeypatch.setattr(Protocol, "run_interval", spy)
    blob = {
        "dataset": {"kind": "blobs", "num_classes": 4, "points_per_class": 40,
                    "feature_dim": 4, "spread": 0.5, "seed": 3},
        "model": {"kind": "ridge", "regularization": 2.0},
        "topology": {"num_devices": 4, "num_subnets": 2, "labels_per_device": 2,
                     "partition_seed": 5},
        "schedule": {"mode": "adaptive", "delay": 2, "track_noise_free": False,
                     "track_optimality": False, "metrics_every": 10},
        # a tight budget: the trigger fires in most slots, not in all
        "control": {"phi": 0.05, "tau_max": 8, "horizon": 32, "initial_tau": 8,
                    "probe_scale": 0.5},
        "seeds": [0],
        "batch_size": 5,
    }
    path = tmp_path / "adaptive.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    intervals = json.loads((out / "run_manifest.json").read_text())["intervals"]["0"]
    assert [r["theta_counts"] for r in intervals] == realized
    assert realized[0] == [8, 6]
    assert [r["delay"] for r in intervals] == [2] * len(intervals)


def test_a_trigger_whose_floors_exceed_the_budget_evaluates_no_gradient(tmp_path,
                                                                       monkeypatch):
    from dflsim import control
    from dflsim.fleet import FleetTopology

    triggers = count_calls(monkeypatch, control, "trigger_local_aggregation")
    gradients = count_calls(monkeypatch, FleetTopology, "global_gradients")
    blob = {
        "dataset": {"kind": "blobs", "num_classes": 4, "points_per_class": 40,
                    "feature_dim": 4, "spread": 0.5, "seed": 3},
        "model": {"kind": "ridge", "regularization": 2.0},
        "topology": {"num_devices": 4, "num_subnets": 2, "labels_per_device": 2,
                     "partition_seed": 5},
        "schedule": {"mode": "adaptive", "delay": 2, "track_noise_free": False,
                     "track_optimality": False, "metrics_every": 10},
        # no budget: every floor 2*varrho_c*delta_c^2 exceeds it, as each
        # delta_c estimate, from these probes on, is positive
        "control": {"phi": 0.0, "tau_max": 8, "tau_min": 8, "horizon": 32,
                    "initial_tau": 8, "probe_scale": 0.2},
        "seeds": [0],
        "batch_size": 5,
    }
    path = tmp_path / "adaptive.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    decisions, intervals = manifest["decisions"]["0"], manifest["intervals"]["0"]
    # the trigger ran in every slot and fired every subnet, without grad F:
    # the one global_gradients call per decision is the controller's gap points
    assert triggers == {"trigger_local_aggregation": 32}
    assert [r["theta_counts"] for r in intervals] == [[8, 8]] * 4
    assert gradients == {"global_gradients": len(decisions)}


def test_idx_dataset_end_to_end(tmp_path):
    import struct

    import numpy as np

    gen = np.random.default_rng(0)
    count, rows, cols = 80, 3, 3
    pixels = gen.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    labels = (np.arange(count) % 4).astype(np.uint8)
    img = tmp_path / "imgs.ubyte"
    lab = tmp_path / "labs.ubyte"
    img.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())
    blob = {
        "dataset": {"kind": "idx", "path": str(img), "labels_path": str(lab)},
        "model": {"kind": "svm", "regularization": 0.1, "num_classes": 4},
        "topology": {"num_devices": 4, "num_subnets": 2, "labels_per_device": 2,
                     "partition_seed": 2},
        "schedule": {"mode": "fixed", "num_intervals": 2, "tau": 4, "alpha": 0.2,
                     "eta": 0.02, "delay": 1, "track_noise_free": False,
                     "track_optimality": False},
        "seeds": [0],
        "batch_size": 4,
    }
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "idx_out"
    assert cli.main(["run", str(path), "--output", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    supports = [len(d["labels"]) for d in manifest["partition"]["devices"]]
    assert supports == [2, 2, 2, 2]
