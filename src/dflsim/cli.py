"""Command-line harness: run, sweep, bounds, control, validate.

``run`` executes one experiment config for every seed and writes per-seed
metrics/events CSVs plus a JSON manifest. ``sweep`` repeats a run over a
list of values for one config field and emits a tidy long-format summary.
``bounds`` and ``control`` expose the closed-form constant set and the
interval/combiner solver on parameter files. ``validate`` runs the named
invariant suite and fails on any violated check.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfgmod
from .analysis import compute_constants, theorem_bound
from .control import run_adaptive, select_step_size, solve_p
from .engine import EVENT_COLUMNS, METRIC_COLUMNS, RunResult, run_training
from .errors import ConfigError, DFLError
from .fleet import partition_manifest
from .netcost import RadioCostModel


ROWS_PER_WRITE = 256      # rows whose fields are formatted and written at once


def _write_csv(path: Path, header, columns) -> None:
    """Write the header and equal-length columns (arrays or sequences) with ``csv.writer``,
    ROWS_PER_WRITE rows at a time, so a long log never holds all its fields at once; an
    array's block is turned into Python scalars first, so a float is written by ``repr``."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for s in range(0, len(columns[0]), ROWS_PER_WRITE):
            block = (column[s:s + ROWS_PER_WRITE] for column in columns)
            writer.writerows(zip(*(b.tolist() if isinstance(b, np.ndarray) else b for b in block)))


def _summarize(result: RunResult, adaptive: bool) -> dict:
    out = {
        "final_loss": float(result.metrics["loss"][-1]),
        "final_gap": float(result.metrics["gap"][-1]),
        "cum_energy": float(result.metrics["cum_energy"][-1]),
        "cum_delay": float(result.metrics["cum_delay"][-1]),
        "steps": int(result.metrics["t"][-1]),
    }
    if adaptive:
        alphas = [d.alpha_next for d in result.decisions if not d.fallback]
        taus = [d.tau_next for d in result.decisions if not d.fallback]
        out["mean_alpha"] = float(np.mean(alphas)) if alphas else float("nan")
        out["mean_tau"] = float(np.mean(taus)) if taus else float("nan")
        out["fallbacks"] = sum(d.fallback for d in result.decisions)
    return out


def execute_single(cfg: cfgmod.ExperimentConfig, seed: int) -> tuple:
    """One run of a parsed config for one seed (worker-safe).

    Only the radio cost model (its rate table is mutable) and the protocol
    state are built per seed; every other input comes from ``cfg``.
    """
    sched = cfg.effective["schedule"]
    fleet = cfg.fleet
    cost_model = None if cfg.radio is None else RadioCostModel(
        cfg.radio, cfg.model.model_dim, fleet.num_devices, fleet.subnets,
        cfg.effective["radio"]["placement_seed"])
    kwargs = dict(seed=seed, batch_size=cfg.batch_size, cost_model=cost_model,
                  w_star=cfg.w_star, track_noise_free=sched["track_noise_free"],
                  metrics_every=sched["metrics_every"])
    if cfg.schedule is not None:
        result = run_training(fleet, cfg.model, cfg.schedule, **kwargs)
    else:
        result = run_adaptive(fleet, cfg.model, cfg.control, delay=sched["delay"],
                              up_delay=sched["up_delay"], **kwargs)
    return result, _summarize(result, cfg.schedule is None)


def environment() -> dict:
    """The software the bits rest on: numpy's PCG64 streams and floating point."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "dflsim": __version__}


def _offset_seeds(seeds: list[int], offset: int) -> list[int]:
    if min(seeds) + offset < 0:
        raise ConfigError(f"seeds: the seed offset makes seed {min(seeds) + offset} negative")
    return [s + offset for s in seeds]


def _run_config(cfg: cfgmod.ExperimentConfig, seeds: list[int], out_dir: Path,
                workers: int, tag: str = "run") -> dict:
    if workers < 1:
        raise ConfigError(f"--workers: expected a positive integer, got {workers}")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded for parallel runs only

        with ProcessPoolExecutor(max_workers=workers, initializer=warnings.simplefilter,
                                 initargs=("error", RuntimeWarning)) as pool:
            futures = {seed: pool.submit(execute_single, cfg, seed) for seed in seeds}
            results = {seed: fut.result() for seed, fut in futures.items()}
    else:
        results = {seed: execute_single(cfg, seed) for seed in seeds}
    out_dir.mkdir(parents=True, exist_ok=True)     # after every seed ran: a failed run makes none

    manifest = {
        "environment": environment(),
        "config_hash": cfg.config_hash(),
        "effective_config": cfg.effective,
        "seeds": seeds,
        "partition": partition_manifest(cfg.fleet),
        "outputs": {},
        "summary": {},
    }
    for seed, (result, summary) in results.items():
        base = f"{tag}_seed{seed}"
        metrics_path = out_dir / f"{base}_metrics.csv"
        events_path = out_dir / f"{base}_events.csv"
        _write_csv(metrics_path, METRIC_COLUMNS, [result.metrics[n] for n in METRIC_COLUMNS])
        _write_csv(events_path, EVENT_COLUMNS, [result.event_columns[n] for n in EVENT_COLUMNS])
        manifest["outputs"][str(seed)] = {
            "metrics": metrics_path.name, "events": events_path.name,
        }
        manifest["summary"][str(seed)] = summary
        if cfg.schedule is None:    # adaptive: K interval records, K - 1 decisions
            manifest.setdefault("decisions", {})[str(seed)] = [asdict(d) for d in result.decisions]
            manifest.setdefault("intervals", {})[str(seed)] = [asdict(r) for r in result.intervals]
        if len(result.sync_times):
            manifest.setdefault("sync_times", {})[str(seed)] = result.sync_times.tolist()
    (out_dir / f"{tag}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _set_path(raw: dict, dotted: str, value) -> dict:
    """A copy of a config document with the field at ``dotted`` set to ``value``."""
    out = node = json.loads(json.dumps(raw))
    *parents, leaf = dotted.split(".")
    for part in parents:
        if node.get(part) is None:
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"{dotted}: {part} is not a JSON object")
    node[leaf] = value
    return out


def cmd_run(args) -> int:
    cfg = cfgmod.load_config(args.config)
    seeds = _offset_seeds(cfg.seeds, args.seed_offset)
    out_dir = Path(args.output or cfg.output_dir)
    manifest = _run_config(cfg, seeds, out_dir, args.workers)
    print(f"wrote {len(seeds)} run(s) to {out_dir} (config {manifest['config_hash'][:12]})")
    return 0


def cmd_sweep(args) -> int:
    raw = cfgmod.read_json(args.config)
    try:
        values = json.loads(f"[{args.values}]")
    except json.JSONDecodeError:
        raise ConfigError(f"--values: {args.values!r} is not a comma-separated "
                          "list of JSON values") from None
    if not values:
        raise ConfigError("--values: empty list")
    axis_slug = args.axis.replace(".", "_")
    tags = [f"{axis_slug}_{value}" for value in values]     # one output directory each
    if len(set(tags)) < len(tags):
        raise ConfigError(f"--values: {args.values!r} repeats a value; each value runs once")
    # every value is checked before the first run; a fault that needs the data shows later
    checks = [cfgmod.check_config(_set_path(raw, args.axis, value)) for value in values]
    seeds = [_offset_seeds(effective["seeds"], args.seed_offset) for effective, *_ in checks]
    rows, out_root = [], None
    for value, tag, check, value_seeds in zip(values, tags, checks, seeds):
        # built once, run with its own seeds; the table goes under the first root
        sub = cfgmod.build_config(*check)
        root = Path(args.output or sub.output_dir)
        out_root = out_root or root
        manifest = _run_config(sub, value_seeds, root / f"sweep_{tag}", args.workers, tag=tag)
        for seed_key, summary in manifest["summary"].items():
            for metric, metric_value in summary.items():
                rows.append((args.axis, value, int(seed_key), metric, metric_value))
    table_path = out_root / f"sweep_{axis_slug}.csv"     # out_root holds the first run
    _write_csv(table_path, ("axis", "value", "seed", "metric", "metric_value"), list(zip(*rows)))
    print(f"wrote sweep table {table_path}")
    return 0


def cmd_bounds(args) -> int:
    values, params = cfgmod.check_bounds(cfgmod.read_json(args.params))
    tau, delay, eta_max, gamma = (values[k] for k in ("tau", "delay", "eta_max", "gamma"))
    if eta_max is None:
        eta_max, gamma = select_step_size(params, tau, delay, values["safety"])
    consts = compute_constants(params, tau, delay, values["alpha"], eta_max, gamma,
                               e3_init=values["e3_init"])
    out = {
        "lambda_plus": consts.eigen.eig_plus,
        "lambda_minus": consts.eigen.eig_minus,
        "g": [consts.eigen.g1, consts.eigen.g2, consts.eigen.g3,
              consts.eigen.g4, consts.eigen.g5, consts.eigen.g6],
        "C1": consts.c1, "C2": consts.c2, "C3": consts.c3,
        "K1": consts.k1, "K2": consts.k2,
        "Y1": consts.y1, "Y2": consts.y2, "Y3": consts.y3,
        "alpha_star": consts.alpha_star,
        "eta_max": consts.eta_max, "gamma": consts.gamma,
        "eta_max_limit": consts.eta_max_limit, "gamma_limit": consts.gamma_limit,
        "nu_0": theorem_bound(consts, 0),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_control(args) -> int:
    decision = solve_p(**cfgmod.check_snapshot(cfgmod.read_json(args.snapshot)))
    print(json.dumps(asdict(decision), indent=2, sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    from .validate import QUICK, SUITES     # loaded for this command only

    if args.suite not in SUITES:
        print(f"dflsim validate: unknown suite {args.suite!r}; choose from "
              f"{', '.join(sorted(SUITES))}", file=sys.stderr)
        raise SystemExit(2)
    checks = SUITES[args.suite](**(QUICK[args.suite] if args.quick else {}))
    for check in checks:
        print(check.line())
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dflsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config for every seed")
    p_run.add_argument("config")
    p_run.add_argument("--seed-offset", type=int, default=0)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--output", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="repeat runs over one config axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, help="dotted path, e.g. schedule.delay")
    p_sweep.add_argument("--values", required=True, help="comma-separated JSON scalars")
    p_sweep.add_argument("--seed-offset", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="print the constant set for a parameter file")
    p_bounds.add_argument("params")
    p_bounds.set_defaults(func=cmd_bounds)

    p_control = sub.add_parser("control", help="solve the interval/combiner problem once")
    p_control.add_argument("snapshot")
    p_control.set_defaults(func=cmd_control)

    p_val = sub.add_parser("validate", help="run an invariant suite")
    p_val.add_argument("suite")
    p_val.add_argument("--quick", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():     # numpy's floating-point warnings end the run
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DFLError, RuntimeWarning) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:      # a config whose arrays do not fit in memory
        print(f"MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
