"""One workload process of the dflsim benchmark (started by run.py).

``setup`` mode measures one set-up: from the first statement of a clean
interpreter to the first simulated slot (the first call of
``Protocol.run_interval``), then stops.  ``run`` mode runs the workload's
units in a closed loop -- one simulation seed after another -- for the
given number of seconds, checks each unit's outputs outside the timed
region, and with ``--trace 1`` runs every unit a second time under the
span tracer.  Either mode writes its findings as JSON to ``--result``.
"""

from time import perf_counter

BOOT = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402


class SpeedClock:
    """Wall clock paired with an estimate of how fast the host ran.

    Every ``period`` seconds a SIGALRM handler times a fixed probe: small
    matrix products and a hinge, the shape of dflsim's gradient kernel.
    The probe's first two rounds are not timed, so caches the program
    evicted are refilled first.  ``inverse_speed()`` integrates wall time
    divided by the latest probe duration.  A span's duration at the
    probe's reference speed ``k_ref`` is ``k_ref * (inverse_speed(end) -
    inverse_speed(start))``: time the host spent running slowly, for
    example while a neighbour shared its core, is discounted.
    """

    def __init__(self, period: float = 0.01):
        import numpy as np

        self.np = np
        self.period = period
        self.x = np.linspace(-1.0, 1.0, 120).reshape(10, 12)
        self.w = np.linspace(0.5, -0.5, 120).reshape(10, 12)
        self.samples = []
        self._acc = 0.0
        self._last = None

    def _round(self) -> float:
        margins = self.np.maximum(0.0, 1.0 - self.x @ self.w.T)
        return float((margins.T @ self.x)[0, 0])

    def _probe(self) -> float:
        self._round()
        self._round()
        t0 = perf_counter()
        for _ in range(6):
            self._round()
        return perf_counter() - t0

    def _tick(self, _signum, _frame) -> None:
        k = self._probe()
        now = perf_counter()
        if self._last is not None:
            self._acc += (now - self._last[0]) / k
        self._last = (now, k)
        self.samples.append(k)

    def start(self, since: float | None = None) -> None:
        """Start ticking; ``since`` credits the time before the first tick at its speed."""
        self._tick(None, None)
        if since is not None:
            now, k = self._last
            self._acc = (now - since) / k
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def inverse_speed(self) -> float:
        last_t, last_k = self._last
        return self._acc + (perf_counter() - last_t) / last_k


class FirstSlot(BaseException):
    """Raised by the set-up probe when the first slot is about to run."""


class CliRunner:
    """Units run through `dflsim run`, one config with one seed each."""

    def __init__(self, workload: wl.Workload, work: Path):
        from dflsim import cli

        self.workload, self.work, self.cli = workload, work, cli

    def prepare(self, sim_seed: int):
        return self.workload.write_config(sim_seed, self.work)

    def run(self, sim_seed: int, cfg_path) -> Path:
        out_dir = self.work / f"out_seed{sim_seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["run", str(cfg_path), "--output", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"dflsim run exited {code}")
        return out_dir

    def check(self, sim_seed: int, out_dir: Path) -> dict:
        try:
            return wl.cli_outputs(out_dir, sim_seed)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def finish(self, units: list) -> str | None:
        return None


class ReplicaRunner:
    """`dflsim validate theorem` traffic: one replica run per unit."""

    def __init__(self, workload: wl.Workload, work: Path):
        import numpy as np
        from dflsim.analysis import compute_constants, theorem_bound
        from dflsim.control import select_step_size
        from dflsim.engine import IntervalPlan, TrainingSchedule, run_training
        from dflsim.validate import theorem_problem

        self.np, self.run_training = np, run_training
        prob = theorem_problem(batch_size=1)
        tau, delay = wl.THEOREM_TAU, wl.THEOREM_DELAY
        eta_max, gamma = select_step_size(prob.params, tau, delay)
        alpha = 0.5 * compute_constants(prob.params, tau, delay, 0.0, eta_max, gamma,
                                        e3_init=prob.e3_init).alpha_star
        consts = compute_constants(prob.params, tau, delay, alpha, eta_max, gamma,
                                   e3_init=prob.e3_init)
        every_slot = tuple(tuple(range(1, tau + 1))
                           for _ in range(prob.topology.num_subnets))
        self.schedule = TrainingSchedule(tuple(
            IntervalPlan(tau=tau, alpha=alpha, eta=consts.eta_at(k), delay=delay,
                         local_agg_offsets=every_slot)
            for k in range(wl.THEOREM_SYNCS)))
        self.nu = np.array([theorem_bound(consts, k) for k in range(wl.THEOREM_SYNCS + 1)])
        self.prob = prob
        self.gaps = {}

    def prepare(self, sim_seed: int):
        return None

    def run(self, sim_seed: int, _):
        prob = self.prob
        res = self.run_training(prob.topology, prob.model, self.schedule, seed=sim_seed,
                                batch_size=1, w_star=prob.w_star,
                                track_noise_free=False, metrics_every=wl.THEOREM_TAU)
        gaps = self.np.concatenate(([res.column("gap")[0]], res.at_sync("gap")))
        return res, gaps

    def check(self, sim_seed: int, output) -> dict:
        res, gaps = output
        metrics = {name: [float(v) for v in res.metrics[name]] for name in wl.METRIC_COLUMNS}
        events = [(ev.t, ev.energy_j, ev.delay_s) for ev in res.events]
        problem = wl.check_outputs(metrics, events, list(res.sync_times),
                                   ("t", "k", "loss", "gap", "cum_energy", "cum_delay"))
        self.gaps[sim_seed] = gaps
        return {
            "problem": problem,
            "digest": [wl.sha256(wl.metrics_text(res.metrics)),
                       wl.sha256(wl.events_text(res.events))],
            "device_slots": int(metrics["t"][-1]) * self.prob.topology.num_devices,
            "fallbacks": 0,
        }

    def finish(self, units: list) -> str | None:
        """The gap bound dominates the mean gap over the distinct replicas run."""
        np = self.np
        if len(self.gaps) < 2:
            return "gap-bound domination needs at least two replicas"
        gaps = np.stack(list(self.gaps.values()))
        stderr = gaps.std(axis=0, ddof=1) / math.sqrt(gaps.shape[0])
        slack = float(np.min(self.nu + 3.0 * stderr - gaps.mean(axis=0)))
        if not (slack >= 0 and np.all(np.diff(self.nu) < 0)):
            return f"gap bound fails to dominate: 3-sigma slack {slack:.3e}"
        return None


def make_runner(workload: wl.Workload, work: Path):
    return (CliRunner if workload.via_cli else ReplicaRunner)(workload, work)


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.26 has no dict form
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_probe(workload: wl.Workload, work: Path, sim_seed: int) -> dict:
    """Set-up time from interpreter start to the first slot, raw and normalised."""
    import dflsim.engine

    clock = SpeedClock()
    clock.start(since=BOOT)
    reached = []

    def stop(*_args, **_kwargs):
        reached.append((perf_counter(), clock.inverse_speed()))
        raise FirstSlot

    dflsim.engine.Protocol.run_interval = stop
    try:
        runner = make_runner(workload, work)
        runner.run(sim_seed, runner.prepare(sim_seed))
    except FirstSlot:
        pass
    clock.stop()
    if not reached:
        raise RuntimeError("set-up probe finished without reaching a slot")
    return {"setup_s": reached[0][0] - BOOT, "inv": reached[0][1], "probe_s": clock.samples}


def run_loop(workload: wl.Workload, work: Path, bench_seed: int, seconds: float,
             traced: bool, max_units: int = 0) -> dict:
    runner = make_runner(workload, work)
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
    order = workload.sim_seeds(bench_seed)
    units, traced_times, traced_wall = [], [], 0.0
    clock = None if traced else SpeedClock()
    if clock is not None:
        clock.start()
    loop_start = perf_counter()
    while not units or (perf_counter() - loop_start < seconds
                        and len(units) != max_units):
        sim_seed = order[len(units) % len(order)]
        unit = {"seed": sim_seed}
        passes = [False, True] if traced else [False]
        for with_trace in passes:
            inputs = runner.prepare(sim_seed)
            if with_trace:
                tracer.unit_id = len(units)
                tracer.install()
            inv0 = clock.inverse_speed() if clock is not None else 0.0
            t0 = perf_counter()
            try:
                output = runner.run(sim_seed, inputs)
                failure = None
            except Exception as exc:  # noqa: BLE001 -- a failed unit is counted
                output, failure = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            inv = clock.inverse_speed() - inv0 if clock is not None else 0.0
            if with_trace:
                tracer.remove()
                traced_times.append(elapsed)
                traced_wall += elapsed
            else:
                unit["time_s"], unit["inv"] = elapsed, inv
            if failure is not None:
                checked = {"problem": failure, "digest": None, "device_slots": 0,
                           "fallbacks": 0}
            else:
                try:
                    checked = runner.check(sim_seed, output)
                except Exception as exc:  # noqa: BLE001 -- unreadable output fails
                    checked = {"problem": f"{type(exc).__name__}: {exc}", "digest": None,
                               "device_slots": 0, "fallbacks": 0}
            if with_trace:
                unit["traced"] = dict(checked, seed=sim_seed)
            else:
                unit.update(checked)
        units.append(unit)
    out = {"units": units, "run_problem": runner.finish(units)}
    if clock is not None:
        clock.stop()
        out["probe_s"] = clock.samples
    if traced:
        arrays = tracer.arrays()
        import numpy as np

        np.savez_compressed(work.parent / f"trace_{workload.name}.npz",
                            unit_seed=np.array([u["seed"] for u in units]), **arrays)
        out["trace"] = {
            "summary": spans.span_summary(arrays),
            "sites": tracer.sites,
            "traced_times": traced_times,
            "traced_wall_s": traced_wall,
            "fired": tracer.fired,
            "evaluated": tracer.evaluated,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=0, help="stop after this many (0: no limit)")
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import dflsim

    if src not in Path(dflsim.__file__).resolve().parents:
        raise SystemExit(f"imported dflsim from {dflsim.__file__}, not from {src}")
    workload = wl.WORKLOADS[args.workload]
    work = Path(args.work)
    if args.mode == "setup":
        result = setup_probe(workload, work, workload.sim_seeds(args.seed)[0])
    else:
        result = run_loop(workload, work, args.seed, args.seconds, bool(args.trace),
                          args.units)
        result["env"] = environment()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
