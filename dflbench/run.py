"""dflsim benchmark: run one workload (or all four) and print its metrics.

Usage, from the root of a checkout:

    python3 dflbench/run.py --workload fixed_svm50 --seed 0 --seconds 20 --trace 0
    python3 dflbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload runs in its own child process with one BLAS/OpenMP thread.
``--trace 0`` first measures set-up in fresh interpreters, then runs the
workload's units (simulation seeds) in a closed loop for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` runs every unit both
untraced and under the span tracer and prints the per-layer metrics.
The last line of standard output is one JSON object per workload run:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170.0          # the whole run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DIGESTS = HERE / "digests.json"
# Duration of child.SpeedClock's probe on the reference host (2 vCPUs,
# Python 3.11.7, numpy 2.4.6, one BLAS thread) when no neighbour slows it:
# the 5th percentile of its samples there.  Times are reported as
# probe-normalised seconds: host seconds scaled by this constant over the
# probe duration measured around them.
PROBE_REF_S = 30e-6


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child(mode: str, name: str, seed: int, work: Path, deadline: float | None,
          seconds: float = 0.0, trace: int = 0, units: int = 0) -> dict:
    """Run child.py in a fresh interpreter with one BLAS thread; return its JSON."""
    result = work / f"{mode}.json"
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--units", str(units),
           "--work", str(work), "--src", str(SRC), "--result", str(result)]
    timeout = None if deadline is None else max(1.0, deadline - perf_counter())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child of {name} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples above it, and its label."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}; no percentile has 10 samples beyond it"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"


def bits_identical(name: str, units: list[dict]) -> float:
    pinned = json.loads(DIGESTS.read_text()).get(name, {}) if DIGESTS.is_file() else {}
    checked = [u for u in units if u["digest"] is not None]
    same = sum(pinned.get(str(u["seed"])) == u["digest"] for u in checked)
    return same / len(units)


def end_to_end(name: str, out: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    units = out["units"]
    ok = [u for u in units if u["problem"] is None]
    times = [PROBE_REF_S * u["inv"] for u in units]
    setup = [PROBE_REF_S * s["inv"] for s in setups]
    raw = [u["time_s"] for u in units]
    t_tail, tail_label = tail(times)
    rates = [u["device_slots"] / t for u, t in zip(units, times) if u["problem"] is None]
    slots_per_s = statistics.median(rates) if rates else 0.0
    failed = len(units) - len(ok)
    metrics = {
        "device_slots_per_s": (slots_per_s, "1/s"),
        "seed_s_p50": (statistics.median(times), "s"),
        "seed_s_tail": (t_tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    notes = [
        f"seed_s_p50 over {len(times)} units",
        f"seed_s_tail is the {tail_label}",
        f"setup_s is the median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.4f}" for s in setup),
        f"raw host time: seed p50 {statistics.median(raw):.4f} s, tail {tail(raw)[0]:.4f} s, "
        f"setup {statistics.median(s['setup_s'] for s in setups):.4f} s",
        f"speed probe: median {statistics.median(out['probe_s']) * 1e6:.2f} us over "
        f"{len(out['probe_s'])} samples, in set-up "
        f"{statistics.median(k for s in setups for k in s['probe_s']) * 1e6:.2f} us, "
        f"reference {PROBE_REF_S * 1e6:.0f} us",
        f"fail_rate {failed / len(units):.4f} ({failed}/{len(units)}, not gated)",
        f"check.bits_identical {bits_identical(name, units):.4f} (not gated)",
    ]
    return metrics, notes


def per_layer(name: str, out: dict) -> tuple[dict, list[str]]:
    units = out["units"]
    tr = out["trace"]
    summary, wall, n = tr["summary"], tr["traced_wall_s"], len(units)
    metrics = {}
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    for layer, span, _, _ in spans.TARGETS:
        s = summary.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = (s["calls"] / n, "count")
        metrics[f"{span}.self_s"] = (s["self_s"] / n, "s")
        metrics[f"{span}.share"] = (100.0 * s["self_s"] / wall, "%")
        layer_self[layer] += s["self_s"]
    for layer, total in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = (total / n, "s")
        metrics[f"layer.{layer}.share"] = (100.0 * total / wall, "%")
    untraced = statistics.median(u["time_s"] for u in units)
    traced_units = [u["traced"] for u in units]
    metrics.update({
        "control.fallbacks": (sum(u["fallbacks"] for u in units) / n, "count"),
        "control.trigger.fire_ratio": (
            tr["fired"] / tr["evaluated"] if tr["evaluated"] else 0.0, "ratio"),
        "check.bits_identical": (bits_identical(name, units + traced_units), "ratio"),
        "trace.overhead_s": (statistics.median(tr["traced_times"]) - untraced, "s"),
        "trace.covered_share": (100.0 * sum(layer_self.values()) / wall, "%"),
    })
    sites = "; ".join(f"{k}: {', '.join(v)}" for k, v in sorted(tr["sites"].items()))
    top = sorted(summary.items(), key=lambda kv: -kv[1]["incl_s"])[:10]
    notes = [f"{n} units traced, {wall:.3f} s traced wall time",
             "inclusive shares: " + ", ".join(
                 f"{k} {100.0 * v['incl_s'] / wall:.1f}%" for k, v in top),
             f"patched sites: {sites}"]
    return metrics, notes


def work_dir(name: str) -> Path:
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))


def pin_digests() -> int:
    """Run every pooled simulation seed once and pin its output digests."""
    pinned, times = {}, {}
    for name, workload in wl.WORKLOADS.items():
        work = work_dir(name)
        try:
            out = child("run", name, 0, work, None, seconds=float("inf"),
                        units=workload.pool)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        bad = [u for u in out["units"] if u["problem"]]
        if bad or out["run_problem"]:
            print(f"{name}: outputs fail their checks, nothing pinned: "
                  f"{bad[:1] or out['run_problem']}", file=sys.stderr)
            return 1
        pinned[name] = {str(u["seed"]): u["digest"] for u in out["units"]}
        times[name] = sorted(u["time_s"] for u in out["units"])
        print(f"{name}: pinned {len(pinned[name])} seeds, seconds per unit "
              f"min {times[name][0]:.4f} median {statistics.median(times[name]):.4f} "
              f"max {times[name][-1]:.4f}")
    DIGESTS.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n")
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + DEADLINE_S
    work = work_dir(name)
    try:
        setups = [] if trace else [
            child("setup", name, seed, work, deadline) for _ in range(SETUP_PROBES)]
        out = child("run", name, seed, work, deadline, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = out["units"]
    attempted = len(units) * (2 if trace else 1)
    failed = sum(u["problem"] is not None for u in units)
    if trace:
        failed += sum(u["traced"]["problem"] is not None for u in units)
        metrics, notes = per_layer(name, out)
    else:
        metrics, notes = end_to_end(name, out, setups)
    problems = [f"unit seed {u['seed']}: {u['problem']}" for u in units if u["problem"]]
    if out["run_problem"]:
        problems.append(out["run_problem"])
    print(f"workload {name}: {wl.WORKLOADS[name].why}")
    print(f"env {json.dumps(dict(out['env'], git=git_sha()), sort_keys=True)}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    for line in notes + problems:
        print(f"# {line}")
    return {
        "correct": failed == 0 and not out["run_problem"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="re-pin the output digests of every pooled seed")
    args = parser.parse_args(argv)
    if not (SRC / "dflsim" / "__init__.py").is_file():
        print(f"error: no dflsim sources under {SRC}; run from a dflsim checkout",
              file=sys.stderr)
        return 2
    if args.pin_digests:
        return pin_digests()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(report), flush=True)
        all_correct &= report["correct"]
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
