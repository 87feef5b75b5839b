"""Span tracer that wraps dflsim's public functions from outside the program.

Each target is a function or method named by its defining module.  A
module-level function is patched in every loaded ``dflsim`` module whose
namespace binds it (``stream`` is bound in engine, control, config,
netcost and validate, for example), a method on its class.  Spans --
name, start, end, parent span, unit id -- go into flat in-memory arrays
and are written out once, at the end of the run.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, span name, defining module, attribute path).  Entry points such
# as run_training or cmd_run are wrapped too, so that glue code between
# the named calls is charged to its own layer and not left unattributed.
TARGETS = (
    ("config", "config.load_config", "dflsim.config", "load_config"),
    ("config", "config.build_dataset", "dflsim.config", "build_dataset"),
    ("config", "config.build_fleet", "dflsim.config", "build_fleet"),
    ("data", "data.make_blobs", "dflsim.data", "make_blobs"),
    ("losses", "losses.stochastic_gradient", "dflsim.losses", "stochastic_gradient"),
    ("losses", "losses.full_gradient", "dflsim.losses", "full_gradient"),
    ("losses", "losses.solve_optimum", "dflsim.losses", "solve_optimum"),
    ("fleet", "fleet.global_gradient", "dflsim.fleet", "FleetTopology.global_gradient"),
    ("fleet", "fleet.global_loss", "dflsim.fleet", "FleetTopology.global_loss"),
    ("fleet", "fleet.measure_diversity", "dflsim.fleet", "measure_diversity"),
    ("fleet", "fleet.measure_smoothness_convexity", "dflsim.fleet",
     "measure_smoothness_convexity"),
    ("fleet", "fleet.measure_sgd_noise", "dflsim.fleet", "measure_sgd_noise"),
    ("engine", "engine.run_training", "dflsim.engine", "run_training"),
    ("engine", "engine.run_interval", "dflsim.engine", "Protocol.run_interval"),
    ("engine", "engine.subnet_aggregate", "dflsim.engine", "Protocol.subnet_aggregate"),
    ("engine", "engine.log_row", "dflsim.engine", "Protocol._log_row"),
    ("analysis", "analysis.noise_free_step", "dflsim.analysis", "noise_free_step"),
    ("analysis", "analysis.error_terms", "dflsim.analysis", "error_terms"),
    ("analysis", "analysis.compute_constants", "dflsim.analysis", "compute_constants"),
    ("analysis", "analysis.theorem_bound", "dflsim.analysis", "theorem_bound"),
    ("control", "control.run_adaptive", "dflsim.control", "run_adaptive"),
    ("control", "control.trigger_local_aggregation", "dflsim.control",
     "trigger_local_aggregation"),
    ("control", "control.estimate_parameters", "dflsim.control", "estimate_parameters"),
    ("control", "control.bootstrap_estimates", "dflsim.control", "bootstrap_estimates"),
    ("control", "control.solve_p", "dflsim.control", "solve_p"),
    ("netcost", "netcost.stream", "dflsim.netcost", "stream"),
    ("netcost", "netcost.local_event", "dflsim.netcost", "RadioCostModel.local_event"),
    ("netcost", "netcost.global_event", "dflsim.netcost", "RadioCostModel.global_event"),
    ("cli", "cli.cmd_run", "dflsim.cli", "cmd_run"),
    ("cli", "cli.execute_single", "dflsim.cli", "execute_single"),
)
LAYERS = ("config", "data", "losses", "fleet", "engine", "analysis", "control",
          "netcost", "cli")
TRIGGER = "control.trigger_local_aggregation"


class Tracer:
    """Wraps every target on ``install`` and restores it on ``remove``."""

    def __init__(self):
        self.names = [t[1] for t in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.unit_id = -1
        self.fired = 0          # subnet aggregations the trigger fired
        self.evaluated = 0      # subnet-slots the trigger evaluated
        self._stack = [-1]
        self._undo = []
        self.sites = {}         # span name -> patched binding sites

    def _wrap(self, idx, fn):
        start, end, name, parent, unit = self.start, self.end, self.name, self.parent, self.unit
        stack = self._stack
        observe = self.names[idx] == TRIGGER

        def traced(*args, **kwargs):
            span = len(start)
            start.append(perf_counter())
            end.append(0.0)
            name.append(idx)
            parent.append(stack[-1])
            unit.append(self.unit_id)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if observe:
                self.fired += int(np.count_nonzero(out))
                self.evaluated += int(np.size(out))
            return out

        return traced

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items()
                   if k == "dflsim" or k.startswith("dflsim.")}
        for idx, (_, span, modname, attr) in enumerate(TARGETS):
            home = modules.get(modname)
            if home is None:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:          # a method: patch it on its class
                owner = getattr(home, owner_name, None)
                fn = owner.__dict__.get(fn_name) if owner is not None else None
                if fn is None:
                    continue
                self._patch(owner, fn_name, fn, self._wrap(idx, fn))
                self.sites[span] = [f"{modname}.{attr}"]
                continue
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrap(idx, fn)
            sites = []
            for modkey, mod in sorted(modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapper)
                        sites.append(f"{modkey}.{key}")
            self.sites[span] = sites

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
        }


def span_summary(spans: dict) -> dict:
    """Calls, self seconds and inclusive seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children (spans nest, so children never overlap).
    """
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_s = dur - child
    names = list(spans["names"])
    calls = np.bincount(spans["name"], minlength=len(names))
    self_by = np.bincount(spans["name"], weights=self_s, minlength=len(names))
    incl_by = np.bincount(spans["name"], weights=dur, minlength=len(names))
    return {n: {"calls": int(calls[i]), "self_s": float(self_by[i]),
                "incl_s": float(incl_by[i])} for i, n in enumerate(names)}
