"""The benchmark tracer's targets name functions that dflsim defines.

``dflbench/spans.py`` skips a target it cannot find without a word, so a
renamed function would drop out of a traced run's layer table unseen.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "dflbench" / "spans.py"


def test_every_span_target_is_a_dflsim_function():
    spec = importlib.util.spec_from_file_location("dflbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, name, modname, attr in spans.TARGETS:
        owner = importlib.import_module(modname)
        *path, fn_name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer patches a method on its own class, not an inherited one
        fn = vars(owner).get(fn_name) if owner is not None else None
        if not inspect.isfunction(fn):
            missing.append(name)
    assert missing == []
