"""The checked-in benchmark records, ``BENCH_<short sha>.json`` at the repository
root, parse and hold every field ``scripts/bench_record.py`` writes; nothing is
run."""

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_every_checked_in_bench_record_parses_and_names_its_commit():
    # each record is checked against its own contents: the workloads and metrics
    # of BENCHMARK.json may change after a record is written
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert re.fullmatch(r"[0-9a-f]{40}", record["sha"]), path.name
        assert path.name == f"BENCH_{record['sha'][:7]}.json"
        assert isinstance(record["dirty"], bool) and record["seconds"] > 0
        assert {"python", "numpy", "blas"} <= set(record["env"]), path.name
        assert record["workloads"], path.name
        for name, run in record["workloads"].items():
            assert run["end_to_end"], (path.name, name)
            assert all(m["value"] > 0 for m in run["end_to_end"].values()), (path.name, name)
            assert run["layer_shares"] and all(0 <= share <= 100 for share
                                               in run["layer_shares"].values())
            assert run["probe_median_us"] > 0, (path.name, name)
            assert 0.0 <= run["bits_identical"] <= 1.0, (path.name, name)
            assert set(run["correct"]) == {"trace0", "trace1"}, (path.name, name)
