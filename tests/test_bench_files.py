"""The committed ``BENCH_*.json`` files against their common core schema.

Every perf change records its A/B numbers in one ``BENCH_<topic>.json``:
``end_to_end.<workload>.<metric>.{parent,change}.{median,q1,q3,runs}``
for each workload and end-to-end metric that ``BENCHMARK.json`` names,
and ``src_focalvox_lines`` with the ``src/`` line count of both trees.
This reads the files and runs no benchmark.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


def check_core_schema(doc: dict) -> None:
    end_to_end = doc["end_to_end"]
    assert set(end_to_end) == WORKLOADS
    for workload, metrics in end_to_end.items():
        assert set(metrics) == METRICS, workload
        for metric, sides in metrics.items():
            for side in ("parent", "change"):
                where = f"{workload}.{metric}.{side}"
                s = sides[side]
                runs = s["runs"]
                assert runs and all(v > 0 for v in runs), where
                # the files round every figure to 6 decimals
                assert math.isclose(s["median"], statistics.median(runs),
                                    rel_tol=1e-5, abs_tol=1e-6), where
                assert s["q1"] <= s["median"] <= s["q3"], where
    lines = doc["src_focalvox_lines"]
    assert type(lines["parent"]) is int and type(lines["change"]) is int


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_core_schema(path):
    check_core_schema(json.loads(path.read_text(encoding="utf-8")))
