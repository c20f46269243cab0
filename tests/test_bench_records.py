"""Committed benchmark records.

Each ``BENCH_*.json`` at the repository root maps workload names to the
records ``bench/run.py`` wrote to ``.bench_out/``, left unedited. A record
must come from a correct run with no failed phase, and give a finite number
for every metric it lists. The metric and workload names are read from
``BENCHMARK.json``.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_file_holds_correct_runs_with_finite_metrics(path):
    records = load(path)
    assert isinstance(records, dict) and records
    for workload, record in records.items():
        assert record["correct"] is True, workload
        assert record["failed"] == 0, workload
        listed = {**record["metrics"], **record.get("reported", {})}
        assert listed, workload
        for name, metric in listed.items():
            value = metric["value"]
            assert type(value) in (int, float) and math.isfinite(value), (workload, name)


def test_first_record_holds_every_listed_workload_and_metric():
    spec = load(ROOT / "BENCHMARK.json")
    records = load(ROOT / "BENCH_pr31.json")
    names = {m["name"] for m in spec["end_to_end"]}
    assert len(names) == 9
    for workload in spec["workloads"]:
        assert names <= set(records[workload["name"]]["metrics"]), workload["name"]
