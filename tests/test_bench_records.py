"""Every benchmark record at the root of the repository, BENCH_*.json,
parses, holds the keys that all records share, and names a workload that
BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"workload", "command", "what", "parent", "change", "machine",
        "protocol", "runs", "summary"}
WORKLOADS = {w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_has_the_shared_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= set(record), KEYS - set(record)
    assert record["workload"] in WORKLOADS
