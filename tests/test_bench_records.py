"""Each committed BENCH_<n>.json record at the repository root is JSON and
names what it measured, how, where, and against which commit."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"claim", "command", "environment", "hardware", "method", "parent_commit", "title"}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_loads_with_the_shared_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert not KEYS - record.keys(), sorted(KEYS - record.keys())
