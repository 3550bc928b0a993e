"""Every committed benchmark record's summary recomputes from its own
pairs: each workload metric's parent and change median (rounded to 4
places) and its change_wins count.  The quartiles are not checked: the
records do not pin one quantile method, and none reproduces them all."""

import json
import statistics
from pathlib import Path

import pytest

_RECORDS = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


def test_there_are_records_to_check():
    assert _RECORDS


@pytest.mark.parametrize("path", _RECORDS, ids=lambda p: p.name)
def test_record_medians_and_wins_recompute_from_its_pairs(path):
    record = json.loads(path.read_text())
    for workload, runs in record["workloads"].items():
        pairs = runs["pairs"]
        for metric, summary in runs["metrics"].items():
            where = f"{path.name} {workload} {metric}"
            for side in ("parent", "change"):
                median = round(statistics.median(p[side][metric] for p in pairs), 4)
                assert summary[side]["median"] == median, f"{where} {side} median"
            if summary["better"] == "lower":
                wins = sum(p["change"][metric] < p["parent"][metric] for p in pairs)
            else:
                wins = sum(p["change"][metric] > p["parent"][metric] for p in pairs)
            assert summary["change_wins"] == f"{wins}/{len(pairs)}", f"{where} change_wins"
