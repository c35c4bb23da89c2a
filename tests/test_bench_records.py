"""Committed perf records (``BENCH_*.json``): each parses, and the medians
and quartiles it states follow from the raw perfbench lines it keeps."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_stated_figures_follow_from_the_raw_lines(path):
    record = json.loads(path.read_text())
    assert record["sets"]
    for run_set in record["sets"]:
        first, second = run_set["sides"]
        pairs = run_set["pairs"]
        for name, stated in run_set["summary"].items():
            values = {side: [json.loads(p[side][-1])["metrics"][name]["value"] for p in pairs]
                      for side in (first, second)}
            for side, vs in values.items():
                q1, median, q3 = statistics.quantiles(vs, n=4)
                for key, want in (("q1", q1), ("median", median), ("q3", q3)):
                    assert math.isclose(stated[side][key], want, rel_tol=1e-12), \
                        (run_set["name"], name, side, key)
            sign = 1 if BETTER[name] == "higher" else -1
            better = sum(sign * (b - a) > 0 for a, b in zip(values[first], values[second]))
            assert stated[f"{second}_better_in"] == better, (run_set["name"], name)
