"""The committed benchmark files hold what a performance claim cites.

Each ``BENCH_<workload>.json`` at the root of the repository records
alternating parent/change runs of ``perfbench/run.py``: the raw final
JSON line of at least ten ``--trace 0`` runs per side, each side's median
and quartiles of every metric, and one ``--trace 1`` run per side. The
summaries must be recomputable from the raw runs, so a hand-edited or
stale number fails here. Standard library only.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SIDES = ("parent", "change")
MIN_RUNS = 10


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_bench_file_is_checked():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_names_its_workload_commands_revisions_and_a_clean_tree(path):
    bench = _load(path)
    workload = bench["workload"]
    assert workload in WORKLOADS and path.name == f"BENCH_{workload}.json"
    run = f"python3 perfbench/run.py --workload {workload} --seed 0 --seconds 30"
    assert bench["command"] == f"{run} --trace 0"
    assert bench["trace_command"] == f"{run} --trace 1"
    for side in SIDES:
        assert re.fullmatch(r"[0-9a-f]{40}", bench["revisions"][side]), side
        assert bench["env"][side]
    assert bench["revisions"]["parent"] != bench["revisions"]["change"]
    assert bench["dirty"] is False


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
@pytest.mark.parametrize("side", SIDES)
def test_runs_are_complete_and_none_failed(path, side):
    bench = _load(path)
    runs = bench["trace0"]["runs"][side]
    summary = bench["trace0"]["summary"][side]
    assert len(runs) >= MIN_RUNS
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    assert summary["failed_ops"] == 0
    assert summary["attempted_ops"] == sum(r["attempted"] for r in runs)
    traced = bench["trace1"][side]
    assert traced["correct"] and traced["failed"] == 0 and traced["metrics"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
@pytest.mark.parametrize("side", SIDES)
def test_summary_is_the_quartiles_of_the_raw_runs(path, side):
    bench = _load(path)
    runs = bench["trace0"]["runs"][side]
    summary = bench["trace0"]["summary"][side]
    metrics = {m for m, s in summary.items() if isinstance(s, dict)}
    assert metrics and all(set(r["metrics"]) == metrics for r in runs)
    for metric in sorted(metrics):
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        got = summary[metric]
        assert (got["q1"], got["median"], got["q3"]) == (q1, median, q3), metric
        assert {r["metrics"][metric]["unit"] for r in runs} == {got["unit"]}
