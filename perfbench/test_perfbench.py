"""Smoke test of the benchmark: every workload and every output check on
tiny inputs, plus the bypass predictions the traced run must show.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

# Layer metrics that must read zero on workloads that bypass the layer.
BYPASSED = {
    "train-20k": ("plsa.fold_in_calls", "plsa.fold_in_s", "taxonomy.lin_calls",
                  "taxonomy.load_s", "coherence.stats_s", "coherence.score_s"),
    "organize-albums": ("plsa.em_iters", "kernels.em_stats_ms_p50",
                        "taxonomy.lin_calls", "taxonomy.load_s",
                        "coherence.stats_s", "coherence.score_s"),
    "describe-topics": ("plsa.em_iters", "kernels.em_stats_ms_p50",
                        "plsa.fold_in_calls", "plsa.fold_in_s"),
}
# ... and layer metrics that must not, because the workload exercises them.
EXERCISED = {
    "train-20k": ("plsa.em_iters", "kernels.em_stats_ms_p50", "corpus.cooc_s"),
    "organize-albums": ("plsa.fold_in_calls", "pipeline.emit_s",
                        "corpus.parse_s"),
    "describe-topics": ("taxonomy.lin_calls", "naming.topics_named",
                        "coherence.stats_s", "cli.self_s"),
}


def test_smoke_all_workloads():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
    metrics = result["metrics"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in BYPASSED:
        for m in spec["per_layer"]:  # none missing at HEAD
            assert f"{workload}/{m['name']}" in metrics, (workload, m["name"])
        for name in ("op_p50_ms", "items_per_s", "setup_s", "peak_rss_mb"):
            assert metrics[f"{workload}/{name}"]["value"] > 0
        for name in BYPASSED[workload]:
            assert metrics[f"{workload}/{name}"]["value"] == 0, (workload, name)
        for name in EXERCISED[workload]:
            assert metrics[f"{workload}/{name}"]["value"] > 0, (workload, name)


def test_refuses_without_program_sources(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-20k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def traced_passes(n_passes: int) -> Tracer:
    """A tracer that saw ``n_passes`` identical passes of ancestors() calls."""
    tracer = Tracer()
    ancestors = tracer._count("taxonomy.TaxonomyGraph.ancestors",
                              lambda graph, synset: {synset})
    for _ in range(n_passes):
        for synset in ("a", "b", "a", "c", "a"):
            ancestors(None, synset)
    return tracer


def test_ancestors_ratio_independent_of_pass_count():
    ratios = [worker.layer_metrics(traced_passes(n), n, None, {})[
        "taxonomy.ancestors_useful_ratio"] for n in (1, 2, 3)]
    assert ratios == [3 / 5] * 3


def test_unreadable_result_is_missing_not_zero():
    """A changed return value leaves the metric missing (None), never 0."""
    tracer = Tracer()
    tracer._span("coherence.build_corpus_stats", lambda: object())()
    tracer._span("pipeline.emit_manifest", lambda: "not a byte count")()
    m = worker.layer_metrics(tracer, 1, None, {})
    assert m["coherence.joint_pairs"] is None
    assert m["pipeline.manifest_bytes"] is None
    assert m["coherence.stats_s"] > 0


class InterruptedWorkload:
    """Each operation sleeps 20 ms and is interrupted by calibration, as
    the timer signal would interrupt it."""

    def __init__(self, pace: Pace):
        self.pace = pace

    def ops(self):
        return ["a", "b", "c"]

    def key(self, op):
        return op

    def items(self, op):
        return 1

    def run(self, op):
        time.sleep(0.01)
        self.pace.probes(10)
        time.sleep(0.01)

    def outputs(self, op, out):
        return {"out": b"x"}


def test_calibration_time_is_not_operation_time(tmp_path):
    pace = Pace()
    samples = []
    tally = {"attempted": 0, "passes": 0, "failures": []}
    worker.run_pass(InterruptedWorkload(pace), samples, tally,
                    worker.Outputs(tmp_path), None, reload=False, pace=pace)
    assert tally["attempted"] == 3 and not tally["failures"]
    probe = min(pace.samples)
    for dt, _pass, _out in samples:
        assert 0.02 <= dt < 0.02 + 5 * probe
