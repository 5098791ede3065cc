#!/usr/bin/env python3
"""Seeded end-to-end benchmark of phototopics.

    python3 perfbench/run.py --workload train-20k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --workload all --smoke --seconds 0

Run from the root of a checkout. Inputs are generated from the seed into
``.perfbench_work/`` and removed after the run. Each measurement
runs in a fresh single-threaded worker process: BLAS pinned to one
thread, one caller in a closed loop. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of output is one JSON object; see METRICS.md for every
metric and which layer metric should move which end-to-end metric.
``--workload all`` runs every workload with and without tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-20k", "organize-albums", "describe-topics")
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    env.pop("PYTHONPATH", None)
    return env


def worker(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Generate inputs, measure in a worker, return its result.

    The inputs are removed afterwards; the spans of the latest traced run
    of each workload stay in ``.perfbench_work/spans-<workload>.jsonl.gz``.
    """
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    meta = gen.generate(name, seed, gen.SMOKE if smoke else gen.FULL, work)
    try:
        result = measure(name, work, seconds, trace)
        check_outputs(name, work, meta, result)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_outputs(name: str, work: Path, meta: dict, result: dict) -> None:
    """Run the oracles on the outputs the worker saved. Every operation
    whose output equals a saved output that fails its check counts as
    failed."""
    checker = checks.OutputChecks(name, work, meta, ROOT / "src")
    for saved in result["outputs"]:
        problem = checker.check(saved["key"], work / "outputs" / saved["dir"])
        if problem is not None:
            result["failed"] += saved["count"]
            result["failures"].append(problem)
    if "e2e" in result:  # an untraced run
        result["e2e"]["ops_failed_frac"] = (
            result["failed"] / result["attempted"], "ratio", result["attempted"])


def measure(name: str, work: Path, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--work", str(work)]
    out = work / "result.json"
    proc = worker([*common, "--seconds", str(seconds), "--trace", str(trace),
                   "--out", str(out),
                   "--spans", str(WORK / f"spans-{name}.jsonl.gz")])
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{name} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if trace == 0:
        setups = [{k: result[k] for k in ("setup_s", "wall_setup_s")}]
        for _ in range(SETUP_PROBES):
            probe = worker([*common, "--setup-only"])
            if probe.returncode != 0:
                raise RuntimeError(f"setup probe exited {probe.returncode}: "
                                   f"{probe.stderr.strip()[-2000:]}")
            setups.append(json.loads(probe.stdout.splitlines()[-1]))
        e2e = result["e2e"]
        for key in ("setup_s", "wall_setup_s"):
            e2e[key] = (statistics.median(s[key] for s in setups), "s",
                        len(setups))
        e2e["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1)
    return result


def report(name: str, seed: int, trace: int, result: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line,
    which are those ``spec`` (BENCHMARK.json) lists for the trace mode."""
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["failures"]:
        print(f"  FAILED: {problem}")
    if trace == 0:
        for metric, (value, unit, n) in result["e2e"].items():
            print(f"  {metric:<22} {value:>14.6g} {unit:<8} n={n}")
        metrics = {m["name"]: {"value": result["e2e"][m["name"]][0],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"  traced passes: {result['n_pairs']}")
        for metric, value in result["layers"].items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {metric:<34} {shown:>14} {units.get(metric, '')}")
        # a metric the program's changed values no longer give is left out
        metrics = {m: {"value": v, "unit": units.get(m, "")}
                   for m, v in result["layers"].items() if v is not None}
    print("env " + json.dumps(result["env"], sort_keys=True))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: every workload and check in seconds")
    args = ap.parse_args()
    if not (ROOT / "src" / "phototopics" / "__init__.py").is_file():
        return fail(f"no phototopics sources under {ROOT / 'src'}; "
                    "run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json missing from the checkout root")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            try:
                result = run_workload(name, args.seed, args.seconds, trace,
                                      args.smoke)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                return fail(str(exc))
            metrics = report(name, args.seed, trace, result, spec)
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            if args.workload == "all":
                metrics = {f"{name}/{m}": v for m, v in metrics.items()}
            summary["metrics"].update(metrics)
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
