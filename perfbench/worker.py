"""Run one workload in a fresh process and write its measurements as JSON.

Started by ``run.py``; not meant to be run by hand. The process imports
phototopics from the checkout's ``src/``, sets up the workload's caller,
then runs passes over the workload's operations in one closed loop (one
caller, the next operation starts when the previous one returns) until
``--seconds`` have passed. Each pass runs every operation once.

With ``--trace 1`` every pass is a pair: one untraced pass, then the same
pass with the tracer installed. End-to-end numbers always come from
``--trace 0`` runs.

Untraced (``--trace 0``) runs are calibrated (``pace.py``): a timer
signal runs a fixed kernel every 0.1 s, its time is taken out of the
operation it interrupted, and every end-to-end time is scaled to
reference speed by the run's median kernel time.

Only the standard library is imported here, so that ``setup_s`` covers
every import the program pays for (numpy included) and the process's
peak RSS is the program's. Outputs are not checked here: the first
output of each operation is saved under ``<work>/outputs/`` and later
ones are compared with it by digest; ``run.py`` runs the oracles on the
saved files after this process has exited.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from pace import Pace
from tracer import CHILD_WALL, NAME, T0, T1, Tracer

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter
SETUP_PROBES = 20  # calibration samples taken right after each set-up


def import_program():
    """Import phototopics from the checkout, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "phototopics" / "__init__.py").is_file():
        raise SystemExit(f"phototopics sources not found under {src}")
    sys.path.insert(0, str(src))
    import phototopics
    from phototopics import cli  # noqa: F401  (the CLI is part of set-up)

    if not Path(phototopics.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"phototopics imported from {phototopics.__file__}")
    return phototopics


@contextlib.contextmanager
def quiet():
    """Keep the CLI's progress lines out of the benchmark's output."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        yield


class OpFailed(Exception):
    pass


class NoPace:
    """Stands in for ``Pace`` in traced passes, which are not calibrated."""
    spent = 0.0


class TrainWorkload:
    """train-20k: ``build-vocab`` then ``train`` at CLI defaults."""

    def __init__(self, pt, work: Path, meta: dict):
        self.pt, self.work, self.meta = pt, work, meta
        self.records = work / "records.jsonl"
        self.vocab = work / "vocab.txt"
        self.model = work / "model.json"

    def setup(self) -> None:
        pass

    def ops(self) -> list:
        return ["train"]

    def key(self, op) -> str:
        return op

    def items(self, op) -> int:
        return self.meta["n_images"]

    def run(self, op):
        with quiet():
            rc = self.pt.cli.main(["build-vocab", str(self.records),
                                   "-o", str(self.vocab)])
            if rc == 0:
                rc = self.pt.cli.main(["train", str(self.records),
                                       str(self.vocab), "-o", str(self.model)])
        if rc != 0:
            raise OpFailed(f"exit code {rc}")

    def outputs(self, op, out) -> dict[str, bytes]:
        return {"model.json": self.model.read_bytes(),
                "vocab.txt": self.vocab.read_bytes()}


class OrganizeWorkload:
    """organize-albums: a long-lived caller organizes albums as they arrive."""

    def __init__(self, pt, work: Path, meta: dict):
        self.pt, self.work, self.meta = pt, work, meta

    def setup(self) -> None:
        self.model = self.pt.plsa.PlsaModel.load(self.work / "model.json")
        self.vocab = self.pt.Vocabulary.load(self.work / "vocab.txt")

    def ops(self) -> list:
        return self.meta["albums"]

    def key(self, album) -> str:
        return album["file"]

    def items(self, album) -> int:
        return album["n_images"]

    def run(self, album):
        path = self.work / "albums" / album["file"]
        with open(path, encoding="utf-8") as f:
            records = self.pt.parse_tag_records(f)
        collection = self.pt.organize_collection(records, self.model, self.vocab)
        sink = io.BytesIO()
        self.pt.emit_manifest(collection, sink)
        return sink.getvalue()

    def outputs(self, album, data: bytes) -> dict[str, bytes]:
        return {"manifest.json": data}


class DescribeWorkload:
    """describe-topics: ``name-topics`` then ``coherence`` for one candidate
    model per operation; a pass covers every candidate K. The two parts
    are timed without the calibration that interrupted them."""

    pace = NoPace

    def __init__(self, pt, work: Path, meta: dict):
        self.pt, self.work, self.meta = pt, work, meta

    def setup(self) -> None:
        pass

    def ops(self) -> list:
        return self.meta["models"]

    def key(self, m) -> str:
        return m["file"]

    def items(self, m) -> int:
        return m["k"]

    def run(self, m):
        w = self.work
        t0 = clock() - self.pace.spent
        with quiet():
            rc = self.pt.cli.main([
                "name-topics", str(w / m["file"]), str(w / "vocab.txt"),
                "--taxonomy", str(w / "taxonomy.tsv"),
                "--lexicon", str(w / "lexicon.tsv"),
                "--ic-counts", str(w / "counts.tsv"),
                "-o", str(w / f"names_k{m['k']}.json")])
            t1 = clock() - self.pace.spent
            if rc == 0:
                rc = self.pt.cli.main([
                    "coherence", str(w / m["file"]), str(w / "vocab.txt"),
                    "--ref-corpus", str(w / "ref_corpus.txt"),
                    "-o", str(w / f"coherence_k{m['k']}.json")])
        t2 = clock() - self.pace.spent
        if rc != 0:
            raise OpFailed(f"exit code {rc} on {m['file']}")
        return {"naming_s": t1 - t0, "coherence_s": t2 - t1}

    def outputs(self, m, out) -> dict[str, bytes]:
        return {"names.json": (self.work / f"names_k{m['k']}.json").read_bytes(),
                "coherence.json":
                    (self.work / f"coherence_k{m['k']}.json").read_bytes()}


class Outputs:
    """The first output of each operation, saved for the parent's checks;
    later outputs are compared with it by digest."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.first: dict[str, str] = {}  # key -> digest of the first output
        self.same: dict[str, int] = {}   # key -> outputs equal to the first

    def add(self, key: str, files: dict[str, bytes]) -> str | None:
        h = hashlib.sha256()
        for name in sorted(files):
            h.update(name.encode() + b"\0" + files[name] + b"\0")
        digest = h.hexdigest()
        if key not in self.first:
            target = self.dir / f"{len(self.first):05d}"
            target.mkdir(parents=True)
            for name, data in files.items():
                (target / name).write_bytes(data)
            self.first[key] = digest
            self.same[key] = 0
        if digest != self.first[key]:
            return f"{key}: output differs from the first pass"
        self.same[key] += 1
        return None

    def manifest(self) -> list[dict]:
        return [{"key": key, "dir": f"{i:05d}", "count": self.same[key]}
                for i, key in enumerate(self.first)]


WORKLOADS = {"train-20k": TrainWorkload, "organize-albums": OrganizeWorkload,
             "describe-topics": DescribeWorkload}


def run_pass(wl, samples: list, tally: dict, outputs: Outputs,
             tracer: Tracer | None, reload: bool,
             pace=NoPace) -> tuple[float, int]:
    """One pass over the workload's operations; returns its timed seconds
    and the items its operations processed.

    ``tally`` counts operations attempted and collects failure messages;
    ``samples`` gets (seconds, pass number, operation's return value).
    Calibration time that interrupted an operation is not part of it.
    """
    total = 0.0
    items = 0
    if reload:  # the caller's set-up, repeated so trace overhead covers it
        t0 = clock()
        wl.setup()
        total += clock() - t0
    for op in wl.ops():
        if tracer is not None:
            tracer.new_op()
        tally["attempted"] += 1
        spent = pace.spent
        t0 = clock()
        try:
            out = wl.run(op)
        except Exception as exc:  # an operation that raised counts as failed
            total += clock() - t0 - (pace.spent - spent)
            tally["failures"].append(f"{type(exc).__name__}: {exc}")
            continue
        dt = clock() - t0 - (pace.spent - spent)
        total += dt
        try:
            files = wl.outputs(op, out)
        except OSError as exc:  # exited 0 without writing its output
            tally["failures"].append(f"{wl.key(op)}: {exc}")
            continue
        problem = outputs.add(wl.key(op), files)
        if problem is not None:
            tally["failures"].append(problem)
        items += wl.items(op)
        samples.append((dt, tally["passes"], out if isinstance(out, dict) else None))
    tally["passes"] += 1
    return total, items


class Deadline:
    """Stop before a pass that would likely end past the run's length, so
    that runs end near ``seconds`` whatever the pass length; at least one
    pass always runs."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = clock()
        self.walls = []

    def reached(self) -> bool:
        now = clock()
        self.walls.append(now - self.last)
        self.last = now
        return now - self.start + statistics.median(self.walls) > self.seconds


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1,
                              math.ceil(q / 100.0 * len(ordered)) - 1))]


def end_to_end(name: str, samples: list, passes: list, scale: float) -> dict:
    """The workload's own metrics: value, unit and sample count.

    Times are reference-speed times (``pace.py``): wall time times
    ``scale``. Throughput is the median over passes of items per
    reference second of operation time, latency the median over
    operations. describe-topics reports naming and coherence time per
    pass, summed over the candidate models. The median wall-clock latency
    and throughput are reported too, unscaled.
    """
    times = [s[0] * scale for s in samples]
    rate = statistics.median(items / (secs * scale) for secs, items in passes)
    out = {"op_p50_ms": (statistics.median(times) * 1e3, "ms", len(times)),
           "items_per_s": (rate, "items/s", len(passes))}
    if name == "train-20k":
        out["train_s"] = (statistics.median(times), "s", len(times))
    elif name == "organize-albums":
        out["album_images_per_s"] = (rate, "img/s", len(passes))
        out["album_p50_ms"] = (statistics.median(times) * 1e3, "ms", len(times))
        out["album_p95_ms"] = (pct(times, 95) * 1e3, "ms", len(times))
    else:  # per pass: the sum over the candidate models
        for key in ("naming_s", "coherence_s"):
            per_pass: dict[int, float] = {}
            for _dt, p, extra in samples:
                per_pass[p] = per_pass.get(p, 0.0) + extra[key] * scale
            out[key] = (statistics.median(per_pass.values()), "s", len(per_pass))
    out["wall_op_p50_ms"] = (statistics.median(s[0] for s in samples) * 1e3,
                             "ms", len(samples))
    out["wall_items_per_s"] = (statistics.median(items / secs for secs, items
                                                 in passes),
                               "items/s", len(passes))
    return out


def layer_metrics(tracer: Tracer, n_passes: int, wl, meta: dict) -> dict:
    """Per-pass layer metrics from the traced passes.

    A metric read from a value the program returned is None (reported as
    missing) when that value no longer has the shape the tracer reads, so
    that a changed program shows a gap, never a 0 that looks like a gain.
    """
    n = max(n_passes, 1)
    c = tracer.counters

    def total(name):
        return sum(tracer.durations(name)) / n

    def p50_ms(name):
        d = tracer.durations(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def calls(name):
        return c[name][0] / n if name in c else 0.0

    def facts(name):
        """Facts kept from each call's return value; None if any was unreadable."""
        values = tracer.results[name]
        return None if None in values else values

    def per_pass(values):
        return None if values is None else sum(values) / n

    def last(values):
        return None if values is None else float(values[-1] if values else 0)

    def ratio(a, b):
        if a is None or b is None:
            return None
        return a / b if b > 0 else 0.0

    m = {}
    m["corpus.parse_s"] = total("corpus.parse_tag_records")
    m["corpus.parse_records_per_s"] = ratio(
        per_pass(facts("corpus.parse_tag_records")), m["corpus.parse_s"])
    m["corpus.build_vocab_s"] = total("corpus.build_vocabulary")
    m["corpus.cooc_s"] = total("corpus.build_cooccurrence")
    m["corpus.nnz"] = last(facts("corpus.build_cooccurrence"))
    m["corpus.vectorize_calls"] = calls("corpus.vectorize_record")
    m["corpus.vectorize_s"] = c["corpus.vectorize_record"][1] / n

    em = tracer.durations("plsa.em_step")
    stats = tracer.durations("kernels.em_sufficient_stats")
    m["plsa.em_iters"] = len(em) / n
    m["plsa.em_step_ms_p50"] = p50_ms("plsa.em_step")
    m["plsa.loglik_s"] = total("plsa.log_likelihood")
    m["plsa.model_save_s"] = total("plsa.PlsaModel.save")
    m["kernels.em_stats_ms_p50"] = p50_ms("kernels.em_sufficient_stats")
    m["kernels.em_stats_share"] = ratio(sum(stats), sum(em))
    flops = bytes_ = 0.0
    if em and isinstance(wl, TrainWorkload):
        model = json.loads(wl.model.read_text(encoding="utf-8"))
        nnz, k = m["corpus.nnz"], model["n_topics"]
        shape_m, shape_n = model["n_words"], meta["n_images"]
        # per iteration: 5 flops per non-zero and topic (gather-multiply,
        # normalizing sum, scale, two accumulations) plus a divide and a
        # log per non-zero; bytes: the non-zero's indices and value, its
        # gathered theta row and phi column, the scattered statistics, and
        # one read and write of theta and phi.
        flops = None if nnz is None else nnz * (5 * k + 2)
        bytes_ = None if nnz is None else (nnz * (24 + 8 * 4 * k)
                                          + 2 * 8 * k * (shape_m + shape_n))
    m["kernels.em_flops_computed"] = flops
    m["kernels.em_bytes_computed"] = bytes_
    m["kernels.em_gflops_per_s"] = ratio(
        None if flops is None else flops * len(em) / 1e9, sum(stats))

    fold = tracer.durations("plsa.fold_in")
    m["plsa.fold_in_calls"] = len(fold) / n
    m["plsa.fold_in_us_p50"] = statistics.median(fold) * 1e6 if fold else 0.0
    m["plsa.fold_in_us_p99"] = pct(fold, 99) * 1e6 if fold else 0.0
    m["plsa.fold_in_s"] = sum(fold) / n
    m["plsa.assign_s"] = c["plsa.assign_topic"][1] / n
    m["plsa.model_load_s"] = total("plsa.PlsaModel.load")

    organize_self = sum(s[T1] - s[T0] - s[CHILD_WALL] for s in tracer.spans
                        if s[NAME] == "pipeline.organize_collection")
    m["pipeline.organize_self_s"] = organize_self / n
    m["pipeline.emit_s"] = total("pipeline.emit_manifest")
    m["pipeline.manifest_bytes"] = per_pass(facts("pipeline.emit_manifest"))

    m["taxonomy.load_s"] = total("taxonomy.load_taxonomy")
    m["taxonomy.lin_calls"] = calls("taxonomy.lin_similarity")
    m["taxonomy.lcs_calls"] = calls("taxonomy.lcs")
    anc = calls("taxonomy.TaxonomyGraph.ancestors")
    m["taxonomy.ancestors_calls"] = anc
    # every pass asks for the same synsets, so the set over all passes is
    # the set of one pass
    m["taxonomy.ancestors_useful_ratio"] = ratio(len(tracer.ancestor_args), anc)
    m["naming.name_topics_s"] = total("naming.name_topics")
    m["naming.topics_named"] = per_pass(facts("naming.name_topics"))

    m["coherence.stats_s"] = total("coherence.build_corpus_stats")
    n_stats = len(tracer.durations("coherence.build_corpus_stats"))
    m["coherence.ref_tokens_per_s"] = ratio(
        meta.get("ref_tokens", 0) * n_stats / n, m["coherence.stats_s"])
    m["coherence.joint_pairs"] = last(facts("coherence.build_corpus_stats"))
    m["coherence.score_s"] = sum(total(f"coherence.{f}") for f in
                                 ("uci_score", "umass_score", "avg_npmi"))
    m["coherence.umass_warnings"] = tracer.umass_warnings / n

    selfs = tracer.layer_self()
    for layer in ("cli", "corpus", "plsa", "kernels", "pipeline", "taxonomy",
                  "naming", "coherence"):
        wall, cpu = selfs.get(layer, (0.0, 0.0))
        m[f"{layer}.self_s"] = wall / n
        m[f"{layer}.self_cpu_s"] = cpu / n
    return m


def micro(pt) -> dict:
    """Warm kernel timings at the reference-corpus shape (M=1496,
    N=20000, 10 words per document, K=8), independent of the workload.
    A kernel whose call no longer fits is reported as missing (None)."""
    import numpy as np  # already loaded by the program

    k, m, n, per_doc = 8, 1496, 20000, 10
    rng = np.random.default_rng(0)
    rows = rng.integers(0, m, size=n * per_doc).astype(np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), per_doc)
    vals = np.ones(n * per_doc)
    pwz = rng.random((k, m)) + 1e-3
    pwz /= pwz.sum(axis=1, keepdims=True)
    pzd = rng.random((n, k)) + 1e-3
    pzd /= pzd.sum(axis=1, keepdims=True)
    widx = np.sort(rng.choice(m, size=per_doc, replace=False)).astype(np.int64)
    wvals = np.ones(per_doc)
    kern = pt._kernels

    def median_of(fn, args, reps, scale):
        try:
            fn(*args)  # warm-up
        except (AttributeError, TypeError) as exc:  # kernel API changed
            print(f"micro benchmark missing: {exc}", file=sys.stderr)
            return None
        times = []
        for _ in range(reps):
            t0 = clock()
            fn(*args)
            times.append(clock() - t0)
        return statistics.median(times) * scale

    return {
        "micro.em_stats_ms": median_of(
            getattr(kern, "em_sufficient_stats", None),
            (rows, cols, vals, pwz, pzd), 9, 1e3),
        "micro.fold_in_us": median_of(
            getattr(kern, "fold_in_kernel", None),
            (widx, wvals, pwz, 200, 1e-10), 200, 1e6),
    }


def environment(pt) -> dict:
    """Read after the measurements; imports nothing the program did not."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernels_has_numba": getattr(pt._kernels, "HAS_NUMBA", None),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    meta = json.loads((args.work / "meta.json").read_text(encoding="utf-8"))

    t0 = clock()
    pt = import_program()
    wl = WORKLOADS[args.workload](pt, args.work, meta)
    wl.setup()
    setup_s = clock() - t0
    # calibrate right after set-up; this also warms the kernel for the run
    pace = Pace()
    pace.probes(SETUP_PROBES)
    setup = {"setup_s": setup_s * pace.scale(), "wall_setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    samples = []
    tally = {"attempted": 0, "passes": 0, "failures": []}
    outputs = Outputs(args.work / "outputs")
    result = dict(setup)
    if args.trace == 0:
        passes = []
        wl.pace = pace
        deadline = Deadline(args.seconds)
        pace.start()
        try:
            while True:
                passes.append(run_pass(wl, samples, tally, outputs, None,
                                       reload=False, pace=pace))
                if deadline.reached():
                    break
        finally:
            pace.stop()
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not samples:
            raise SystemExit(f"every operation failed: {tally['failures'][:3]}")
        result["e2e"] = end_to_end(args.workload, samples, passes,
                                   pace.scale())
        result["e2e"]["pace_scale"] = (pace.scale(), "ratio", len(pace.samples))
    else:
        tracer = Tracer()
        untraced = traced = 0.0
        n_pairs = 0
        deadline = Deadline(args.seconds)
        while True:
            untraced += run_pass(wl, [], tally, outputs, None, reload=True)[0]
            tracer.install()
            try:
                traced += run_pass(wl, samples, tally, outputs, tracer,
                                   reload=True)[0]
            finally:
                tracer.uninstall()
            n_pairs += 1
            if deadline.reached():
                break
        layers = layer_metrics(tracer, n_pairs, wl, meta)
        # both sides repeat the caller's set-up once per pass
        layers["trace.overhead_frac"] = (traced - untraced) / untraced
        layers.update(micro(pt))
        result["layers"] = layers
        result["n_pairs"] = n_pairs
        tracer.write(args.spans)
    result["env"] = environment(pt)
    result["attempted"] = tally["attempted"]
    result["failed"] = len(tally["failures"])
    result["failures"] = tally["failures"][:20]
    result["outputs"] = outputs.manifest()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
