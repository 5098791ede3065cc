"""The benchmark calls phototopics functions by name.

``perfbench/tracer.py`` (standard library only) lists them in ``TRACED``,
and ``Tracer.install`` reads each one from its owner's ``__dict__``, so a
deleted or renamed function breaks every traced benchmark run.
``perfbench/worker.py::micro`` calls the two EM kernels directly and
reports a call that no longer fits as missing. These tests catch both in
the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, qualname: str) -> bool:
    owner = importlib.import_module(f"phototopics.{module}")
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = vars(owner).get(name)
        if owner is None:
            return False
    return attr in vars(owner)


def test_every_traced_name_resolves():
    traced = _load_tracer().TRACED
    assert traced
    missing = [f"{m}.{q}" for m, q, _kind in traced if not _resolves(m, q)]
    assert missing == []


def test_album_calls_reach_the_traced_layers(tmp_path):
    """The benchmark's organize-albums operation, call for call, under its
    tracer: the parse returns something with a length, organize builds
    the co-occurrence matrix and folds it in, and emit returns the byte
    count. A rewrite that bypassed a traced function would read 0 there."""
    import io

    import numpy as np

    import phototopics as pt
    from conftest import tag_record_line

    vocab = pt.Vocabulary(("beach", "dog"))
    model = pt.PlsaModel(np.array([[0.9, 0.1], [0.2, 0.8]]), np.zeros((0, 2)),
                         np.array([0.5, 0.5]), seed=0, vocab_hash=vocab.digest())
    album = tmp_path / "album.jsonl"
    album.write_text("".join(
        tag_record_line(i, "u", tags) + "\n"
        for i, tags in [("b", [("dog", 0.9)]), ("a", [("beach", 0.4)]),
                        ("c", [("yak", 0.5), ("dog", 1.0)])]))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        with open(album, encoding="utf-8") as f:
            records = pt.parse_tag_records(f)
        n_records = len(records)
        collection = pt.organize_collection(records, model, vocab)
        sink = io.BytesIO()
        n_bytes = pt.emit_manifest(collection, sink)
    finally:
        tracer.uninstall()
    assert n_records == 3
    assert n_bytes == len(sink.getvalue()) > 0
    assert tracer.results["corpus.parse_tag_records"] == [3]
    assert tracer.results["corpus.build_cooccurrence"] == [3]  # nnz
    assert tracer.results["pipeline.emit_manifest"] == [n_bytes]
    for name in ("pipeline.organize_collection", "corpus.build_cooccurrence",
                 "plsa.fold_in"):
        assert len(tracer.durations(name)) == 1, name


def test_kernels_take_the_micro_benchmark_calls():
    """The kernel calls of ``perfbench/worker.py::micro``: positional
    arguments, and fold-in of one document without ``cols``."""
    import numpy as np

    from phototopics import _kernels

    k, m, n, per_doc = 3, 20, 5, 4
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
    nwz, nzd, nz, ll = _kernels.em_sufficient_stats(rows, cols, vals, pwz, pzd)
    assert (nwz.shape, nzd.shape, nz.shape) == ((k, m), (n, k), (k,))
    assert np.isfinite(ll)
    theta = _kernels.fold_in_kernel(widx, wvals, pwz, 200, 1e-10)
    assert theta.shape == (1, k)
    np.testing.assert_allclose(theta.sum(axis=1), 1.0)
