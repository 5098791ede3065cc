"""The benchmark's tracer wraps phototopics functions by name.

``perfbench/tracer.py`` (standard library only) lists them in ``TRACED``,
and ``Tracer.install`` reads each one from its owner's ``__dict__``, so a
deleted or renamed function breaks every traced benchmark run. This test
catches that in the tier-1 suite.
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
