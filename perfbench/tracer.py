"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the phototopics modules
with timing wrappers, in every module namespace that bound them, and
``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span records name, start, end, CPU start/end, parent span and the
operation id it belongs to. Hot per-item calls get counters instead: a
call count and, for the outermost counted call, its wall and CPU time,
which is charged to the enclosing span as child time so that self times
still add up.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import warnings
from collections import defaultdict

# (module, qualified name, kind). "span" wraps a layer boundary; "count"
# a hot per-item call.
TRACED = (
    ("cli", "main", "span"),
    ("corpus", "parse_tag_records", "span"),
    ("corpus", "build_vocabulary", "span"),
    ("corpus", "build_cooccurrence", "span"),
    ("corpus", "vectorize_record", "count"),
    ("corpus", "Vocabulary.load", "span"),
    ("corpus", "Vocabulary.save", "span"),
    ("plsa", "train", "span"),
    ("plsa", "em_step", "span"),
    ("plsa", "log_likelihood", "span"),
    ("plsa", "fold_in", "span"),
    ("plsa", "assign_topic", "count"),
    ("plsa", "top_words", "span"),
    ("plsa", "PlsaModel.load", "span"),
    ("plsa", "PlsaModel.save", "span"),
    ("_kernels", "em_sufficient_stats", "span"),
    ("_kernels", "fold_in_kernel", "count"),
    ("pipeline", "organize_collection", "span"),
    ("pipeline", "emit_manifest", "span"),
    ("taxonomy", "load_taxonomy", "span"),
    ("taxonomy", "compute_ic", "span"),
    ("taxonomy", "word_similarity", "count"),
    ("taxonomy", "lin_similarity", "count"),
    ("taxonomy", "lcs", "count"),
    ("taxonomy", "TaxonomyGraph.ancestors", "count"),
    ("taxonomy", "TaxonomyGraph.hops_up", "count"),
    ("naming", "default_name_defs", "span"),
    ("naming", "name_topics", "span"),
    ("naming", "score_topic_names", "span"),
    ("coherence", "build_corpus_stats", "span"),
    ("coherence", "uci_score", "span"),
    ("coherence", "umass_score", "span"),
    ("coherence", "avg_npmi", "span"),
)

# Span fields, in order.
NAME, PARENT, OP, T0, T1, C0, C1, CHILD_WALL, CHILD_CPU = range(9)

_clock = time.perf_counter
_cpu = time.thread_time


def layer_of(name: str) -> str:
    return name.split(".", 1)[0].lstrip("_")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0
        # name -> [calls, wall_s, cpu_s]; time only for outermost calls
        self.counters = defaultdict(lambda: [0, 0.0, 0.0])
        self.results = defaultdict(list)  # span name -> small facts per call
        self.ancestor_args: set = set()
        self.umass_warnings = 0
        self._counting = False
        self._patches: list[tuple[object, str, object]] = []

    def new_op(self) -> None:
        self.op_id += 1

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        on_result = _RESULT_FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, parent, self.op_id, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[C0] = _cpu()
            rec[T0] = _clock()
            try:
                if name == "coherence.umass_score":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self.umass_warnings += len(caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                rec[T1] = _clock()
                rec[C1] = _cpu()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_WALL] += rec[T1] - rec[T0]
                    spans[parent][CHILD_CPU] += rec[C1] - rec[C0]
            if on_result is not None:
                self.results[name].append(on_result(result))
            return result

        return wrapper

    def _count(self, name, fn):
        counter = self.counters[name]
        spans, stack = self.spans, self.stack
        keep_arg = name == "taxonomy.TaxonomyGraph.ancestors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            if keep_arg:
                self.ancestor_args.add(args[1])
            if self._counting:
                return fn(*args, **kwargs)
            self._counting = True
            c0 = _cpu()
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = _clock() - t0
                cpu = _cpu() - c0
                self._counting = False
                counter[1] += wall
                counter[2] += cpu
                if stack:
                    spans[stack[-1]][CHILD_WALL] += wall
                    spans[stack[-1]][CHILD_CPU] += cpu

        return wrapper

    # -- install / uninstall ------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a phototopics module bound it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "phototopics" or n.startswith("phototopics.")]
        for mod_name, qualname, kind in TRACED:
            mod = sys.modules[f"phototopics.{mod_name}"]
            owner, attr = mod, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            name = f"{layer_of(mod_name)}.{qualname}"
            wrapped = (self._span if kind == "span" else self._count)(name, fn)
            self._patch(owner, attr, raw,
                        classmethod(wrapped) if is_classmethod else wrapped)
            if owner is mod:
                for other in modules:
                    if other is not mod and other.__dict__.get(attr) is fn:
                        self._patch(other, attr, fn, wrapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, id, parent, op, start, end,
        self time; then one line per counter."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for idx, s in enumerate(self.spans):
                f.write(json.dumps({
                    "name": s[NAME], "id": idx, "parent": s[PARENT],
                    "op": s[OP], "start": s[T0], "end": s[T1],
                    "self_s": s[T1] - s[T0] - s[CHILD_WALL],
                    "self_cpu_s": s[C1] - s[C0] - s[CHILD_CPU],
                }) + "\n")
            for name, (calls, wall, cpu) in sorted(self.counters.items()):
                f.write(json.dumps({"counter": name, "calls": calls,
                                    "wall_s": wall, "cpu_s": cpu}) + "\n")

    def durations(self, name: str) -> list[float]:
        return [s[T1] - s[T0] for s in self.spans if s[NAME] == name]

    def layer_self(self) -> dict[str, tuple[float, float]]:
        """Layer -> (self wall s, self CPU s) over spans and counters."""
        out = defaultdict(lambda: [0.0, 0.0])
        for s in self.spans:
            acc = out[layer_of(s[NAME])]
            acc[0] += s[T1] - s[T0] - s[CHILD_WALL]
            acc[1] += s[C1] - s[C0] - s[CHILD_CPU]
        for name, (_calls, wall, cpu) in self.counters.items():
            acc = out[layer_of(name)]
            acc[0] += wall
            acc[1] += cpu
        return {k: (v[0], v[1]) for k, v in out.items()}


def _len_or_none(result):
    try:
        return len(result)
    except TypeError:
        return None


# Small facts kept from a span's return value. A fact that can no longer
# be read (the program changed the value's type) is kept as None, and the
# metric built from it is reported as missing rather than as 0.
_RESULT_FACTS = {
    "corpus.parse_tag_records": _len_or_none,
    "corpus.build_cooccurrence": lambda x: getattr(x, "nnz", None),
    "pipeline.emit_manifest": lambda n: n if isinstance(n, int) else None,
    "naming.name_topics": _len_or_none,
    "coherence.build_corpus_stats":
        lambda s: _len_or_none(getattr(s, "joint_df", None)),
}
