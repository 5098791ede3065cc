"""Independent output checks: plain numpy and brute-force recounts.

They run in ``run.py`` after the measuring worker has exited, on the
outputs it saved, so that neither their imports nor their memory count
in the worker's figures. Apart from the model's own ``validate()``, none
of them call the program; they read its output files and the generated
inputs and recompute what the output must contain.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

TINY = np.finfo(np.float64).tiny
FOLD_IN_MAX_ITERS = 200
FOLD_IN_TOL = 1e-10
NULL_THRESHOLD = 0.035
MIXTURE_ATOL = 1e-8
SCORE_RTOL = 1e-9
MIN_BLOCK_ACCURACY = 0.75


def read_tags(line: str) -> dict[str, float]:
    """One record's tags, lowercased, duplicates merged by max confidence."""
    tags: dict[str, float] = {}
    for entry in json.loads(line)["tags"]:
        tag = str(entry["tag"]).lower()
        conf = float(entry["confidence"])
        if conf > tags.get(tag, -1.0):
            tags[tag] = conf
    return tags


def binary_vector(tags, index: dict[str, int]) -> np.ndarray:
    return np.array(sorted(index[t] for t in tags if t in index), dtype=np.int64)


# -- train --------------------------------------------------------------

def check_trained_model(model: dict, docs: list[np.ndarray],
                        labels: np.ndarray) -> str | None:
    """Finite log-likelihood equal to a recount, and planted blocks found.

    pLSA EM from the CLI's default seed can end in a local optimum in
    which one topic covers two planted blocks and another block is split,
    so recovery asks for a best-matching image accuracy of at least
    ``MIN_BLOCK_ACCURACY``: one such merge scores about 0.81, two 0.62.
    """
    ll = model["final_log_likelihood"]
    if not isinstance(ll, (int, float)) or not math.isfinite(ll):
        return f"non-finite log-likelihood {ll!r}"
    theta = np.asarray(model["doc_mixtures"], dtype=np.float64)
    phi = np.asarray(model["word_given_topic"], dtype=np.float64)
    if theta.shape[0] != len(docs):
        return f"{theta.shape[0]} doc mixtures for {len(docs)} records"
    recount = 0.0
    for d, widx in enumerate(docs):
        if len(widx):
            recount += float(np.log(np.maximum(theta[d] @ phi[:, widx], TINY)).sum())
    if abs(recount - ll) > SCORE_RTOL * max(1.0, abs(ll)):
        return f"log-likelihood {ll} but recount gives {recount}"
    k = phi.shape[0]
    confusion = np.zeros((k, int(labels.max()) + 1))
    np.add.at(confusion, (theta.argmax(axis=1), labels), 1)
    rows, cols = linear_sum_assignment(-confusion)
    accuracy = confusion[rows, cols].sum() / len(labels)
    if accuracy < MIN_BLOCK_ACCURACY:
        return f"planted blocks recovered for only {accuracy:.3f} of images"
    return None


# -- organize -----------------------------------------------------------

def fold_in_oracle(phi: np.ndarray, widx: np.ndarray) -> np.ndarray:
    """EM on one document's mixture with P(w|z) frozen, binary counts."""
    k = phi.shape[0]
    theta = np.full(k, 1.0 / k)
    if len(widx) == 0:
        return theta
    pw = phi[:, widx].T
    for _ in range(FOLD_IN_MAX_ITERS):
        q = pw * theta
        q /= np.maximum(q.sum(axis=1), TINY)[:, None]
        new = q.sum(axis=0)
        total = new.sum()
        new = new / total if total > 0 else np.full(k, 1.0 / k)
        delta = np.abs(new - theta).max()
        theta = new
        if delta < FOLD_IN_TOL:
            break
    return theta


def check_manifest(data: bytes, lines: list[str], phi: np.ndarray,
                   index: dict[str, int], sample: list[int]) -> str | None:
    """Every image once, coverage equal to a recount, sampled mixtures
    and topics equal to the oracle's."""
    manifest = json.loads(data)
    ids = [json.loads(line)["image_id"] for line in lines]
    images = manifest["images"]
    got = [e["image_id"] for e in images]
    if sorted(got) != sorted(ids) or len(set(got)) != len(got):
        return "manifest images differ from the album's images"
    indexed = [i for cats in manifest["index"].values()
               for bucket in cats.values() for i in bucket]
    if sorted(indexed) != sorted(ids):
        return "manifest index does not hold every image exactly once"
    hit = sum(1 for e in images if e["topic"] != "Null")
    if abs(manifest["coverage"] - hit / len(images)) > 1e-12:
        return f"coverage {manifest['coverage']} but recount gives {hit / len(images)}"
    by_id = {e["image_id"]: e for e in images}
    for j in sample:
        entry = by_id[ids[j]]
        expected = fold_in_oracle(phi, binary_vector(read_tags(lines[j]), index))
        diff = float(np.abs(np.asarray(entry["mixture"]) - expected).max())
        if diff > MIXTURE_ATOL:
            return f"mixture of {ids[j]} off the oracle by {diff:.2e}"
        top = int(np.argmax(expected))
        name = "Null" if expected[top] < NULL_THRESHOLD else f"Topic {top}"
        if entry["topic"] != name:
            return f"{ids[j]} assigned {entry['topic']!r}, oracle says {name!r}"
    return None


# -- describe -----------------------------------------------------------

def top_words(phi_row: np.ndarray, words: list[str], n: int) -> list[str]:
    order = sorted(range(len(words)), key=lambda i: (-phi_row[i], words[i]))
    return [words[i] for i in order[:n]]


def coherence_oracle(top: list[str], docs: list[set[str]],
                     eps: float) -> dict[str, float]:
    """UCI, UMass and average NPMI from a brute-force document recount."""
    n_docs = len(docs)
    holding = {w: {i for i, d in enumerate(docs) if w in d} for w in top}
    df = {w: len(holding[w]) for w in top}

    def joint(a, b):
        return len(holding[a] & holding[b]) / n_docs

    def p(w):
        return df[w] / n_docs

    pairs = list(combinations(top, 2))
    uci = npmi = 0.0
    for a, b in pairs:
        pj = joint(a, b)
        marg = (p(a) or eps) * (p(b) or eps)
        pmi = math.log((pj + eps) / marg)
        uci += pmi
        denom = -math.log(pj + eps)
        npmi += 1.0 if denom <= 0.0 else pmi / denom
    ordered = sorted(top, key=lambda w: (-df[w], w))
    umass = 0.0
    for j in range(1, len(ordered)):
        for i in range(j):
            umass += math.log((joint(ordered[j], ordered[i]) + eps)
                              / (p(ordered[i]) or eps))
    n = len(pairs)
    return {"uci": uci / n, "umass": umass / n, "avg_npmi": npmi / n}


def check_coherence(result: dict, phi: np.ndarray, words: list[str],
                    docs: list[set[str]], sample: list[int],
                    top_n: int, eps: float) -> str | None:
    rows = {r["topic"]: r for r in result["topics"]}
    if sorted(rows) != list(range(phi.shape[0])):
        return "coherence output does not cover every topic"
    for k in sample:
        expected = coherence_oracle(top_words(phi[k], words, top_n), docs, eps)
        for metric, value in expected.items():
            got = rows[k][metric]
            if abs(got - value) > SCORE_RTOL * max(1.0, abs(value)):
                return f"topic {k} {metric} {got} but recount gives {value}"
    return None


def check_names(result: list, planted: list[str]) -> str | None:
    got = [r["name"] for r in sorted(result, key=lambda r: r["topic"])]
    if got != planted:
        wrong = [k for k, (g, p) in enumerate(zip(got, planted)) if g != p]
        return f"topics {wrong[:5]} named {[got[k] for k in wrong[:5]]}"
    return None


# -- per workload, on the outputs a worker saved --------------------------

COHERENCE_TOP_N = 10  # the CLI's defaults
COHERENCE_EPSILON = 1e-12
ALBUM_SAMPLE = 5


def program_validate(src: Path, model_path: Path) -> str | None:
    """The program's own ``PlsaModel.validate()`` on a saved model."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from phototopics import PhototopicsError
    from phototopics.plsa import PlsaModel

    try:
        PlsaModel.load(model_path).validate()
    except PhototopicsError as exc:
        return f"validate(): {exc}"
    return None


class OutputChecks:
    """Checks one workload's saved outputs against its generated inputs.

    ``check(key, directory)`` takes an operation's key (the workload's
    name for train, the album file, the model file) and the directory
    holding that operation's saved output files.
    """

    def __init__(self, workload: str, work: Path, meta: dict, src: Path):
        self.workload, self.work, self.meta, self.src = workload, work, meta, src
        self._cache: dict = {}

    def _read(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8")

    def check(self, key: str, directory: Path) -> str | None:
        fn = {"train-20k": self._train, "organize-albums": self._album,
              "describe-topics": self._describe}[self.workload]
        return fn(key, directory)

    def _train(self, key: str, d: Path) -> str | None:
        problem = program_validate(self.src, d / "model.json")
        if problem is not None:
            return problem
        words = (d / "vocab.txt").read_text(encoding="utf-8").split("\n")
        index = {w: i for i, w in enumerate(w for w in words if w)}
        with open(self.work / "records.jsonl", encoding="utf-8") as f:
            docs = [binary_vector(read_tags(line), index)
                    for line in f if line.strip()]
        model = json.loads((d / "model.json").read_text(encoding="utf-8"))
        return check_trained_model(model, docs, np.asarray(self.meta["labels"]))

    def _album(self, key: str, d: Path) -> str | None:
        if "phi" not in self._cache:
            self._cache["phi"] = np.asarray(
                json.loads(self._read("model.json"))["word_given_topic"])
            self._cache["index"] = {w: i for i, w in
                                    enumerate(self._read("vocab.txt").split())}
            self._cache["order"] = {a["file"]: i for i, a in
                                    enumerate(self.meta["albums"])}
        lines = [ln for ln in self._read(f"albums/{key}").split("\n") if ln]
        rng = np.random.default_rng(self._cache["order"][key])
        sample = sorted(set(rng.integers(0, len(lines),
                                         size=ALBUM_SAMPLE).tolist()))
        return check_manifest((d / "manifest.json").read_bytes(), lines,
                              self._cache["phi"], self._cache["index"], sample)

    def _describe(self, key: str, d: Path) -> str | None:
        m = next(m for m in self.meta["models"] if m["file"] == key)
        planted = [self.meta["names"][b] for b in m["topic_blocks"]]
        problem = check_names(
            json.loads((d / "names.json").read_text(encoding="utf-8")), planted)
        if problem is not None:
            return f"{key}: {problem}"
        if "docs" not in self._cache:
            self._cache["docs"] = [set(line.lower().split()) for line in
                                   self._read("ref_corpus.txt").split("\n")
                                   if line.strip()]
            self._cache["words"] = self._read("vocab.txt").split()
        phi = np.asarray(json.loads(self._read(key))["word_given_topic"])
        rng = np.random.default_rng(m["k"])
        sample = sorted(rng.choice(m["k"], size=min(4, m["k"]),
                                   replace=False).tolist())
        result = json.loads((d / "coherence.json").read_text(encoding="utf-8"))
        problem = check_coherence(result, phi, self._cache["words"],
                                  self._cache["docs"], sample,
                                  COHERENCE_TOP_N, COHERENCE_EPSILON)
        return None if problem is None else f"{key}: {problem}"
