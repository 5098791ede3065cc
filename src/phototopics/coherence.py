"""Topic coherence scores against a reference corpus.

Document frequencies come from a one-document-per-line token stream.
Probabilities are document ratios: P(w) = df(w)/D and
P(w_i, w_j) = joint_df(w_i, w_j)/D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .corpus import check_count
from .exceptions import ValidationError

DEFAULT_TOP_N = 10
DEFAULT_EPSILON = 1e-12
# documents per incidence matrix in build_corpus_stats
_CHUNK_DOCS = 1024


@dataclass(frozen=True)
class CoherenceConfig:
    top_n: int = DEFAULT_TOP_N
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        object.__setattr__(self, "top_n", check_count(self.top_n, "top_n", 2))
        # a pair of words both absent from the reference corpus divides by
        # epsilon squared, so the square must be a positive finite number
        if not (self.epsilon > 0 and 0.0 < self.epsilon * self.epsilon < math.inf):
            raise ValidationError(
                f"epsilon must be > 0 with a finite, non-zero square; "
                f"got {self.epsilon!r}")


class CorpusStats:
    """Document and joint document frequencies of a reference corpus."""

    def __init__(self, n_docs: int, df: dict[str, int],
                 joint_df: dict[tuple[str, str], int]):
        if n_docs <= 0:
            raise ValidationError("reference corpus must contain documents")
        self.n_docs = n_docs
        self.df = dict(df)
        self.joint_df = {_pair_key(a, b): c for (a, b), c in joint_df.items()}

    def p_word(self, w: str) -> float:
        return self.df.get(w, 0) / self.n_docs

    def p_joint(self, a: str, b: str) -> float:
        return self.joint_df.get(_pair_key(a, b), 0) / self.n_docs


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def build_corpus_stats(stream, vocab_filter) -> CorpusStats:
    """Single pass over a line-per-document token stream.

    Document and joint frequencies are counted only for the words in
    the set ``vocab_filter`` (the words that get scored); every other
    token is ignored. A word counts once per document regardless of
    repetitions. Every non-blank line is a document, whether or not it
    holds a counted word.

    The stream is read line by line, and the hit sets of at most
    ``_CHUNK_DOCS`` documents are kept at a time. Each chunk becomes one
    document x word 0/1 incidence matrix B, and B.T @ B adds its pair
    counts; B is 0/1, so their diagonal is each word's document count.
    For S scored words the memory held is one float32 chunk of
    ``_CHUNK_DOCS`` x S plus S x S int64 counts: about 0.7 and 0.24 MB at
    S = 174. Every entry of a chunk's product is an integer no larger
    than ``_CHUNK_DOCS``, which float32 holds exactly.
    """
    words = sorted(vocab_filter)
    word_id = {w: i for i, w in enumerate(words)}
    joint = np.zeros((len(words), len(words)), dtype=np.int64)
    n_docs = 0
    chunk: list[set[str]] = []
    for line in stream:
        tokens = line.lower().split()
        if not tokens:
            continue
        n_docs += 1
        chunk.append(vocab_filter.intersection(tokens))
        if len(chunk) == _CHUNK_DOCS:
            _count_chunk(chunk, word_id, joint)
            chunk = []
    _count_chunk(chunk, word_id, joint)
    if n_docs == 0:
        raise ValidationError("reference corpus is empty")
    df = np.diagonal(joint)
    hit = np.flatnonzero(df)
    rows, cols = np.nonzero(np.triu(joint, 1))
    return CorpusStats(
        n_docs=n_docs,
        df={words[i]: n for i, n in zip(hit.tolist(), df[hit].tolist())},
        joint_df={(words[i], words[j]): n for i, j, n in zip(
            rows.tolist(), cols.tolist(), joint[rows, cols].tolist())})


def _count_chunk(chunk: list[set[str]], word_id: dict[str, int], joint: np.ndarray) -> None:
    """Add one chunk's pair counts; a word's pair with itself is its df."""
    lengths = [len(hits) for hits in chunk]
    ids = np.fromiter(map(word_id.__getitem__, chain.from_iterable(chunk)),
                      dtype=np.intp, count=sum(lengths))
    if not ids.size:
        return
    incidence = np.zeros((len(chunk), len(word_id)), dtype=np.float32)
    incidence[np.repeat(np.arange(len(chunk)), lengths), ids] = 1.0
    joint += (incidence.T @ incidence).astype(np.int64)


def uci_score(words: list[str], stats: CorpusStats,
              cfg: CoherenceConfig | None = None) -> float:
    """Mean pairwise PMI: 2/(N(N-1)) sum log((P(wi,wj)+eps)/(P(wi)P(wj)))."""
    cfg = cfg or CoherenceConfig()
    n_pairs = _pair_count(words)
    total = 0.0
    for pmi, _pj in _floored_pmis(words, stats, cfg.epsilon):
        total += pmi
    return total / n_pairs


def umass_score(words: list[str], stats: CorpusStats,
                cfg: CoherenceConfig | None = None) -> float:
    """2/(N(N-1)) sum log((P(wj,wi)+eps)/P(wi)) over the frequency-ordered list.

    The list is re-sorted by descending document frequency (ties broken
    lexicographically) so permuting the input cannot change the score.
    A conditioning word with zero frequency floors its pairs with eps;
    one warning per call counts the floored pairs and names those words.
    """
    cfg = cfg or CoherenceConfig()
    n_pairs = _pair_count(words)
    eps = cfg.epsilon
    ordered = sorted(words, key=lambda w: (-stats.df.get(w, 0), w))
    total = 0.0
    floored: dict[str, int] = {}  # absent conditioning word -> its pairs
    for j in range(1, len(ordered)):
        for i in range(j):
            wi, wj = ordered[i], ordered[j]
            p_i = stats.p_word(wi)
            if p_i <= 0.0:
                floored[str(wi)] = floored.get(str(wi), 0) + 1
                p_i = eps
            total += math.log((stats.p_joint(wj, wi) + eps) / p_i)
    if floored:
        warnings.warn(
            f"{sum(floored.values())} pair(s) floored with epsilon: conditioning "
            f"word(s) {', '.join(map(repr, floored))} absent from reference corpus",
            RuntimeWarning, stacklevel=2)
    return total / n_pairs


def avg_npmi(words: list[str], stats: CorpusStats,
             cfg: CoherenceConfig | None = None) -> float:
    """Mean normalized PMI over unordered pairs, in [-1, 1].

    NPMI = PMI / (-log(P(wi,wj)+eps)); a pair co-occurring in every
    document (denominator 0) contributes exactly 1.
    """
    cfg = cfg or CoherenceConfig()
    n_pairs = _pair_count(words)
    total = 0.0
    for pmi, pj in _floored_pmis(words, stats, cfg.epsilon):
        denom = -math.log(pj + cfg.epsilon)
        total += 1.0 if denom <= 0.0 else pmi / denom
    return total / n_pairs


def _floored_pmis(words, stats: CorpusStats, eps: float):
    """(PMI, P(wi,wj)) of each unordered pair, in ``combinations`` order.

    PMI = log((P(wi,wj)+eps)/(P(wi)P(wj))), where a zero marginal is
    floored to eps.
    """
    for a, b in combinations(words, 2):
        pj = stats.p_joint(a, b)
        pa, pb = stats.p_word(a), stats.p_word(b)
        marg = (pa if pa > 0 else eps) * (pb if pb > 0 else eps)
        yield math.log((pj + eps) / marg), pj


def _pair_count(words) -> int:
    if len(words) < 2:
        raise ValidationError("need at least two words to score coherence")
    return len(words) * (len(words) - 1) // 2
