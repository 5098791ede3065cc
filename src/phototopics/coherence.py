"""Topic coherence scores against a reference corpus.

Document frequencies come from a one-document-per-line token stream.
Probabilities are document ratios: P(w) = df(w)/D and
P(w_i, w_j) = joint_df(w_i, w_j)/D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

from .exceptions import ValidationError

DEFAULT_TOP_N = 10
DEFAULT_EPSILON = 1e-12


@dataclass(frozen=True)
class CoherenceConfig:
    top_n: int = DEFAULT_TOP_N
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.top_n < 2:
            raise ValidationError("top_n must be >= 2")
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
    """
    n_docs = 0
    df: dict[str, int] = {}
    joint: dict[tuple[str, str], int] = {}
    for line in stream:
        tokens = line.lower().split()
        if not tokens:
            continue
        n_docs += 1
        unique = sorted(vocab_filter.intersection(tokens))
        for w in unique:
            df[w] = df.get(w, 0) + 1
        for a, b in combinations(unique, 2):
            key = (a, b)
            joint[key] = joint.get(key, 0) + 1
    if n_docs == 0:
        raise ValidationError("reference corpus is empty")
    return CorpusStats(n_docs=n_docs, df=df, joint_df=joint)


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
    A conditioning word with zero frequency contributes log(eps/eps) = 0
    for its pairs and is flagged with a warning.
    """
    cfg = cfg or CoherenceConfig()
    n_pairs = _pair_count(words)
    eps = cfg.epsilon
    ordered = sorted(words, key=lambda w: (-stats.df.get(w, 0), w))
    total = 0.0
    for j in range(1, len(ordered)):
        for i in range(j):
            wi, wj = ordered[i], ordered[j]
            p_i = stats.p_word(wi)
            if p_i <= 0.0:
                warnings.warn(
                    f"conditioning word {wi!r} absent from reference corpus; "
                    "pair floored with epsilon", RuntimeWarning, stacklevel=2)
                p_i = eps
            total += math.log((stats.p_joint(wj, wi) + eps) / p_i)
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
