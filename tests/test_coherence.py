import argparse
import math
from itertools import combinations

import numpy as np
import pytest

from phototopics.cli import cmd_coherence
from phototopics.coherence import (
    CorpusStats,
    avg_npmi,
    build_corpus_stats,
    uci_score,
    umass_score,
)
from phototopics.exceptions import ValidationError

EPS = 1e-12


def brute_force_scores(docs, words, epsilon=EPS):
    """Independent double-loop oracle recomputing df from the raw documents."""
    doc_sets = [set(d.split()) for d in docs]
    n_docs = len(doc_sets)

    def p(w):
        return sum(1 for s in doc_sets if w in s) / n_docs

    def pj(a, b):
        return sum(1 for s in doc_sets if a in s and b in s) / n_docs

    n = len(words)
    n_pairs = n * (n - 1) / 2

    uci = 0.0
    for a, b in combinations(words, 2):
        pa = p(a) if p(a) > 0 else epsilon
        pb = p(b) if p(b) > 0 else epsilon
        uci += math.log((pj(a, b) + epsilon) / (pa * pb))
    uci /= n_pairs

    ordered = sorted(words, key=lambda w: (-sum(1 for s in doc_sets if w in s), w))
    umass = 0.0
    for j in range(1, n):
        for i in range(j):
            p_i = p(ordered[i]) if p(ordered[i]) > 0 else epsilon
            umass += math.log((pj(ordered[j], ordered[i]) + epsilon) / p_i)
    umass /= n_pairs

    npmi = 0.0
    for a, b in combinations(words, 2):
        joint = pj(a, b)
        denom = -math.log(joint + epsilon)
        if denom <= 0:
            npmi += 1.0
        else:
            pa = p(a) if p(a) > 0 else epsilon
            pb = p(b) if p(b) > 0 else epsilon
            npmi += math.log((joint + epsilon) / (pa * pb)) / denom
    npmi /= n_pairs

    return uci, umass, npmi


class TestBuildCorpusStats:
    def test_counting(self):
        stats = build_corpus_stats(["a b", "b c"], vocab_filter={"a", "b", "c"})
        assert stats.n_docs == 2
        assert stats.df == {"a": 1, "b": 2, "c": 1}
        assert stats.p_joint("a", "b") == 0.5
        assert stats.p_joint("b", "a") == 0.5

    def test_duplicate_word_counts_once_per_doc(self):
        stats = build_corpus_stats(["a a a b"], vocab_filter={"a", "b"})
        assert stats.df["a"] == 1
        assert stats.p_joint("a", "b") == 1.0

    def test_four_doc_example(self):
        stats = build_corpus_stats(["w1", "w1 w2", "w2", "x"],
                                   vocab_filter={"w1", "w2"})
        assert stats.n_docs == 4
        assert stats.df["w1"] == stats.df["w2"] == 2
        assert stats.p_joint("w1", "w2") == 0.25

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_corpus_stats([], vocab_filter={"a"})

    def test_vocab_filter_bounds_joint_pairs(self):
        stats = build_corpus_stats(["a b c", "c"], vocab_filter={"a", "b"})
        assert stats.n_docs == 2  # a line without a counted word is a document
        assert stats.p_joint("a", "b") == 0.5
        assert stats.p_joint("a", "c") == 0.0
        assert stats.df == {"a": 1, "b": 1}  # "c" is not counted

    def test_lowercased(self):
        stats = build_corpus_stats(["Dog CAT"], vocab_filter={"dog", "cat"})
        assert stats.df == {"dog": 1, "cat": 1}


class TestCoherenceConfig:
    """The scores' keyword-only ``epsilon`` and the ``top_n`` that
    ``phototopics coherence`` checks before it loads anything."""
    STATS = CorpusStats(2, {"a": 1, "b": 1}, {("a", "b"): 1})

    @pytest.mark.parametrize("epsilon", [0.0, -1e-12, 1e-200, 1e200,
                                         float("nan"), float("inf")])
    def test_unusable_epsilon_rejected(self, epsilon):
        for score in (uci_score, umass_score, avg_npmi):
            with pytest.raises(ValidationError, match="epsilon"):
                score(["a", "b"], self.STATS, epsilon=epsilon)

    @pytest.mark.parametrize("top_n", [2.5, 3.0, float("inf"), "3", None])
    def test_top_n_not_an_integer_rejected(self, top_n):
        # no model, vocabulary or reference corpus: the check comes first
        with pytest.raises(ValidationError, match="^top_n must be an integer >= 2"):
            cmd_coherence(argparse.Namespace(top_n=top_n))

    def test_smallest_usable_epsilon_scores_absent_pairs(self):
        stats = build_corpus_stats(["a b", "c"], vocab_filter={"x", "y"})
        assert math.isfinite(uci_score(["x", "y"], stats, epsilon=1e-150))
        assert math.isfinite(avg_npmi(["x", "y"], stats, epsilon=1e-150))

    def test_epsilon_is_keyword_only(self):
        for score in (uci_score, umass_score, avg_npmi):
            with pytest.raises(TypeError):
                score(["a", "b"], self.STATS, EPS)


class TestUciScore:
    def test_four_doc_example_is_zero(self):
        stats = build_corpus_stats(["w1", "w1 w2", "w2", "x"],
                                   vocab_filter={"w1", "w2"})
        assert uci_score(["w1", "w2"], stats) == pytest.approx(0.0, abs=1e-9)

    def test_always_cooccurring_near_zero(self):
        stats = build_corpus_stats(["a b", "a b"], vocab_filter={"a", "b"})
        assert uci_score(["a", "b"], stats) == pytest.approx(0.0, abs=1e-9)

    def test_too_few_words_rejected(self):
        stats = build_corpus_stats(["a"], vocab_filter={"a"})
        with pytest.raises(ValidationError):
            uci_score(["a"], stats)


class TestUmassScore:
    def test_always_cooccurring_near_zero(self):
        stats = build_corpus_stats(["a b", "a b"], vocab_filter={"a", "b"})
        assert umass_score(["a", "b"], stats) == pytest.approx(0.0, abs=1e-9)

    def test_four_doc_example(self):
        stats = build_corpus_stats(["w1", "w1 w2", "w2", "x"],
                                   vocab_filter={"w1", "w2"})
        assert umass_score(["w1", "w2"], stats) == pytest.approx(
            math.log(0.5), abs=1e-9)

    def test_absent_conditioning_word_warns(self):
        stats = build_corpus_stats(["a b"], vocab_filter={"yy", "zz"})
        with pytest.warns(RuntimeWarning) as caught:
            # both absent, so the conditioning word has zero frequency
            assert umass_score(["yy", "zz"], stats) == pytest.approx(0.0)
        assert [str(w.message) for w in caught] == [
            "1 pair(s) floored with epsilon: conditioning word(s) 'yy' "
            "absent from reference corpus"]

    def test_one_warning_per_call_names_plain_strings(self):
        stats = build_corpus_stats(["a b", "a"], vocab_filter={"a", "b"})
        words = [np.str_(w) for w in ("t7", "a", "t5", "b", "t6")]
        with pytest.warns(RuntimeWarning) as caught:
            umass_score(words, stats)
        # ordered a, b, t5, t6, t7: t5 conditions t6 and t7, t6 conditions t7
        assert [str(w.message) for w in caught] == [
            "3 pair(s) floored with epsilon: conditioning word(s) 't5', 't6' "
            "absent from reference corpus"]


class TestAvgNpmi:
    def test_independent_words_near_zero(self):
        # joint 0.25 = 0.5 * 0.5
        stats = build_corpus_stats(["a b", "a", "b", "x"], vocab_filter={"a", "b"})
        assert avg_npmi(["a", "b"], stats) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_rare_pair_tends_to_one(self):
        stats = build_corpus_stats(["a b", "x", "y", "z"], vocab_filter={"a", "b"})
        assert avg_npmi(["a", "b"], stats) == pytest.approx(1.0, abs=1e-9)

    def test_certain_pair_contributes_exactly_one(self):
        stats = build_corpus_stats(["a b"], vocab_filter={"a", "b"})
        assert avg_npmi(["a", "b"], stats) == 1.0

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            docs, words = _random_docs(rng)
            val = avg_npmi(words, build_corpus_stats(docs, vocab_filter=set(words)))
            assert -1.0 - 1e-6 <= val <= 1.0 + 1e-6


def _random_docs(rng, max_docs=10, max_words=8):
    alphabet = [f"t{i}" for i in range(int(rng.integers(2, max_words + 1)))]
    n_docs = int(rng.integers(1, max_docs + 1))
    docs = []
    for _ in range(n_docs):
        members = [w for w in alphabet if rng.random() < 0.5]
        if not members:
            members = [alphabet[int(rng.integers(len(alphabet)))]]
        docs.append(" ".join(members))
    k = int(rng.integers(2, len(alphabet) + 1))
    words = list(rng.choice(alphabet, size=k, replace=False))
    return docs, words


class TestOracleEquivalence:
    @pytest.mark.filterwarnings("ignore:.*floored with epsilon")
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            docs, words = _random_docs(rng)
            stats = build_corpus_stats(docs, vocab_filter=set(words))
            exp_uci, exp_umass, exp_npmi = brute_force_scores(docs, words)
            assert uci_score(words, stats, epsilon=EPS) == pytest.approx(
                exp_uci, abs=1e-12)
            assert umass_score(words, stats, epsilon=EPS) == pytest.approx(
                exp_umass, abs=1e-12)
            assert avg_npmi(words, stats, epsilon=EPS) == pytest.approx(
                exp_npmi, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:.*floored with epsilon")
    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            docs, words = _random_docs(rng)
            stats = build_corpus_stats(docs, vocab_filter=set(words))
            shuffled = list(words)
            rng.shuffle(shuffled)
            for fn in (uci_score, umass_score, avg_npmi):
                assert fn(shuffled, stats) == pytest.approx(
                    fn(words, stats), abs=1e-12)
