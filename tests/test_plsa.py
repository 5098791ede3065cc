import json

import numpy as np
import pytest

from phototopics import _kernels
from phototopics.corpus import Vocabulary
from phototopics.exceptions import ValidationError
from phototopics.plsa import (
    DEFAULT_SMOOTHING,
    PlsaModel,
    TrainConfig,
    assign_topic,
    assign_topics,
    em_step,
    fold_in,
    init_model,
    log_likelihood,
    top_words,
    train,
)

from conftest import (
    column,
    dense,
    fold_in_one,
    make_corpus,
    planted_corpus,
    random_corpus,
    reference_em_stats,
)


def best_permutation_accuracy(assigned, labels, n_topics):
    """Brute-force label-permutation matching."""
    from itertools import permutations

    best = 0
    for perm in permutations(range(n_topics)):
        hits = sum(1 for a, l in zip(assigned, labels) if perm[a] == l)
        best = max(best, hits)
    return best / len(labels)


class TestInitModel:
    def test_single_topic_row_sums_to_one(self):
        model = init_model(1, 3, seed=0)
        assert model.word_given_topic.shape == (1, 3)
        assert model.word_given_topic.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        a = init_model(4, 7, seed=3)
        b = init_model(4, 7, seed=3)
        assert np.array_equal(a.word_given_topic, b.word_given_topic)

    def test_different_seeds_differ(self):
        a = init_model(2, 2, seed=7)
        b = init_model(2, 2, seed=8)
        assert not np.array_equal(a.word_given_topic, b.word_given_topic)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValidationError):
            init_model(0, 3, seed=0)
        with pytest.raises(ValidationError):
            init_model(3, 0, seed=0)


class TestEmStep:
    def test_k1_closed_form(self):
        X = make_corpus([[2, 1], [0, 3]])
        model = init_model(1, 2, seed=0, n_docs=2)
        new, _ll = em_step(model, X, smoothing=0.0)
        empirical = dense(X).sum(axis=1) / X.vals.sum()
        np.testing.assert_allclose(new.word_given_topic[0], empirical,
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(new.doc_mixtures, 1.0, atol=1e-12)

    def test_topic_without_mass_reset_to_uniform(self):
        """No document gives topic 1 any weight, so without smoothing its
        counts are all 0: its row becomes uniform over the M words, its
        prior 0, and one warning names it."""
        X = make_corpus([[1, 0], [1, 1], [0, 1]])
        model = PlsaModel(np.full((2, 3), 1 / 3), np.array([[1.0, 0.0], [1.0, 0.0]]),
                          np.array([0.5, 0.5]), seed=0)
        with pytest.warns(RuntimeWarning) as caught:
            new, _ll = em_step(model, X, smoothing=0.0)
        assert [str(w.message) for w in caught] == [
            "topic 1 lost all mass; reset to uniform"]
        np.testing.assert_array_equal(
            new.word_given_topic, [[0.25, 0.5, 0.25], [1 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_array_equal(new.topic_prior, [1.0, 0.0])

    @pytest.mark.parametrize("n_topics", [2, 3, 8])
    def test_word_given_topic_is_smoothed_counts_over_row_sums(self, n_topics):
        """For K >= 2 the M-step of P(w|z) gives the bits of dividing each
        smoothed row of the kernel's counts by its numpy sum; 300 words
        take numpy's pairwise sum past one 128-element block."""
        rng = np.random.default_rng(n_topics)
        X = random_corpus(rng, max_docs=40, max_words=300)
        X = make_corpus(np.vstack([dense(X)] * (300 // X.n_words + 1)))
        model = init_model(n_topics, X.n_words, seed=3, n_docs=X.n_docs)
        nwz = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals,
                                           model.word_given_topic,
                                           model.doc_mixtures)[0]
        smoothed = nwz + DEFAULT_SMOOTHING
        new, _ll = em_step(model, X)
        assert np.array_equal(new.word_given_topic,
                              smoothed / smoothed.sum(axis=1, keepdims=True))

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(5)
        X = random_corpus(rng)
        model = init_model(3, X.n_words, seed=1, n_docs=X.n_docs)
        prev = None
        for _ in range(25):
            model, ll = em_step(model, X)
            if prev is not None:
                assert ll >= prev - 1e-9
            prev = ll

    def test_returns_input_model_likelihood(self, monkeypatch):
        """``em_step`` reports the bits of ``log_likelihood`` of the input
        model: on a 2 x 2 corpus, and over many blocks with documents
        without entries first, in the middle and last."""
        X = make_corpus([[1, 0], [0, 1]])
        model = init_model(2, 2, seed=0, n_docs=2)
        expected = log_likelihood(model, X)
        _new, ll = em_step(model, X)
        assert ll == expected

        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 3, size=(25, 40)) * (rng.random((25, 40)) < 0.4)
        counts[:, [0, 20, 39]] = 0
        X = make_corpus(counts)
        for n_topics in (1, 3, 9):
            assert X.nnz > 2 * max(1, 64 // n_topics)  # several blocks
            model = init_model(n_topics, X.n_words, seed=n_topics, n_docs=X.n_docs)
            model, _ll = em_step(model, X)  # mixtures that differ by document
            expected = log_likelihood(model, X)
            _new, ll = em_step(model, X)
            assert ll == expected, n_topics

    def test_disjoint_two_doc_fixed_point(self):
        X = make_corpus([[1, 0], [0, 1]])
        model = train(X, TrainConfig(n_topics=2, seed=0, tol=1e-12,
                                     max_iters=500))
        mix = model.doc_mixtures
        # each document concentrates on one topic, up to permutation
        assert mix.max(axis=1).min() > 1 - 1e-6
        assert mix.argmax(axis=1)[0] != mix.argmax(axis=1)[1]

    def test_normalization_after_step(self):
        rng = np.random.default_rng(11)
        X = random_corpus(rng)
        model = init_model(4, X.n_words, seed=2, n_docs=X.n_docs)
        model, _ = em_step(model, X)
        model.validate()

    def test_dimension_mismatch(self):
        X = make_corpus([[1.0]])
        model = init_model(2, 5, seed=0, n_docs=1)
        with pytest.raises(ValidationError):
            em_step(model, X)

    def test_documents_without_entries_get_uniform_mixtures(self):
        X = make_corpus([[0, 2, 0, 1], [0, 1, 0, 3]])
        model = init_model(3, 2, seed=0, n_docs=4)
        for _ in range(2):
            model, _ll = em_step(model, X)
            for j in (0, 2):
                assert model.doc_mixtures[j].tolist() == [1 / 3] * 3
        model.validate()

    def test_mixtures_stay_topic_major(self):
        """Training keeps the N x K mixtures as the view of one contiguous
        row per topic, from a model loaded C-ordered too, so the E-step
        gathers from them without a copy."""
        rng = np.random.default_rng(12)
        X = random_corpus(rng)
        model = init_model(3, X.n_words, seed=0, n_docs=X.n_docs)
        assert model.doc_mixtures.T.flags.c_contiguous
        for _ in range(2):
            model, _ll = em_step(model, X)
            assert model.doc_mixtures.shape == (X.n_docs, 3)
            assert model.doc_mixtures.T.flags.c_contiguous
        loaded = PlsaModel.from_json(model.to_json())
        assert np.array_equal(loaded.doc_mixtures, model.doc_mixtures)
        new, _ll = em_step(loaded, X)
        assert new.doc_mixtures.T.flags.c_contiguous


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["n_topics", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, 3.0, float("inf"), True, "3", None])
    def test_count_not_an_integer_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer >= 1"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_not_a_count_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            TrainConfig(seed=seed)


class TestTrain:
    def test_identical_documents_get_identical_mixtures(self):
        X = make_corpus([[1, 1, 1], [1, 1, 1]])
        model = train(X, TrainConfig(n_topics=3, seed=4))
        for row in model.doc_mixtures[1:]:
            np.testing.assert_allclose(row, model.doc_mixtures[0], atol=1e-9)

    def test_planted_topics_recovered(self):
        X, labels = planted_corpus()
        model = train(X, TrainConfig(n_topics=3, seed=0))
        assigned = model.doc_mixtures.argmax(axis=1)
        assert best_permutation_accuracy(assigned, labels, 3) >= 0.95

    def test_empty_corpus_rejected(self):
        X = make_corpus(np.zeros((2, 0)))
        with pytest.raises(ValidationError):
            train(X, TrainConfig(n_topics=2))

    def test_records_iterations_and_likelihood(self):
        X = make_corpus([[1, 0], [0, 1]])
        model = train(X, TrainConfig(n_topics=2, seed=0))
        assert model.n_iters >= 1
        assert np.isfinite(model.final_log_likelihood)

    @pytest.mark.parametrize("n_iters", [1, 2, 6])
    def test_matches_per_entry_reference_em(self, n_iters):
        """``train`` for a fixed number of steps equals the per-entry
        E-step loop followed by the M-step formulas."""
        X, _labels = planted_corpus()
        cfg = TrainConfig(n_topics=3, seed=5, max_iters=n_iters, tol=1e-300)
        model = train(X, cfg)
        assert model.n_iters == n_iters

        start = init_model(3, X.n_words, seed=5, n_docs=X.n_docs)
        pwz, pzd = start.word_given_topic, np.array(start.doc_mixtures)
        for _ in range(n_iters):
            nwz, nzd, nz, _ll = reference_em_stats(X.rows, X.cols, X.vals,
                                                   pwz, pzd)
            nwz = nwz + DEFAULT_SMOOTHING
            pwz = nwz / nwz.sum(axis=1, keepdims=True)
            pzd = nzd / nzd.sum(axis=1, keepdims=True)
            prior = nz / nz.sum()
        ll = reference_em_stats(X.rows, X.cols, X.vals, pwz, pzd)[3]
        for got, want in ((model.word_given_topic, pwz),
                          (model.doc_mixtures, pzd),
                          (model.topic_prior, prior)):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
        assert model.final_log_likelihood == pytest.approx(ll, rel=1e-12)

    def test_final_log_likelihood_is_em_step_of_returned_model(self):
        """The stored value is the one a further ``em_step`` of the returned
        model reports, bit for bit: what a reader of ``model.json`` can
        recount."""
        X, _labels = planted_corpus()
        model = train(X, TrainConfig(n_topics=3, seed=2))
        assert model.final_log_likelihood == em_step(model, X)[1]

    def test_vocab_hash_bound(self):
        X = make_corpus([[1, 0], [0, 1]])
        vocab = Vocabulary(("ant", "bee"))
        model = train(X, TrainConfig(n_topics=2), vocab=vocab)
        assert model.vocab_hash == vocab.digest()


class TestFoldIn:
    def test_forced_single_topic(self):
        model = PlsaModel(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.zeros((0, 2)), np.array([0.5, 0.5]), seed=0)
        mixture = fold_in_one(model, [0], [1.0])
        np.testing.assert_allclose(mixture, [1.0, 0.0], atol=1e-12)

    def test_empty_doc_uniform(self):
        model = init_model(4, 3, seed=0)
        np.testing.assert_allclose(fold_in_one(model, [], []), 0.25, atol=1e-12)

    def test_model_bytes_unchanged(self):
        X, _labels = planted_corpus(n_docs=30)
        model = train(X, TrainConfig(n_topics=3, seed=0))
        before = model.to_json()
        fold_in_one(model, [0, 5, 12], [1.0, 1.0, 1.0])
        assert model.to_json() == before

    def test_matches_trained_mixture_on_separable_corpus(self):
        X, _labels = planted_corpus()
        model = train(X, TrainConfig(n_topics=3, seed=0))
        for j in range(0, X.n_docs, 29):
            widx, wval = column(X, j)
            mixture = fold_in_one(model, widx, wval)
            assert np.abs(mixture - model.doc_mixtures[j]).max() < 1e-3

    @pytest.mark.parametrize("widx, wval", [
        ([0, 1], [1.0]),
        ([0], [1.0, 1.0]),
        ([0], [float("nan")]),
        ([0], [float("inf")]),
        ([0, 1], [1.0, -1.0]),
    ], ids=["fewer-values", "more-values", "nan", "inf", "negative"])
    def test_malformed_document_rejected(self, widx, wval):
        model = init_model(2, 3, seed=0)
        with pytest.raises(ValidationError):
            fold_in_one(model, widx, wval)

    def test_out_of_range_word_rejected(self):
        model = init_model(2, 3, seed=0)
        with pytest.raises(ValidationError):
            fold_in_one(model, [3], [1.0])
        with pytest.raises(ValidationError):
            fold_in_one(model, [-1], [1.0])

    def test_matrix_with_values_or_other_width_rejected(self):
        X = random_corpus(np.random.default_rng(3))
        with pytest.raises(ValidationError, match="model expects"):
            fold_in(init_model(3, X.n_words + 1, seed=0), X)


class TestAssignTopic:
    def test_argmax(self):
        assert assign_topic([0.9, 0.1], 0.035) == (0, 0.9)

    def test_uniform_below_threshold_is_null(self):
        topic, max_prob = assign_topic([0.125] * 8, 0.2)
        assert topic is None
        assert max_prob == pytest.approx(0.125)

    def test_tie_breaks_to_lowest_index(self):
        topic, _p = assign_topic([0.4, 0.4, 0.2], 0.035)
        assert topic == 0

    def test_unnormalized_mixture_rejected(self):
        with pytest.raises(ValidationError):
            assign_topic([0.5, 0.6], 0.035)


class TestAssignTopics:
    MIXTURES = np.array([
        [0.4, 0.4, 0.2],        # tie: lowest index
        [0.2, 0.4, 0.4],        # tie after a smaller entry
        [0.5, 0.25, 0.25],      # max equals the 0.5 threshold
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ])

    @pytest.mark.parametrize("threshold", [0.0, 0.035, 0.4, 0.5, 0.6, 1.0])
    def test_agrees_with_assign_topic_row_by_row(self, threshold):
        rng = np.random.default_rng(5)
        rand = rng.random((20, 3))
        mixtures = np.vstack([self.MIXTURES, rand / rand.sum(axis=1, keepdims=True)])
        topics, max_probs = assign_topics(mixtures, threshold)
        assert topics.shape == max_probs.shape == (len(mixtures),)
        for row, topic, max_prob in zip(mixtures, topics, max_probs):
            want_topic, want_prob = assign_topic(row, threshold)
            assert (None if topic == -1 else topic) == want_topic
            assert max_prob == want_prob
        assert topics[:2].tolist() in ([0, 1], [-1, -1])  # ties
        assert (topics[2] == -1) == (threshold > 0.5)  # max == threshold

    def test_row_sum_off_raises_assign_topic_message(self):
        mixtures = np.array([[0.5, 0.5], [0.5, 0.6], [0.1, 0.1]])
        with pytest.raises(ValidationError) as single:
            assign_topic(mixtures[1], 0.035)
        with pytest.raises(ValidationError) as batch:
            assign_topics(mixtures, 0.035)
        assert str(batch.value) == str(single.value) == \
            "mixture sums to 1.1, expected 1"

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_out_of_range(self, threshold):
        with pytest.raises(ValidationError,
                           match=r"^threshold must be a finite number in \[0, 1\]"):
            assign_topics(self.MIXTURES, threshold)

    def test_no_rows(self):
        topics, max_probs = assign_topics(np.zeros((0, 4)), 0.035)
        assert topics.shape == max_probs.shape == (0,)


class TestTopWords:
    def _model(self, probs):
        probs = np.asarray(probs, dtype=float)[None, :]
        return PlsaModel(probs, np.zeros((0, 1)), np.array([1.0]), seed=0)

    def test_sorted_descending(self):
        vocab = Vocabulary(("x", "y", "z"))
        model = self._model([0.5, 0.3, 0.2])
        assert top_words(model, vocab, 0, 2) == [("x", 0.5), ("y", 0.3)]

    def test_lexicographic_tie_break(self):
        vocab = Vocabulary(("c", "a", "b"))
        model = self._model([1 / 3, 1 / 3, 1 / 3])
        words = [w for w, _p in top_words(model, vocab, 0, 2)]
        assert words == ["a", "b"]

    def test_reordered_vocabulary_rejected_when_model_has_hash(self):
        vocab = Vocabulary(("x", "y", "z"))
        reordered = Vocabulary(("z", "y", "x"))
        model = self._model([0.5, 0.3, 0.2])
        # a model without a vocabulary hash is only checked by size
        assert top_words(model, reordered, 0, 1) == [("z", 0.5)]
        model.vocab_hash = vocab.digest()
        assert top_words(model, vocab, 0, 1) == [("x", 0.5)]
        with pytest.raises(ValidationError, match="different vocabulary"):
            top_words(model, reordered, 0, 1)

    def test_ties_break_as_str_comparison(self):
        # "a" < "a\x00" as str; numpy unicode arrays drop the trailing NUL
        vocab = Vocabulary(("b", "a\x00", "a", "A"))
        model = self._model([0.25] * 4)
        assert [w for w, _p in top_words(model, vocab, 0, 4)] == \
            ["A", "a", "a\x00", "b"]

    def test_matches_sorted_reference(self):
        rng = np.random.default_rng(2)
        words = tuple(rng.permutation([f"w{i}" for i in range(60)]).tolist())
        vocab = Vocabulary(words)
        probs = rng.integers(1, 5, size=60).astype(float)  # many ties
        model = self._model(probs / probs.sum())
        p = model.word_given_topic[0]
        order = sorted(range(60), key=lambda i: (-p[i], words[i]))
        assert top_words(model, vocab, 0, 25) == \
            [(words[i], float(p[i])) for i in order[:25]]

    @pytest.mark.parametrize("n_top", [2.5, 1.0, True, "2", None])
    def test_n_top_not_an_integer_rejected(self, n_top):
        vocab = Vocabulary(("x", "y", "z"))
        model = self._model([0.5, 0.3, 0.2])
        with pytest.raises(ValidationError, match="^n_top must be an integer >= 1"):
            top_words(model, vocab, 0, n_top)

    def test_truncates_when_q_exceeds_vocab(self):
        vocab = Vocabulary(("a", "b"))
        model = self._model([0.6, 0.4])
        assert len(top_words(model, vocab, 0, 10)) == 2


class TestLogLikelihood:
    def test_certain_word_gives_zero(self):
        model = PlsaModel(np.array([[1.0]]), np.array([[1.0]]),
                          np.array([1.0]), seed=0)
        X = make_corpus([[1.0]])
        assert log_likelihood(model, X) == pytest.approx(0.0, abs=1e-15)

    def test_two_word_hand_value(self):
        model = PlsaModel(np.array([[0.5, 0.5]]), np.array([[1.0]]),
                          np.array([1.0]), seed=0)
        X = make_corpus([[1.0], [1.0]])
        assert log_likelihood(model, X) == pytest.approx(2 * np.log(0.5), abs=1e-12)

    def test_empty_matrix_is_zero(self):
        model = PlsaModel(np.array([[0.5, 0.5]]), np.zeros((0, 1)),
                          np.array([1.0]), seed=0)
        X = make_corpus(np.zeros((2, 0)))
        assert log_likelihood(model, X) == 0.0

    def test_equals_em_step_likelihood(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            X = random_corpus(rng)
            model = init_model(int(rng.integers(1, 5)), X.n_words,
                               seed=int(rng.integers(100)), n_docs=X.n_docs)
            for _ in range(3):
                new, ll = em_step(model, X)
                assert log_likelihood(model, X) == ll
                model = new


class TestPermutationEquivariance:
    def test_relabeled_model_permutes_assignments(self):
        X, _labels = planted_corpus(n_docs=60)
        model = train(X, TrainConfig(n_topics=3, seed=0))
        perm = [2, 0, 1]
        permuted = PlsaModel(model.word_given_topic[perm],
                             model.doc_mixtures[:, perm],
                             model.topic_prior[perm], seed=model.seed)
        for j in range(0, X.n_docs, 13):
            widx, wval = column(X, j)
            m1 = fold_in_one(model, widx, wval)
            m2 = fold_in_one(permuted, widx, wval)
            np.testing.assert_allclose(m2, m1[perm], atol=1e-12)


class TestPlsaModelShape:
    PWZ = np.full((2, 3), 1 / 3)
    NOT_K_BY_M = "^word_given_topic must be a non-empty K x M matrix$"
    NOT_K_WIDE = "^doc_mixtures must be N x 2 and topic_prior of length 2$"

    @pytest.mark.parametrize("pwz, mixtures, prior, match", [
        (np.full(3, 1 / 3), np.zeros((0, 1)), [1.0], NOT_K_BY_M),
        (np.zeros((2, 0)), np.zeros((0, 2)), [0.5, 0.5], NOT_K_BY_M),
        (np.zeros((0, 3)), np.zeros((0, 0)), [], NOT_K_BY_M),
        (np.full((1, 2, 3), 1 / 6), np.zeros((0, 1)), [1.0], NOT_K_BY_M),
        (PWZ, np.zeros((0, 2)), [0.4, 0.3, 0.3], NOT_K_WIDE),
        (PWZ, np.full((1, 3), 1 / 3), [0.5, 0.5], NOT_K_WIDE),
        (PWZ, np.full(2, 0.5), [0.5, 0.5], NOT_K_WIDE),
        (PWZ, np.zeros((0, 2)), 1.0, NOT_K_WIDE),
    ], ids=["1-D", "no-words", "no-topics", "3-D", "prior-3", "mixtures-3-wide",
            "mixtures-1-D", "prior-scalar"])
    def test_shape_rejected(self, pwz, mixtures, prior, match):
        with pytest.raises(ValidationError, match=match):
            PlsaModel(pwz, mixtures, prior, seed=0)

    @pytest.mark.parametrize("vocab_hash", [5, None, b"abc"])
    def test_vocab_hash_not_a_string_rejected(self, vocab_hash):
        with pytest.raises(ValidationError, match="^vocab_hash must be a string$"):
            PlsaModel(self.PWZ, np.zeros((0, 2)), [0.5, 0.5], seed=0,
                      vocab_hash=vocab_hash)

    def test_no_mixtures_valid(self):
        model = PlsaModel(self.PWZ, np.zeros((0, 2)), [0.5, 0.5], seed=0)
        model.validate()
        assert (model.n_topics, model.n_words) == (2, 3)


class TestModelSerialization:
    def test_roundtrip_bit_exact(self):
        X, _labels = planted_corpus(n_docs=20)
        model = train(X, TrainConfig(n_topics=3, seed=0))
        again = PlsaModel.from_json(model.to_json())
        assert np.array_equal(again.word_given_topic, model.word_given_topic)
        assert np.array_equal(again.doc_mixtures, model.doc_mixtures)
        assert np.array_equal(again.topic_prior, model.topic_prior)
        assert again.to_json() == model.to_json()

    def test_doc_mixtures_optional(self):
        model = init_model(2, 3, seed=0, n_docs=4)
        payload = json.loads(model.to_json())
        del payload["doc_mixtures"]
        again = PlsaModel.from_json(json.dumps(payload))
        assert again.doc_mixtures.shape == (0, 2)

    def test_save_load_file(self, tmp_path):
        model = init_model(2, 3, seed=9)
        path = tmp_path / "model.json"
        model.save(path)
        assert PlsaModel.load(path).to_json() == model.to_json()

    def test_non_finite_likelihood_written_as_null(self):
        def reject(name):
            raise ValueError(f"bare {name} is not JSON")

        model = init_model(2, 3, seed=0)
        for ll in (float("nan"), float("inf"), float("-inf")):
            model.final_log_likelihood = ll
            text = model.to_json()
            assert json.loads(text, parse_constant=reject)[
                "final_log_likelihood"] is None
            assert np.isnan(PlsaModel.from_json(text).final_log_likelihood)

    @pytest.mark.parametrize("change, match", [
        ({"format_version": 99}, "format_version"),
        ({"format_version": None}, "format_version"),
        ({"word_given_topic": [[1.5, -0.5, 0.0], [0.2, 0.3, 0.5]]},
         "negative"),
        ({"word_given_topic": [[0.5, 0.5, 0.5], [0.2, 0.3, 0.5]]},
         "sum to 1"),
        ({"topic_prior": [0.5, 0.6]}, "sum to 1"),
        ({"topic_prior": [1.0]}, "topic_prior"),
        ({"doc_mixtures": [[0.5, 0.5, 0.0]]}, "doc_mixtures"),
        ({"doc_mixtures": [[0.5, 0.5], [0.9, 0.9]]}, "sum to 1"),
        ({"word_given_topic": [[]]}, "K x M"),
        ({"word_given_topic": [[float("nan"), 0.5, 0.5], [0.2, 0.3, 0.5]]},
         "non-finite"),
        ({"n_iters": "x"}, "n_iters"),
        ({"n_iters": -1}, "n_iters"),
        ({"n_iters": False}, "n_iters"),
        ({"n_topics": "two"}, "n_topics"),
        ({"n_topics": 3}, "n_topics"),
        ({"n_words": 2}, "n_words"),
        ({"n_words": 3.0}, "n_words"),
        ({"seed": -3}, "seed"),
        ({"seed": 1.7}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "abc"}, "seed"),
        ({"final_log_likelihood": "1.5"}, "final_log_likelihood"),
        ({"final_log_likelihood": True}, "final_log_likelihood"),
        ({"final_log_likelihood": [1.5]}, "final_log_likelihood"),
        ({"final_log_likelihood": -10 ** 400}, "final_log_likelihood must be a finite number"),
        ({"topic_prior": [10 ** 400, 0]}, "too large"),
        ({"topic_prior": ["0.5", "0.5"]}, "malformed model: topic_prior"),
        ({"word_given_topic": [[True, False, False], [False, True, False]]},
         "malformed model: word_given_topic"),
        ({"doc_mixtures": [[True, False]]}, "malformed model: doc_mixtures"),
        ({"doc_mixtures": [["0.5", "0.5"]]}, "malformed model: doc_mixtures"),
    ])
    def test_invalid_model_rejected_at_load(self, change, match):
        payload = json.loads(init_model(2, 3, seed=0, n_docs=1).to_json())
        payload.update(change)
        with pytest.raises(ValidationError, match=match):
            PlsaModel.from_json(json.dumps(payload))

    def test_integer_likelihood_loads_as_float(self):
        payload = json.loads(init_model(2, 3, seed=0).to_json())
        payload["final_log_likelihood"] = -5
        value = PlsaModel.from_json(json.dumps(payload)).final_log_likelihood
        assert value == -5.0 and type(value) is float
