import json

import numpy as np
import pytest

from phototopics.corpus import Vocabulary
from phototopics.exceptions import ValidationError
from phototopics.plsa import (
    PlsaModel,
    TrainConfig,
    assign_topic,
    em_step,
    fold_in,
    init_model,
    log_likelihood,
    top_words,
    train,
)

from conftest import make_corpus, planted_corpus, random_corpus


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
        empirical = X.to_dense().sum(axis=1) / X.total
        np.testing.assert_allclose(new.word_given_topic[0], empirical,
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(new.doc_mixtures, 1.0, atol=1e-12)

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

    def test_returns_input_model_likelihood(self):
        X = make_corpus([[1, 0], [0, 1]])
        model = init_model(2, 2, seed=0, n_docs=2)
        expected = log_likelihood(model, X)
        _new, ll = em_step(model, X)
        assert ll == pytest.approx(expected, abs=1e-12)

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
        model.validate(atol=1e-9)

    def test_dimension_mismatch(self):
        X = make_corpus([[1.0]])
        model = init_model(2, 5, seed=0, n_docs=1)
        with pytest.raises(ValidationError):
            em_step(model, X)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["tol", "smoothing"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})


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

    def test_vocab_hash_bound(self):
        X = make_corpus([[1, 0], [0, 1]])
        vocab = Vocabulary(("ant", "bee"), 5, 2)
        model = train(X, TrainConfig(n_topics=2), vocab=vocab)
        assert model.vocab_hash == vocab.digest()


class TestFoldIn:
    def test_forced_single_topic(self):
        model = PlsaModel(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.zeros((0, 2)), np.array([0.5, 0.5]), seed=0)
        mixture = fold_in(model, [0], [1.0])
        np.testing.assert_allclose(mixture, [1.0, 0.0], atol=1e-12)

    def test_empty_doc_uniform(self):
        model = init_model(4, 3, seed=0)
        np.testing.assert_allclose(fold_in(model, [], []), 0.25, atol=1e-12)

    def test_model_bytes_unchanged(self):
        X, _labels = planted_corpus(n_docs=30)
        model = train(X, TrainConfig(n_topics=3, seed=0))
        before = model.to_json()
        fold_in(model, [0, 5, 12], [1.0, 1.0, 1.0])
        assert model.to_json() == before

    def test_matches_trained_mixture_on_separable_corpus(self):
        X, _labels = planted_corpus()
        model = train(X, TrainConfig(n_topics=3, seed=0))
        for j in range(0, X.n_docs, 29):
            widx, wval = X.column(j)
            mixture = fold_in(model, widx, wval)
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
            fold_in(model, widx, wval)

    def test_out_of_range_word_rejected(self):
        model = init_model(2, 3, seed=0)
        with pytest.raises(ValidationError):
            fold_in(model, [3], [1.0])
        with pytest.raises(ValidationError):
            fold_in(model, [-1], [1.0])


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


class TestTopWords:
    def _model(self, probs):
        probs = np.asarray(probs, dtype=float)[None, :]
        return PlsaModel(probs, np.zeros((0, 1)), np.array([1.0]), seed=0)

    def test_sorted_descending(self):
        vocab = Vocabulary(("x", "y", "z"), 5, 2)
        model = self._model([0.5, 0.3, 0.2])
        assert top_words(model, vocab, 0, 2) == [("x", 0.5), ("y", 0.3)]

    def test_lexicographic_tie_break(self):
        vocab = Vocabulary(("c", "a", "b"), 5, 2)
        model = self._model([1 / 3, 1 / 3, 1 / 3])
        words = [w for w, _p in top_words(model, vocab, 0, 2)]
        assert words == ["a", "b"]

    def test_reordered_vocabulary_rejected_when_model_has_hash(self):
        vocab = Vocabulary(("x", "y", "z"), 5, 2)
        reordered = Vocabulary(("z", "y", "x"), 5, 2)
        model = self._model([0.5, 0.3, 0.2])
        # a model without a vocabulary hash is only checked by size
        assert top_words(model, reordered, 0, 1) == [("z", 0.5)]
        model.vocab_hash = vocab.digest()
        assert top_words(model, vocab, 0, 1) == [("x", 0.5)]
        with pytest.raises(ValidationError, match="different vocabulary"):
            top_words(model, reordered, 0, 1)

    def test_truncates_when_q_exceeds_vocab(self):
        vocab = Vocabulary(("a", "b"), 5, 2)
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
            widx, wval = X.column(j)
            m1 = fold_in(model, widx, wval)
            m2 = fold_in(permuted, widx, wval)
            np.testing.assert_allclose(m2, m1[perm], atol=1e-12)


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
        text = model.to_json(include_doc_mixtures=False)
        again = PlsaModel.from_json(text)
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
    ])
    def test_invalid_model_rejected_at_load(self, change, match):
        payload = json.loads(init_model(2, 3, seed=0, n_docs=1).to_json())
        payload.update(change)
        with pytest.raises(ValidationError, match=match):
            PlsaModel.from_json(json.dumps(payload))
