"""Every integer argument of the library is checked by ``corpus.check_count``:
a Python or numpy integer at least a minimum is taken as an ``int``, and
anything else raises ``ValidationError`` naming the argument and its minimum."""

import json

import numpy as np
import pytest

from phototopics.coherence import CorpusStats
from phototopics.corpus import CooccurrenceMatrix, Vocabulary, build_vocabulary, check_count
from phototopics.exceptions import ValidationError
from phototopics.plsa import PlsaModel, init_model, top_words, train

from conftest import make_corpus, tag_table

VOCAB = Vocabulary(("x", "y", "z"))
MODEL = init_model(2, 3, seed=0)
RECORDS = tag_table([("a", "u", [("x", 0.5)])])
_PARAMETERS = (MODEL.word_given_topic, MODEL.doc_mixtures, MODEL.topic_prior)
X = make_corpus([[1, 0, 2], [0, 1, 1], [3, 1, 0]])

# argument -> (its minimum, a call with the value in its place)
BOUNDARIES = {
    "top_words.topic": (0, lambda v: top_words(MODEL, VOCAB, v)),
    "init_model.n_topics": (1, lambda v: init_model(v, 3, seed=0)),
    "init_model.n_words": (1, lambda v: init_model(2, v, seed=0)),
    "init_model.seed": (0, lambda v: init_model(2, 3, seed=v)),
    "init_model.n_docs": (0, lambda v: init_model(2, 3, seed=0, n_docs=v)),
    "CooccurrenceMatrix.n_words": (0, lambda v: CooccurrenceMatrix(v, 1, [], [], [])),
    "CooccurrenceMatrix.n_docs": (0, lambda v: CooccurrenceMatrix(2, v, [], [], [])),
    "PlsaModel.seed": (0, lambda v: PlsaModel(*_PARAMETERS, seed=v)),
    "PlsaModel.n_iters": (0, lambda v: PlsaModel(*_PARAMETERS, seed=0, n_iters=v)),
    "build_vocabulary.min_count":
        (1, lambda v: build_vocabulary(RECORDS, min_count=v)),
    "build_vocabulary.min_collections":
        (1, lambda v: build_vocabulary(RECORDS, min_collections=v)),
    "CorpusStats.n_docs": (1, lambda v: CorpusStats(v, {"a": 1}, {})),
}
NOT_COUNTS = [2.5, 3.0, True, "3", None]


def _values(minimum):
    return [*NOT_COUNTS, minimum - 1]


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("which", range(len(NOT_COUNTS) + 1))
def test_not_a_count_rejected(boundary, which):
    minimum, call = BOUNDARIES[boundary]
    value = _values(minimum)[which]
    name = boundary.split(".")[1]
    with pytest.raises(ValidationError,
                       match=f"^{name} must be an integer >= {minimum}; got "):
        call(value)


def test_integer_too_long_to_print_rejected():
    with pytest.raises(ValidationError, match="^n must be an integer >= 0; "
                                              "got a negative integer of 16610 bits$"):
        check_count(-10**5000, "n")


@pytest.mark.parametrize("name", ["n_topics", "n_words"])
@pytest.mark.parametrize("which", range(len(NOT_COUNTS) + 1))
def test_model_size_not_a_count_rejected_at_load(name, which):
    payload = json.loads(MODEL.to_json())
    payload[name] = _values(1)[which]
    with pytest.raises(ValidationError, match=f"^malformed model: {name} must be "
                                              "an integer >= 1; got "):
        PlsaModel.from_json(json.dumps(payload))


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("make, field", [
    (lambda v: train(X, n_topics=v), "n_topics"),
    (lambda v: train(X, n_topics=2, max_iters=v, tol=1e-300), "n_iters"),
    (lambda v: train(X, n_topics=2, seed=v), "seed"),
    (lambda v: init_model(2, 3, seed=v), "seed"),
    (lambda v: PlsaModel(*_PARAMETERS, seed=0, n_iters=v), "n_iters"),
], ids=["n_topics", "max_iters", "seed", "init_model-seed", "model-n_iters"])
def test_numpy_integer_held_as_int(make, field, numpy_int):
    value = getattr(make(numpy_int(3)), field)
    assert type(value) is int and value == 3


def test_numpy_integers_accepted_by_top_words():
    assert top_words(MODEL, VOCAB, np.int64(1), np.uint8(2)) == \
        top_words(MODEL, VOCAB, 1, 2)


@pytest.mark.parametrize("rows, cols", [
    ([0.5], [0]), ([0], [0.0]), ([True], [0]), ([1], [False]),
    (np.array([1.0]), np.array([0])), (["1"], [0]),
])
def test_matrix_index_not_an_integer_rejected(rows, cols):
    with pytest.raises(ValidationError, match="indices must be integers"):
        CooccurrenceMatrix(2, 1, rows, cols, [1.0])
    X = CooccurrenceMatrix(2, 1, [], [], [])  # an empty list stays valid
    assert X.rows.dtype == X.cols.dtype == np.int64 and X.nnz == 0
