"""Property tests for the invariants the pipeline relies on."""

import io
import json
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phototopics import coherence
from phototopics.coherence import (
    avg_npmi,
    build_corpus_stats,
    uci_score,
    umass_score,
)
from phototopics.corpus import CooccurrenceMatrix, Vocabulary
from phototopics.exceptions import ValidationError
from phototopics.naming import TopicNaming
from phototopics.pipeline import (
    MANIFEST_FORMAT_VERSION,
    OrganizedCollection,
    _build_index,
    emit_manifest,
    fold_in_records,
    organize_collection,
)
from phototopics.plsa import PlsaModel, em_step, fold_in, init_model

from conftest import make_corpus, tag_table

FAST = settings(derandomize=True, deadline=None, database=None, max_examples=60)

counts = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(1, 8)),
    elements=st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5]),
)


@pytest.mark.filterwarnings("ignore:topic .* lost all mass")  # all-zero counts
@FAST
@given(dense=counts, n_topics=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_em_log_likelihood_never_decreases(dense, n_topics, seed):
    X = make_corpus(dense)
    model = init_model(n_topics, X.n_words, seed, n_docs=X.n_docs)
    prev = None
    for _ in range(12):
        model, ll = em_step(model, X, smoothing=0.0)
        if prev is not None:
            assert ll >= prev - 1e-9 * abs(prev)
        prev = ll


WORDS = ("beach", "cat", "dog", "pizza", "soup", "tree")
VOCAB = Vocabulary(WORDS)
MODEL = PlsaModel(
    np.array([[0.40, 0.02, 0.02, 0.02, 0.04, 0.50],
              [0.02, 0.45, 0.45, 0.02, 0.02, 0.04],
              [0.05, 0.02, 0.03, 0.50, 0.38, 0.02]]),
    np.zeros((0, 3)), np.full(3, 1 / 3), seed=0, vocab_hash=VOCAB.digest())
NAMES = [TopicNaming(k, name, (1.0,), False)
         for k, name in enumerate(("Nature", "Pets", "Food"))]

tags = st.lists(
    st.tuples(st.sampled_from(WORDS + ("unknown",)),
              st.sampled_from([0.3, 0.7, 1.0])),
    max_size=5, unique_by=lambda t: t[0])


@FAST
@given(docs=st.lists(st.tuples(st.sampled_from(["u1", "u2"]), tags),
                     max_size=12),
       data=st.data(),
       names=st.sampled_from([None, NAMES]),
       threshold=st.sampled_from([0.0, 0.5, 0.9]),
       weighting=st.sampled_from(["binary", "confidence"]))
def test_manifest_independent_of_record_order(docs, data, names, threshold,
                                              weighting):
    records = [(f"img{i:02d}", coll, t) for i, (coll, t) in enumerate(docs)]
    shuffled = data.draw(st.permutations(records))

    def manifest(recs):
        sink = io.BytesIO()
        emit_manifest(organize_collection(tag_table(recs), MODEL, VOCAB, names=names,
                                          threshold=threshold,
                                          weighting=weighting), sink)
        return sink.getvalue()

    assert manifest(shuffled) == manifest(records)


def json_dumps_manifest(collection):
    """The manifest as ``json.dumps(payload, sort_keys=True)`` writes its
    payload: one line, through json's C encoder."""
    payload = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "collection_id": collection.collection_id,
        "model_hash": collection.model_hash,
        "coverage": collection.coverage,
        "images": [
            {
                "image_id": image_id,
                "topic": topic,
                "mixture": mixture,
                **({"category": category[0], "category_score": category[1]}
                   if category is not None else {}),
            }
            for image_id, topic, mixture, category in zip(
                collection.image_ids, collection.topics,
                collection.mixtures.tolist(),
                collection.categories or [None] * len(collection.image_ids))
        ],
        "index": collection.index,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


# quotes, backslashes, control characters and non-ASCII text
texts = st.one_of(
    st.text(alphabet='a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600 ',
            max_size=6),
    st.text(max_size=6))


@st.composite
def collections(draw):
    """Images with and without a category, or without category scores at
    all, Null images, several buckets per topic, non-finite numbers; the
    index is built as ``organize`` builds it."""
    topic_names = draw(st.lists(texts, min_size=1, max_size=3)) + ["Null"]
    image_ids = sorted(draw(st.lists(texts.filter(bool), max_size=8, unique=True)))
    topics = [draw(st.sampled_from(topic_names)) for _ in image_ids]
    mixtures = draw(hnp.arrays(np.float64, (len(image_ids), draw(st.integers(1, 4))),
                               elements=st.floats()))
    categories = None
    if draw(st.booleans()):
        categories = [
            (draw(st.sampled_from(["", "beach", "a\"b"]) | texts), draw(st.floats()))
            if draw(st.booleans()) else None
            for _ in image_ids]
    return OrganizedCollection(draw(texts), draw(texts), image_ids, topics,
                               mixtures, draw(st.floats()),
                               _build_index(image_ids, topics, categories),
                               categories)


@FAST
@given(collection=collections())
def test_manifest_bytes_are_json_dumps_bytes(collection):
    sink = io.BytesIO()
    n_bytes = emit_manifest(collection, sink)
    assert sink.getvalue() == json_dumps_manifest(collection)
    assert n_bytes == len(sink.getvalue())


@st.composite
def fold_in_cases(draw):
    """A random model and a matrix of unseen documents for it; some
    documents are empty and some weights are 0."""
    n_topics, n_words = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    model = init_model(n_topics, n_words, draw(st.integers(0, 2**16)))
    docs = draw(st.lists(st.dictionaries(st.integers(0, n_words - 1),
                                         st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                         max_size=8))
    X = CooccurrenceMatrix(n_words, len(docs),
                           [w for doc in docs for w in doc],
                           [j for j, doc in enumerate(docs) for _ in doc],
                           [x for doc in docs for x in doc.values()])
    return model, X


@FAST
@given(case=fold_in_cases())
def test_fold_in_mixtures_are_distributions(case):
    model, X = case
    theta = fold_in(model, X)
    assert theta.shape == (X.n_docs, model.n_topics)
    assert np.all(theta >= 0)
    np.testing.assert_allclose(theta.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@FAST
@given(case=fold_in_cases(), data=st.data())
def test_fold_in_independent_of_entry_order(case, data):
    model, X = case
    perm = np.array(data.draw(st.permutations(range(X.nnz))), dtype=np.int64)
    shuffled = CooccurrenceMatrix(X.n_words, X.n_docs, X.rows[perm],
                                  X.cols[perm], X.vals[perm])
    assert np.array_equal(fold_in(model, shuffled), fold_in(model, X))


@FAST
@given(case=fold_in_cases(), data=st.data())
def test_fold_in_equivariant_under_topic_permutation(case, data):
    model, X = case
    perm = data.draw(st.permutations(range(model.n_topics)))
    relabeled = PlsaModel(model.word_given_topic[perm], model.doc_mixtures,
                          model.topic_prior[perm], seed=model.seed)
    np.testing.assert_allclose(fold_in(relabeled, X),
                               fold_in(model, X)[:, perm],
                               rtol=0, atol=1e-9)


@FAST
@given(docs=st.lists(tags, max_size=12), data=st.data(),
       weighting=st.sampled_from(["binary", "confidence"]))
def test_fold_in_independent_of_record_order(docs, data, weighting):
    """Each record gets the same mixture, bit for bit, wherever it stands."""
    records = [(f"img{i:02d}", "u", t) for i, t in enumerate(docs)]
    shuffled = data.draw(st.permutations(records))
    by_id = dict(zip([r[0] for r in records],
                     fold_in_records(tag_table(records), MODEL, VOCAB, weighting)))
    for rec, row in zip(shuffled, fold_in_records(tag_table(shuffled), MODEL,
                                                  VOCAB, weighting)):
        assert np.array_equal(row, by_id[rec[0]])


ALPHABET = [f"w{i}" for i in range(8)]
documents = st.lists(
    st.lists(st.sampled_from(ALPHABET + ["Noise"]), min_size=1, max_size=6)
    .map(" ".join),
    min_size=1, max_size=10)


@FAST
@given(docs=documents,
       words=st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=5,
                      unique=True),
       extra=st.sets(st.sampled_from(ALPHABET + ["noise", "other"])))
def test_coherence_independent_of_extra_counted_words(docs, words, extra):
    scored = build_corpus_stats(docs, vocab_filter=set(words))
    superset = build_corpus_stats(docs, vocab_filter=set(words) | extra)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # absent words
        for score in (uci_score, umass_score, avg_npmi):
            assert score(words, superset) == score(words, scored)


TOKENS = ["w0", "W0", "w1", "w2", "W2", "w3", "noise"]
lines = st.lists(
    st.just("") | st.lists(st.sampled_from(TOKENS), max_size=6).flatmap(
        lambda toks: st.lists(st.sampled_from([" ", "  ", "\t", " \t "]),
                              min_size=len(toks) + 1, max_size=len(toks) + 1)
        .map(lambda seps: seps[0] + "".join(t + s for t, s in
                                            zip(toks, seps[1:])))),
    min_size=1, max_size=12)


def recount(stream, vocab_filter):
    """Document and pair frequencies by brute-force set recount."""
    docs = [set(line.lower().split()) for line in stream if line.split()]
    df = {w: n for w in vocab_filter if (n := sum(w in d for d in docs))}
    joint = {(a, b): n for a, b in combinations(sorted(vocab_filter), 2)
             if (n := sum(a in d and b in d for d in docs))}
    return len(docs), df, joint


@pytest.mark.parametrize("chunk_docs", [1, 2, 3, None])
@FAST
@given(stream=lines,
       vocab_filter=st.sets(st.sampled_from(TOKENS + ["Never", "absent"])))
def test_corpus_stats_match_set_recount(chunk_docs, stream, vocab_filter):
    """Blank and whitespace-only lines, tabs, repeats, mixed case, filter
    words that never occur and an empty filter all count as a recount does,
    wherever a chunk boundary falls."""
    n_docs, df, joint = recount(stream, vocab_filter)
    with pytest.MonkeyPatch.context() as mp:
        if chunk_docs is not None:
            mp.setattr(coherence, "_CHUNK_DOCS", chunk_docs)
        if n_docs == 0:
            with pytest.raises(ValidationError, match="empty"):
                build_corpus_stats(stream, vocab_filter)
            return
        stats = build_corpus_stats(stream, vocab_filter)
    assert stats.n_docs == n_docs
    assert stats.df == df
    assert stats.joint_df == joint
    assert all(type(n) is int for n in [*stats.df.values(),
                                        *stats.joint_df.values()])
