"""Property tests for the invariants the pipeline relies on."""

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phototopics.coherence import (
    avg_npmi,
    build_corpus_stats,
    uci_score,
    umass_score,
)
from phototopics.corpus import TagRecord, Vocabulary
from phototopics.naming import TopicNaming
from phototopics.pipeline import emit_manifest, organize_collection
from phototopics.plsa import PlsaModel, em_step, init_model

from conftest import make_corpus

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
VOCAB = Vocabulary(WORDS, 5, 2)
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
    records = [TagRecord(f"img{i:02d}", coll, tuple(t))
               for i, (coll, t) in enumerate(docs)]
    shuffled = data.draw(st.permutations(records))

    def manifest(recs):
        sink = io.BytesIO()
        emit_manifest(organize_collection(recs, MODEL, VOCAB, names=names,
                                          threshold=threshold,
                                          weighting=weighting), sink)
        return sink.getvalue()

    assert manifest(shuffled) == manifest(records)


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
