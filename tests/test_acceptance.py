"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success (visible with ``pytest -s`` or
``-rA``); a failing criterion fails its test.
"""

import json
import math
import time

import numpy as np
import pytest

import phototopics.coherence as coh
import phototopics.corpus as corpus
import phototopics.naming as naming
import phototopics.plsa as plsa
from phototopics.cli import main
from phototopics.plsa import TrainConfig, em_step, init_model, train
from phototopics.taxonomy import lcs, lin_similarity

from conftest import (
    ANIMAL_WORDS,
    FOOD_WORDS,
    column,
    dense,
    fold_in_one,
    food_animal_setup,
    planted_corpus,
    random_corpus,
    random_dag_graph,
    tag_record_line,
    toy_graph,
)
from test_coherence import brute_force_scores, _random_docs
from test_plsa import best_permutation_accuracy
from test_taxonomy import _exhaustive_lcs


def _report(n, title):
    print(f"criterion {n:2d} ({title}): PASS")


def test_criterion_1_and_2_em_monotonic_and_normalized():
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        X = random_corpus(rng, max_docs=20, max_words=30)
        n_topics = int(rng.integers(1, 5))
        model = init_model(n_topics, X.n_words, seed=seed, n_docs=X.n_docs)
        prev = None
        for _ in range(15):
            model, ll = em_step(model, X)
            if prev is not None:
                assert ll >= prev - 1e-9, f"seed {seed}: likelihood decreased"
            prev = ll
            model.validate()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"EM sweep took {elapsed:.2f}s"
    _report(1, "EM monotonicity over 50 random corpora")
    _report(2, "normalization after every EM iteration")


def test_criterion_3_k1_closed_form():
    for seed in range(5):
        rng = np.random.default_rng(seed + 100)
        X = random_corpus(rng)
        model = init_model(1, X.n_words, seed=seed, n_docs=X.n_docs)
        new, _ll = em_step(model, X, smoothing=0.0)
        empirical = dense(X).sum(axis=1) / X.vals.sum()
        assert np.abs(new.word_given_topic[0] - empirical).max() < 1e-12
    _report(3, "K=1 closed form within 1e-12")


def test_criterion_4_planted_topic_recovery():
    X, labels = planted_corpus(n_topics=3, words_per_topic=10, n_docs=300,
                               tags_per_doc=10)
    start = time.perf_counter()
    model = train(X, TrainConfig(n_topics=3, seed=0))
    elapsed = time.perf_counter() - start
    accuracy = best_permutation_accuracy(
        model.doc_mixtures.argmax(axis=1), labels, 3)
    assert accuracy >= 0.95, f"recovered only {accuracy:.1%}"
    assert elapsed < 5.0, f"training took {elapsed:.2f}s"
    _report(4, f"planted-topic recovery ({accuracy:.1%})")


def test_criterion_5_fold_in():
    X, _labels = planted_corpus()
    model = train(X, TrainConfig(n_topics=3, seed=0))
    before = model.to_json().encode()
    worst = 0.0
    for j in range(X.n_docs):
        widx, wval = column(X, j)
        mixture = fold_in_one(model, widx, wval)
        worst = max(worst, float(np.abs(mixture - model.doc_mixtures[j]).max()))
    assert model.to_json().encode() == before, "fold_in mutated the model"
    assert worst < 1e-3, f"fold-in deviates by {worst:.2e}"
    _report(5, f"folding-in immutable and consistent (L-inf {worst:.1e})")


def test_criterion_6_null_threshold():
    # documents the open point: a normalized K=8 mixture has max >= 1/8,
    # so the default 0.035 threshold can never produce Null
    rng = np.random.default_rng(0)
    for _ in range(500):
        mixture = rng.random(8)
        mixture /= mixture.sum()
        topic, max_prob = plsa.assign_topic(mixture, threshold=0.035)
        assert topic is not None
        assert max_prob >= 1 / 8 > 0.035
    topic, _p = plsa.assign_topic(np.full(8, 0.125), threshold=0.2)
    assert topic is None
    _report(6, "Null threshold semantics (0.035 never fires; 0.2 does)")


def test_criterion_7_lin_similarity():
    g = toy_graph()
    assert abs(lin_similarity(g, "n_dog", "n_cat") - 14 / 38) < 1e-12
    rng = np.random.default_rng(77)
    for _ in range(200):
        graph = random_dag_graph(rng, max_nodes=50)
        nodes = sorted(graph.parents)
        for i, j in rng.integers(0, len(nodes), size=(8, 2)):
            s1, s2 = nodes[i], nodes[j]
            assert lin_similarity(graph, s1, s2) == lin_similarity(graph, s2, s1)
            assert lcs(graph, s1, s2) == _exhaustive_lcs(graph, s1, s2)
        for s in nodes:
            if graph.ic[s] > 0:
                assert lin_similarity(graph, s, s) == pytest.approx(1.0)
    _report(7, "Lin similarity toy value, symmetry, LCS oracle on 200 DAGs")


@pytest.mark.filterwarnings("ignore:.*floored with epsilon")
def test_criterion_8_coherence_oracle_equivalence():
    rng = np.random.default_rng(88)
    for _ in range(100):
        docs, words = _random_docs(rng, max_docs=10, max_words=8)
        stats = coh.build_corpus_stats(docs, vocab_filter=set(words))
        exp_uci, exp_umass, exp_npmi = brute_force_scores(docs, words)
        assert abs(coh.uci_score(words, stats) - exp_uci) < 1e-12
        assert abs(coh.umass_score(words, stats) - exp_umass) < 1e-12
        assert abs(coh.avg_npmi(words, stats) - exp_npmi) < 1e-12
    stats = coh.build_corpus_stats(["w1", "w1 w2", "w2", "x"],
                                   vocab_filter={"w1", "w2"})
    assert abs(coh.uci_score(["w1", "w2"], stats)) < 1e-9
    assert abs(coh.umass_score(["w1", "w2"], stats) - math.log(0.5)) < 1e-9
    _report(8, "coherence matches brute-force oracle on 100 corpora")


def test_criterion_9_naming():
    defs = naming.default_name_defs()
    graph, model, vocab = food_animal_setup()
    result = naming.name_topics(model, vocab, defs, graph, n_top=10)
    assert result[0].name == "Food and Drinks"
    assert result[1].name == "Pets and Animals"
    scaled, _, _ = food_animal_setup(ic_scale=3.0)
    rescaled = naming.name_topics(model, vocab, defs, scaled, n_top=10)
    assert [r.name for r in result] == [r.name for r in rescaled]
    _report(9, "automatic naming and IC-scale invariance")


def test_criterion_10_pipeline_determinism_and_conservation(tmp_path):
    rng = np.random.default_rng(10)
    lines = []
    for i in range(1000):
        pool = FOOD_WORDS if i % 2 == 0 else ANIMAL_WORDS
        tags = rng.choice(pool, size=6, replace=False)
        lines.append(tag_record_line(f"img{i:04d}", f"u{i % 5}",
                                     [(t, 0.9) for t in tags]))
    records_path = tmp_path / "records.jsonl"
    records_path.write_text("\n".join(lines) + "\n")
    vocab_path = tmp_path / "vocab.txt"
    model_path = tmp_path / "model.json"

    start = time.perf_counter()
    assert main(["build-vocab", str(records_path), "-o", str(vocab_path)]) == 0
    assert main(["train", str(records_path), str(vocab_path),
                 "-o", str(model_path), "--seed", "3"]) == 0
    manifests = []
    for run in range(2):
        out = tmp_path / f"manifest{run}.json"
        assert main(["organize", str(records_path), str(model_path),
                     str(vocab_path), "-o", str(out)]) == 0
        manifests.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    assert manifests[0] == manifests[1], "manifests differ between runs"
    payload = json.loads(manifests[0])
    assert len(payload["images"]) == 1000
    assert elapsed < 30.0, f"end-to-end run took {elapsed:.2f}s"
    _report(10, f"pipeline determinism and conservation ({elapsed:.1f}s)")


def test_criterion_11_paper_constant_defaults():
    assert plsa.DEFAULT_TOPICS == 8
    assert plsa.DEFAULT_TOP_WORDS == 10
    assert plsa.DEFAULT_NULL_THRESHOLD == 0.035
    assert corpus.DEFAULT_MIN_COUNT == 5
    assert TrainConfig().n_topics == 8
    assert naming.DEFAULT_TOPIC_NAMES == (
        "Interior and Objects",
        "Pets and Animals",
        "Nature and Landscape",
        "Food and Drinks",
        "Street-view and Architecture",
        "People and Portraits",
        "Sport and Adventure",
        "Text and Visual",
    )
    assert tuple(d.name for d in naming.default_name_defs()) == \
        naming.DEFAULT_TOPIC_NAMES
    assert coh.DEFAULT_TOP_N == 10
    _report(11, "paper-constant defaults wired (K=8, Q=10, 0.035, names)")
