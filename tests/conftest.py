import io
import math
import json

import numpy as np

from phototopics.corpus import CooccurrenceMatrix, Vocabulary, parse_tag_records
from phototopics.plsa import fold_in
from phototopics.taxonomy import load_taxonomy

_TINY = np.finfo(np.float64).tiny


def make_corpus(dense):
    """CooccurrenceMatrix from a dense M x N array."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return CooccurrenceMatrix(*dense.shape, rows, cols, dense[rows, cols])


def dense(X):
    """The M x N array of the CooccurrenceMatrix ``X``."""
    out = np.zeros((X.n_words, X.n_docs))
    out[X.rows, X.cols] = X.vals
    return out


def reference_em_stats(rows, cols, vals, word_given_topic, doc_mixtures):
    """Per-entry loop over the non-zeros: the E-step kernel's defining
    arithmetic, ``(nwz, nzd, nz, ll)`` with ``nzd`` N x K."""
    n_topics, n_words = word_given_topic.shape
    nwz = np.zeros((n_topics, n_words))
    nzd = np.zeros((doc_mixtures.shape[0], n_topics))
    nz = np.zeros(n_topics)
    ll = 0.0
    for w, d, x in zip(rows, cols, vals):
        q = [doc_mixtures[d, k] * word_given_topic[k, w] for k in range(n_topics)]
        safe = max(sum(q), _TINY)
        ll += x * math.log(safe)
        for k in range(n_topics):
            qk = q[k] * x / safe
            nwz[k, w] += qk
            nzd[d, k] += qk
            nz[k] += qk
    return nwz, nzd, nz, ll


def fold_in_one(model, word_indices, word_values):
    """``plsa.fold_in`` of one document given by its word indices and values."""
    X = CooccurrenceMatrix(model.n_words, 1, word_indices,
                           np.zeros(len(word_indices), dtype=np.int64), word_values)
    return fold_in(model, X)[0]


def column(X, j):
    """Word indices and values of document ``j`` of the matrix ``X``."""
    mask = X.cols == j
    return X.rows[mask], X.vals[mask]


def random_corpus(rng, max_docs=20, max_words=30):
    """Small random sparse count matrix for EM property tests."""
    n_docs = int(rng.integers(2, max_docs + 1))
    n_words = int(rng.integers(2, max_words + 1))
    dense = (rng.random((n_words, n_docs)) < 0.3).astype(float)
    dense *= rng.integers(1, 4, size=dense.shape)
    # make sure no document and no word is entirely empty
    for j in range(n_docs):
        if dense[:, j].sum() == 0:
            dense[int(rng.integers(n_words)), j] = 1.0
    return make_corpus(dense)


def planted_corpus(n_topics=3, words_per_topic=10, n_docs=300,
                   tags_per_doc=10, seed=1234):
    """Corpus with disjoint per-topic vocabularies and known labels."""
    rng = np.random.default_rng(seed)
    n_words = n_topics * words_per_topic
    labels = rng.integers(0, n_topics, size=n_docs)
    dense = np.zeros((n_words, n_docs))
    for j, z in enumerate(labels):
        draws = rng.integers(0, words_per_topic, size=tags_per_doc)
        for w in draws:
            dense[z * words_per_topic + int(w), j] = 1.0  # binary weighting
    return make_corpus(dense), labels


def toy_graph():
    """The 4-node chain root -> animal -> {dog, cat} with fixed ICs."""
    taxonomy = io.StringIO("n_root\t\nn_animal\tn_root\nn_dog\tn_animal\nn_cat\tn_animal\n")
    lexicon = io.StringIO("dog\tn_dog\ncat\tn_cat\nanimal\tn_animal\n")
    ic = io.StringIO("n_root\t0.0\nn_animal\t0.7\nn_dog\t2.0\nn_cat\t1.8\n")
    return load_taxonomy(taxonomy, lexicon, ic_stream=ic)


def random_dag_graph(rng, max_nodes=50):
    """Random rooted DAG with ICs derived from random sense counts."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"s{i:02d}" for i in range(n)]
    tax_lines = [f"{names[0]}\t"]
    for i in range(1, n):
        n_parents = int(rng.integers(1, min(i, 3) + 1))
        parents = rng.choice(i, size=n_parents, replace=False)
        tax_lines.append(f"{names[i]}\t" + ",".join(names[p] for p in parents))
    lex_lines = [f"w{i:02d}\t{names[i]}" for i in range(n)]
    counts_lines = [f"{names[i]}\t{int(rng.integers(0, 20))}" for i in range(n)]
    counts_lines[-1] = f"{names[-1]}\t5"  # keep total positive
    return load_taxonomy(io.StringIO("\n".join(tax_lines)),
                         io.StringIO("\n".join(lex_lines)),
                         counts_stream=io.StringIO("\n".join(counts_lines)))


FOOD_WORDS = ["apple", "bread", "cheese", "pizza", "soup",
              "cake", "pasta", "rice", "salad", "stew"]
ANIMAL_WORDS = ["dog", "cat", "horse", "rabbit", "bird",
                "fox", "wolf", "cow", "sheep", "goat"]


def food_animal_setup(ic_scale=1.0):
    """Toy taxonomy with food/animal branches plus a two-topic model whose
    top words are hyponyms of food (topic 0) and animal (topic 1)."""
    tax_lines = ["root\t", "food\troot", "beverage\tfood",
                 "animal\troot", "pet\tanimal"]
    lex_lines = ["food\tfood", "drinks\tbeverage",
                 "animals\tanimal", "pets\tpet"]
    ic_values = {"root": 0.0, "food": 1.0, "beverage": 1.5,
                 "animal": 1.0, "pet": 1.5}
    for w in FOOD_WORDS:
        tax_lines.append(f"n_{w}\tfood")
        lex_lines.append(f"{w}\tn_{w}")
        ic_values[f"n_{w}"] = 2.0
    for w in ANIMAL_WORDS:
        tax_lines.append(f"n_{w}\tpet")
        lex_lines.append(f"{w}\tn_{w}")
        ic_values[f"n_{w}"] = 2.0
    ic_lines = [f"{s}\t{v * ic_scale}" for s, v in ic_values.items()]
    graph = load_taxonomy(io.StringIO("\n".join(tax_lines)),
                          io.StringIO("\n".join(lex_lines)),
                          ic_stream=io.StringIO("\n".join(ic_lines)))

    from phototopics.plsa import PlsaModel

    words = tuple(sorted(FOOD_WORDS + ANIMAL_WORDS))
    vocab = Vocabulary(words)
    pwz = np.full((2, len(words)), 1e-6)
    for i, w in enumerate(words):
        pwz[0 if w in FOOD_WORDS else 1, i] = 1.0
    pwz /= pwz.sum(axis=1, keepdims=True)
    model = PlsaModel(pwz, np.zeros((0, 2)), np.array([0.5, 0.5]), seed=0)
    return graph, model, vocab


def tag_record_line(image_id, collection_id, tags):
    return json.dumps({
        "image_id": image_id,
        "collection_id": collection_id,
        "tags": [{"tag": t, "confidence": c} for t, c in tags],
    })


def tag_table(records):
    """The ``TagTable`` of (image_id, collection_id, [(tag, confidence)])
    triples, parsed from their JSON lines."""
    return parse_tag_records([tag_record_line(*rec) for rec in records])
