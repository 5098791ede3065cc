import numpy as np
import pytest

from phototopics import _kernels
from phototopics.corpus import CooccurrenceMatrix
from phototopics.plsa import PlsaModel, em_step

from conftest import column, make_corpus, random_corpus, reference_em_stats

_TINY = np.finfo(np.float64).tiny
# Fold-in mixtures agree with per-topic, entry-order sums within this
# (the tolerance README.md states).
FOLD_IN_ATOL = 1e-14


def _random_params(rng, n_topics, n_words, n_docs):
    pwz = rng.random((n_topics, n_words)) + 1e-3
    pwz /= pwz.sum(axis=1, keepdims=True)
    pzd = rng.random((n_docs, n_topics)) + 1e-3
    pzd /= pzd.sum(axis=1, keepdims=True)
    return pwz, pzd


def reference_fold_in(widx, wvals, word_given_topic, max_iters, tol):
    """Per-word loop of fold-in EM with P(w|z) frozen."""
    n_topics = word_given_topic.shape[0]
    theta = [1.0 / n_topics] * n_topics
    if len(widx) == 0:
        return np.array(theta)
    for _ in range(max_iters):
        new = [0.0] * n_topics
        for w, x in zip(widx, wvals):
            s = max(sum(theta[k] * word_given_topic[k, w]
                        for k in range(n_topics)), _TINY)
            for k in range(n_topics):
                new[k] += theta[k] * word_given_topic[k, w] * x / s
        total = sum(new)
        new = [v / total if total > 0.0 else 1.0 / n_topics for v in new]
        delta = max(abs(a - b) for a, b in zip(new, theta))
        theta = new
        if delta < tol:
            break
    return np.array(theta)


def test_em_stats_match_reference_loop():
    rng = np.random.default_rng(0)
    for _ in range(10):
        X = random_corpus(rng)
        n_topics = int(rng.integers(1, 5))
        pwz, pzd = _random_params(rng, n_topics, X.n_words, X.n_docs)
        ref = reference_em_stats(X.rows, X.cols, X.vals, pwz, pzd)
        got = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals, pwz, pzd)
        for a, b in zip(got[:3], ref[:3]):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=1e-12)
        assert got[3] == pytest.approx(ref[3], rel=1e-12)


@pytest.mark.parametrize("dense, n_topics", [
    ([[0, 1, 2, 1], [0, 3, 0, 1]], 3),  # first document without entries
    ([[1, 0, 2, 1], [1, 0, 1, 2]], 2),  # a middle one
    ([[1, 2, 1, 0], [2, 1, 3, 0]], 4),  # the last one
    ([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0]], 3),  # all but two
    ([[2], [1], [0], [3]], 3),  # a single document
    ([[1, 0, 2], [0, 3, 1], [1, 1, 0]], 1),  # K = 1
    ([[0, 0, 0], [0, 0, 0]], 2),  # no entries
])
def test_em_stats_edge_shapes_match_reference_loop(dense, n_topics):
    """The per-document gather handles documents without entries in any
    position, a lone document, one topic and an empty matrix; ``nzd`` is
    the N x K view of a topic-major array."""
    X = make_corpus(dense)
    pwz, pzd = _random_params(np.random.default_rng(7), n_topics,
                              X.n_words, X.n_docs)
    ref = reference_em_stats(X.rows, X.cols, X.vals, pwz, pzd)
    got = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals, pwz, pzd)
    assert got[1].shape == (X.n_docs, n_topics)
    assert got[1].T.flags.c_contiguous  # one contiguous row per topic
    for a, b in zip(got[:3], ref[:3]):
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=1e-12)
    assert got[3] == pytest.approx(ref[3], rel=1e-12)


def test_fold_in_matches_reference_loop():
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = random_corpus(rng)
        n_topics = int(rng.integers(1, 6))
        pwz, _ = _random_params(rng, n_topics, X.n_words, 1)
        got = _kernels.fold_in_kernel(X.rows, X.vals, pwz, 100, 1e-10,
                                      X.cols, X.n_docs)
        assert got.shape == (X.n_docs, n_topics)
        for j in range(X.n_docs):
            widx, wval = column(X, j)
            ref = reference_fold_in(widx, wval, pwz, 100, 1e-10)
            np.testing.assert_allclose(got[j], ref, atol=1e-10)


@pytest.mark.parametrize("n_topics", [1, 2, 7, 8, 9, 17])
def test_fold_in_independent_of_batch(n_topics):
    """Each document's mixture is bit-identical whether it is folded in
    alone or with others, whatever the entry order within each document.
    With tol = 1e-3 the documents stop at different iterations and some
    run out of iterations. The first matrix holds a one-entry document:
    alone, its entry's normalizer and its mass each sum a single column
    of K values, which numpy would add pairwise at K >= 8 where it adds
    the columns of a wider array row by row."""
    rng = np.random.default_rng(4)
    one_entry = make_corpus([[1, 0, 2], [0, 3, 1], [2, 0, 0], [0, 0, 1]])
    assert np.count_nonzero(one_entry.cols == 1) == 1
    for X in [one_entry] + [random_corpus(rng, max_docs=30) for _ in range(3)]:
        pwz, _ = _random_params(rng, n_topics, X.n_words, 1)
        order = np.lexsort((X.rows, X.cols))  # as CooccurrenceMatrix orders
        for perm in (order, np.lexsort((rng.random(X.nnz), X.cols))):
            rows, cols, vals = X.rows[perm], X.cols[perm], X.vals[perm]
            got = _kernels.fold_in_kernel(rows, vals, pwz, 60, 1e-3,
                                          cols, X.n_docs)
            for j in range(X.n_docs):
                mine = cols == j
                alone = _kernels.fold_in_kernel(rows[mine], vals[mine], pwz,
                                                60, 1e-3)
                assert np.array_equal(got[j], alone[0])


def test_one_fold_in_iteration_is_one_em_step():
    """Fold-in is the training EM with P(w|z) held fixed: one iteration
    from uniform mixtures gives ``em_step``'s mixtures bit for bit, at
    K = 9 (past numpy's 8-term pairwise unrolling), for documents of up
    to 7 entries, one without entries and one whose weights are all 0."""
    rng = np.random.default_rng(9)
    n_topics, n_words = 9, 12
    per_doc = [3, 0, 7, 1, 4, 2, 5, 6]
    rows = np.concatenate([rng.choice(n_words, n, replace=False) for n in per_doc])
    cols = np.repeat(np.arange(len(per_doc)), per_doc)
    vals = rng.random(len(rows)) + 0.1
    vals[cols == 4] = 0.0
    X = CooccurrenceMatrix(n_words, len(per_doc), rows, cols, vals)
    pwz, _ = _random_params(rng, n_topics, n_words, 1)
    uniform = np.full(n_topics, 1 / n_topics)
    model = PlsaModel(pwz, np.tile(uniform, (X.n_docs, 1)), uniform, seed=0)
    trained, _ll = em_step(model, X)
    folded = _kernels.fold_in_kernel(X.rows, X.vals, pwz, 1, 1e-10,
                                     X.cols, X.n_docs)
    assert np.array_equal(folded, trained.doc_mixtures)
    for j in (1, 4):
        assert folded[j].tolist() == uniform.tolist()


@pytest.mark.parametrize("block_elements", [1, 9, 40, 200])
def test_fold_in_independent_of_blocking(monkeypatch, block_elements):
    """Splitting the documents into blocks, down to one document per
    block, changes no bit of any mixture."""
    rng = np.random.default_rng(6)
    for _ in range(3):
        X = random_corpus(rng, max_docs=30)
        pwz, _ = _random_params(rng, 3, X.n_words, 1)
        perm = np.lexsort((rng.random(X.nnz), X.cols))
        args = (X.rows[perm], X.vals[perm], pwz, 60, 1e-3, X.cols[perm], X.n_docs)
        whole = _kernels.fold_in_kernel(*args)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_BLOCK_ELEMENTS", block_elements)
            assert np.array_equal(_kernels.fold_in_kernel(*args), whole)


def per_topic_fold_in(rows, cols, vals, word_given_topic, max_iters, tol,
                      n_docs):
    """Batched fold-in whose document totals take one ``bincount`` per
    topic; documents leave the arrays as they stop. Also returns the
    iteration at which each document with entries stopped."""
    n_topics = len(word_given_topic)
    theta = np.full((n_docs, n_topics), 1.0 / n_topics)
    stopped = {}
    docs, per_doc = np.unique(cols, return_counts=True)
    doc_of = np.repeat(np.arange(len(docs)), per_doc)
    pw, mix = word_given_topic[:, rows], theta[docs].T
    for it in range(1, max_iters + 1):
        if not len(docs):
            break
        q, safe = _kernels._posterior(per_doc, mix, pw)
        q *= vals / safe
        totals = np.empty((n_topics, len(docs)))
        for k, q_k in enumerate(q):
            totals[k] = np.bincount(doc_of, weights=q_k, minlength=len(docs))
        new = _kernels.m_step(totals)
        done = np.abs(new - mix).max(axis=0) < tol
        mix = new
        theta[docs[done]] = mix[:, done].T
        stopped.update(dict.fromkeys(docs[done].tolist(), it))
        keep = ~done
        entries = keep[doc_of]
        docs, per_doc, mix = docs[keep], per_doc[keep], mix[:, keep]
        doc_of = np.repeat(np.arange(len(docs)), per_doc)
        pw, vals = pw[:, entries], vals[entries]
    theta[docs] = mix.T
    stopped.update(dict.fromkeys(docs.tolist(), max_iters))
    return theta, stopped


@pytest.mark.parametrize("block_elements", [None, 1, 64, 600])
def test_fold_in_totals_match_per_topic_bincounts(monkeypatch, block_elements):
    """Each iteration's ``reduceat`` document totals agree with one
    ``bincount`` per topic within the stated tolerance, for K from 1 to 33,
    with documents without entries between others, documents that stop at
    different iterations and, with a small ``_BLOCK_ELEMENTS``, many
    blocks."""
    if block_elements is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(16)
    shrank = 0
    for n_topics in [1, 33, *rng.integers(1, 34, size=10)]:
        n_docs, n_words = int(rng.integers(3, 25)), int(rng.integers(2, 40))
        per_doc = rng.integers(0, 9, size=n_docs)
        per_doc[rng.integers(1, n_docs - 1)] = 0  # one between others
        cols = np.repeat(np.arange(n_docs), per_doc)
        rows = rng.integers(0, n_words, size=len(cols))
        vals = rng.integers(0, 4, size=len(cols)) * rng.random(len(cols))
        pwz, _ = _random_params(rng, int(n_topics), n_words, 1)
        want, stopped = per_topic_fold_in(rows, cols, vals, pwz, 60, 1e-3,
                                          n_docs)
        got = _kernels.fold_in_kernel(rows, vals, pwz, 60, 1e-3, cols, n_docs)
        np.testing.assert_allclose(got, want, atol=FOLD_IN_ATOL, rtol=0)
        shrank += len(set(stopped.values())) > 1
    assert shrank >= 8


@pytest.mark.parametrize("block_elements", [1, 64, 600])
@pytest.mark.parametrize("n_topics", [3, 9])
def test_em_stats_across_blocks_match_reference_loop(monkeypatch,
                                                      block_elements, n_topics):
    """Training walks the blocks fold-in walks: over many blocks, with
    documents without entries first, in the middle and last, the
    statistics match the per-entry loop and one fold-in iteration still
    gives ``em_step``'s bits."""
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(21)
    per_doc = rng.integers(1, 20, size=60)
    per_doc[[0, 30, 59]] = 0
    n_words = 40
    rows = np.concatenate([rng.choice(n_words, n, replace=False) for n in per_doc])
    cols = np.repeat(np.arange(len(per_doc)), per_doc)
    X = CooccurrenceMatrix(n_words, len(per_doc), rows, cols,
                           rng.integers(1, 4, size=len(rows)) * 1.0)
    assert X.nnz > 2 * max(1, block_elements // n_topics)  # several blocks
    pwz, pzd = _random_params(rng, n_topics, n_words, X.n_docs)
    ref = reference_em_stats(X.rows, X.cols, X.vals, pwz, pzd)
    got = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals, pwz, pzd)
    for a, b in zip(got[:3], ref[:3]):
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=1e-12)
    assert got[3] == pytest.approx(ref[3], rel=1e-12)
    assert not got[1][[0, 30, 59]].any()

    uniform = np.full(n_topics, 1 / n_topics)
    model = PlsaModel(pwz, np.tile(uniform, (X.n_docs, 1)), uniform, seed=0)
    folded = _kernels.fold_in_kernel(X.rows, X.vals, pwz, 1, 1e-10,
                                     X.cols, X.n_docs)
    assert np.array_equal(folded, em_step(model, X)[0].doc_mixtures)


def test_fold_in_documents_without_weight_stay_uniform():
    """No entries, or entries that all weigh 0, give the uniform mixture;
    documents between them are unaffected."""
    pwz = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.2, 0.6, 0.2]])
    rows = np.array([0, 2, 1, 0, 1])
    cols = np.array([1, 1, 2, 4, 4])
    vals = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    got = _kernels.fold_in_kernel(rows, vals, pwz, 200, 1e-10, cols, 5)
    for j in (0, 2, 3, 4):
        assert got[j].tolist() == [1 / 3] * 3
    ref = reference_fold_in([0, 2], [1.0, 1.0], pwz, 200, 1e-10)
    np.testing.assert_allclose(got[1], ref, atol=1e-10)
    empty = _kernels.fold_in_kernel(np.zeros(0, dtype=np.int64), np.zeros(0),
                                    pwz, 200, 1e-10,
                                    np.zeros(0, dtype=np.int64), 2)
    assert empty.tolist() == [[1 / 3] * 3] * 2


def test_numpy_path_deterministic():
    rng = np.random.default_rng(2)
    X = random_corpus(rng)
    pwz, pzd = _random_params(rng, 3, X.n_words, X.n_docs)
    a = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals, pwz, pzd)
    b = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals, pwz, pzd)
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)
    assert a[3] == b[3]


def test_em_stats_independent_of_layout_and_entry_order():
    """C or Fortran mixtures give the same bits; another order of the
    entries within each document agrees with the reference loop."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = random_corpus(rng)
        n_topics = int(rng.integers(1, 5))
        pwz, pzd = _random_params(rng, n_topics, X.n_words, X.n_docs)
        c_order = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals, pwz, pzd)
        f_order = _kernels.em_sufficient_stats(X.rows, X.cols, X.vals, pwz,
                                               np.asfortranarray(pzd))
        for a, b in zip(c_order[:3], f_order[:3]):
            assert np.array_equal(a, b)
        assert c_order[3] == f_order[3]

        # entries shuffled within each document; the kernel asks only
        # that they be sorted by document
        perm = np.lexsort((rng.random(X.nnz), X.cols))
        rows, cols, vals = X.rows[perm], X.cols[perm], X.vals[perm]
        ref = reference_em_stats(rows, cols, vals, pwz, pzd)
        got = _kernels.em_sufficient_stats(rows, cols, vals, pwz, pzd)
        for a, b, c in zip(got[:3], ref[:3], c_order[:3]):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=1e-12)
            np.testing.assert_allclose(a, c, atol=1e-12, rtol=1e-12)
        assert got[3] == pytest.approx(ref[3], rel=1e-12)
