import math

import numpy as np
import pytest

from phototopics import _kernels

from conftest import random_corpus

_TINY = np.finfo(np.float64).tiny


def _random_params(rng, n_topics, n_words, n_docs):
    pwz = rng.random((n_topics, n_words)) + 1e-3
    pwz /= pwz.sum(axis=1, keepdims=True)
    pzd = rng.random((n_docs, n_topics)) + 1e-3
    pzd /= pzd.sum(axis=1, keepdims=True)
    return pwz, pzd


def reference_em_stats(rows, cols, vals, word_given_topic, doc_mixtures):
    """Per-entry loop over the non-zeros: the kernel's defining arithmetic."""
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


def test_fold_in_matches_reference_loop():
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = random_corpus(rng)
        n_topics = int(rng.integers(1, 6))
        pwz, _ = _random_params(rng, n_topics, X.n_words, 1)
        for j in range(X.n_docs):
            widx, wval = X.column(j)
            ref = reference_fold_in(widx, wval, pwz, 100, 1e-10)
            got = _kernels.fold_in_kernel(widx, wval, pwz, 100, 1e-10)
            np.testing.assert_allclose(got, ref, atol=1e-10)


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

        perm = rng.permutation(X.nnz)
        rows, cols, vals = X.rows[perm], X.cols[perm], X.vals[perm]
        ref = reference_em_stats(rows, cols, vals, pwz, pzd)
        got = _kernels.em_sufficient_stats(rows, cols, vals, pwz, pzd)
        for a, b, c in zip(got[:3], ref[:3], c_order[:3]):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=1e-12)
            np.testing.assert_allclose(a, c, atol=1e-12, rtol=1e-12)
        assert got[3] == pytest.approx(ref[3], rel=1e-12)
