"""Hot numeric kernels for EM training and folding-in.

Both kernels are vectorized numpy with fixed reduction orders, so a
given input gives bit-identical results across runs.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).tiny


def em_sufficient_stats(rows, cols, vals, word_given_topic, doc_mixtures):
    """E-step posteriors accumulated into M-step sufficient statistics.

    Returns (nwz, nzd, nz, ll) where ll is the log-likelihood of the
    *input* parameters over the nonzero entries.

    The posterior is held topic-major, one contiguous row of length nnz
    per topic, so each gather, the normalization and each ``bincount``
    scatter runs over contiguous memory; ``bincount`` adds in input
    order, as a per-entry loop would.
    """
    n_topics, n_words = word_given_topic.shape
    n_docs = doc_mixtures.shape[0]
    doc_topic = np.ascontiguousarray(doc_mixtures.T)
    # (K, nnz) posterior q(z | w, d), normalized in place below
    q = np.empty((n_topics, len(vals)))
    for k in range(n_topics):
        np.multiply(doc_topic[k].take(cols), word_given_topic[k].take(rows),
                    out=q[k])
    safe = np.maximum(q.sum(axis=0), _TINY)
    ll = float(np.sum(vals * np.log(safe)))
    q *= vals / safe
    nwz = np.empty((n_topics, n_words))
    nzd = np.empty((n_docs, n_topics))
    for k in range(n_topics):
        nwz[k] = np.bincount(rows, weights=q[k], minlength=n_words)
        nzd[:, k] = np.bincount(cols, weights=q[k], minlength=n_docs)
    nz = q.sum(axis=1)
    return nwz, nzd, nz, ll


def fold_in_kernel(widx, wvals, word_given_topic, max_iters, tol):
    """EM on a single document's topic mixture with P(w|z) frozen."""
    n_topics = word_given_topic.shape[0]
    theta = np.full(n_topics, 1.0 / n_topics)
    if len(widx) == 0:
        return theta
    pw = word_given_topic[:, widx].T  # (nw, K)
    for _ in range(max_iters):
        q = pw * theta[None, :]
        norm = np.maximum(q.sum(axis=1), _TINY)
        new = (q * (wvals / norm)[:, None]).sum(axis=0)
        total = new.sum()
        if total <= 0.0:
            new = np.full(n_topics, 1.0 / n_topics)
        else:
            new = new / total
        delta = np.abs(new - theta).max()
        theta = new
        if delta < tol:
            break
    return theta
