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
    """
    n_topics, n_words = word_given_topic.shape
    n_docs = doc_mixtures.shape[0]
    # (nnz, K) posterior q(z | w, d) before normalization
    q = doc_mixtures[cols, :] * word_given_topic[:, rows].T
    norm = q.sum(axis=1)
    safe = np.maximum(norm, _TINY)
    ll = float(np.sum(vals * np.log(safe)))
    qx = q * (vals / safe)[:, None]
    nwz = np.zeros((n_topics, n_words))
    for k in range(n_topics):
        np.add.at(nwz[k], rows, qx[:, k])
    nzd = np.zeros((n_docs, n_topics))
    np.add.at(nzd, cols, qx)
    nz = qx.sum(axis=0)
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
