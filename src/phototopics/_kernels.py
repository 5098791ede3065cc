"""Hot numeric kernels for EM training and folding-in.

Both kernels run over a whole sparse matrix at once, in vectorized numpy
with fixed reduction orders, so a given input gives bit-identical
results across runs.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).tiny
# Elements of one (entries, K) array of a fold-in block: 2 MiB of float64.
_BLOCK_ELEMENTS = 1 << 18


def em_sufficient_stats(rows, cols, vals, word_given_topic, doc_mixtures):
    """E-step posteriors accumulated into M-step sufficient statistics.

    Entry ``i`` gives word ``rows[i]`` the weight ``vals[i]`` in document
    ``cols[i]``; the entries must be sorted by document, as a
    ``CooccurrenceMatrix`` keeps them. Returns (nwz, nzd, nz, ll) where
    ll is the log-likelihood of the *input* parameters over the entries.

    The posterior is held topic-major, one contiguous row of length nnz
    per topic, so the normalization and each ``bincount`` scatter run
    over contiguous memory; ``bincount`` adds in input order, as a
    per-entry loop would. ``nzd`` is filled topic-major too and returned
    as the N x K transpose view of a (K, N) array, so an M-step that
    keeps the mixtures in that layout hands them back without a copy.
    """
    n_topics, n_words = word_given_topic.shape
    n_docs = doc_mixtures.shape[0]
    q, safe = _posterior(rows, cols, word_given_topic, doc_mixtures)
    ll = _log_likelihood(vals, safe)
    q *= vals / safe
    nwz = np.empty((n_topics, n_words))
    nzd = np.empty((n_topics, n_docs))
    for k in range(n_topics):
        nwz[k] = np.bincount(rows, weights=q[k], minlength=n_words)
        nzd[k] = np.bincount(cols, weights=q[k], minlength=n_docs)
    nz = q.sum(axis=1)
    return nwz, nzd.T, nz, ll


def em_log_likelihood(rows, cols, vals, word_given_topic, doc_mixtures):
    """The ``ll`` of ``em_sufficient_stats`` for the same input, computed
    the same way but without the scatters."""
    return _log_likelihood(
        vals, _posterior(rows, cols, word_given_topic, doc_mixtures)[1])


def _posterior(rows, cols, word_given_topic, doc_mixtures):
    """The unnormalized (K, nnz) posterior P(z|d) P(w|z) of entries sorted
    by document, and each entry's normalizer, floored at ``_TINY``.

    P(z|d) is gathered for all topics at once, by repeating each
    document's column once per entry; on topic-major mixtures (the
    transpose of a C-contiguous (K, N) array) nothing is copied first.
    """
    doc_topic = np.ascontiguousarray(doc_mixtures.T)
    per_doc = np.bincount(cols, minlength=doc_topic.shape[1])
    q = np.repeat(doc_topic, per_doc, axis=1)
    for k in range(len(q)):
        q[k] *= word_given_topic[k].take(rows)
    safe = q.sum(axis=0)
    np.maximum(safe, _TINY, out=safe)
    return q, safe


def _log_likelihood(vals, safe):
    return float(np.sum(vals * np.log(safe)))


def fold_in_kernel(rows, vals, word_given_topic, max_iters, tol,
                   cols=None, n_docs=1):
    """EM on every document's topic mixture with P(w|z) frozen.

    Entry ``i`` gives word ``rows[i]`` the weight ``vals[i]`` in document
    ``cols[i]``; without ``cols`` every entry is in document 0. Returns
    the ``(n_docs, K)`` mixtures. A document without entries, or whose
    weights are all 0, keeps the uniform mixture.

    Documents do not interact, so they are folded in together, in blocks
    of whole documents holding about ``_BLOCK_ELEMENTS / K`` entries
    each, which bounds the memory the ``(entries, K)`` arrays take on a
    large input. The entries must be grouped by document, as a
    ``CooccurrenceMatrix`` keeps them.
    """
    n_topics = word_given_topic.shape[0]
    theta = np.full((n_docs, n_topics), 1.0 / n_topics)
    if cols is None:
        cols = np.zeros(len(rows), dtype=np.int64)
    first = np.flatnonzero(np.diff(cols, prepend=-1))  # each document's first entry
    per_block = max(1, _BLOCK_ELEMENTS // n_topics)
    cuts = first[np.flatnonzero(np.diff(first // per_block, prepend=-1))]
    for lo, hi in zip(cuts, [*cuts[1:], len(cols)]):
        _fold_in_block(rows[lo:hi], cols[lo:hi], vals[lo:hi], word_given_topic,
                       max_iters, tol, theta)
    return theta


def _fold_in_block(rows, cols, vals, word_given_topic, max_iters, tol, theta):
    """Fold in the documents of one block, whose entries are grouped by
    document, and write their mixtures into ``theta``.

    All documents are updated at once, and each one stops on its own once
    no topic moved by ``tol`` or more; its entries then leave the arrays.
    The posterior is held entry-major, ``(entries, K)``, so each entry's
    normalizer sums its K terms in the same order as for one document
    alone, and one ``bincount`` over the flat (document, topic) bins adds
    each document's entries in input order; a document's mixture is
    bit-identical whichever documents share the batch.
    """
    n_topics = theta.shape[1]
    starts = np.diff(cols, prepend=-1) != 0
    docs = cols[starts]  # active documents
    local = np.cumsum(starts) - 1  # each entry's position in docs
    topics = np.arange(n_topics)
    bins = (local[:, None] * n_topics + topics).ravel()  # flat (doc, topic) of q
    pw = np.ascontiguousarray(word_given_topic[:, rows].T)
    mix = theta[docs]
    for _ in range(max_iters):
        if not len(docs):
            break
        q = pw * mix.take(local, axis=0)
        scale = q.sum(axis=1)
        np.maximum(scale, _TINY, out=scale)
        np.divide(vals, scale, out=scale)
        q *= scale[:, None]
        new = np.bincount(bins, weights=q.ravel(), minlength=mix.size
                          ).reshape(mix.shape)
        total = new.sum(axis=1, keepdims=True)
        np.divide(new, total, out=new, where=total > 0.0)
        new[total[:, 0] <= 0.0] = 1.0 / n_topics
        done = np.abs(new - mix).max(axis=1) < tol
        mix = new
        if done.any():
            theta[docs[done]] = mix[done]
            keep = ~done
            entries = keep[local]
            docs, mix = docs[keep], mix[keep]
            local = (np.cumsum(keep) - 1)[local[entries]]
            bins = (local[:, None] * n_topics + topics).ravel()
            pw, vals = pw[entries], vals[entries]
    theta[docs] = mix
