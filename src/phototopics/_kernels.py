"""Hot numeric kernels for EM training and folding-in.

Folding-in is the training EM with P(w|z) held fixed, so both share one
topic-major posterior and one document M-step. Sums run in a fixed
order: a document gets the same bits on every run, alone or batched.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).tiny
# Elements of one (K, entries) array of a fold-in block: 2 MiB of float64.
_BLOCK_ELEMENTS = 1 << 18


def em_sufficient_stats(rows, cols, vals, word_given_topic, doc_mixtures):
    """E-step posteriors accumulated into M-step sufficient statistics.

    Entry ``i`` gives word ``rows[i]`` the weight ``vals[i]`` in document
    ``cols[i]``; the entries must be sorted by document, as a
    ``CooccurrenceMatrix`` keeps them. Returns (nwz, nzd, nz, ll) where
    ll is the log-likelihood of the *input* parameters over the entries.

    Each ``bincount`` scatter runs over one contiguous topic row of the
    posterior and adds in input order, as a per-entry loop would.
    ``nzd`` is returned as the N x K transpose view of a (K, N) array,
    the layout ``doc_m_step`` normalizes.
    """
    n_words = word_given_topic.shape[1]
    q, safe = _posterior(cols, doc_mixtures.T,
                         (w.take(rows) for w in word_given_topic))
    ll = _log_likelihood(vals, safe)
    q *= vals / safe
    nwz = np.empty((len(q), n_words))
    for k, q_k in enumerate(q):
        nwz[k] = np.bincount(rows, weights=q_k, minlength=n_words)
    nz = q.sum(axis=1)
    return nwz, _doc_totals(q, cols, doc_mixtures.shape[0]).T, nz, ll


def em_log_likelihood(rows, cols, vals, word_given_topic, doc_mixtures):
    """The ``ll`` of ``em_sufficient_stats`` for the same input, computed
    the same way but without the scatters."""
    return _log_likelihood(vals, _posterior(
        cols, doc_mixtures.T, (w.take(rows) for w in word_given_topic))[1])


def doc_m_step(topic_doc):
    """The M-step of the document mixtures: each column of the (K, N)
    topic totals divided by its sum, in place; a document without mass
    gets the uniform mixture. Returns ``topic_doc``."""
    mass = _row_sum(topic_doc)
    empty = mass <= 0.0
    np.maximum(mass, _TINY, out=mass)
    topic_doc /= mass
    np.copyto(topic_doc, 1.0 / len(topic_doc), where=empty)
    return topic_doc


def _posterior(cols, doc_topic, pw_rows):
    """The unnormalized (K, nnz) posterior P(z|d) P(w|z) of entries sorted
    by document, and each entry's normalizer, floored at ``_TINY``.

    ``cols`` is each entry's document, ``doc_topic`` the (K, N) mixtures
    and ``pw_rows`` yields, topic by topic, P(w|z) of each entry's word.
    P(z|d) is gathered for all topics at once, by repeating each
    document's column once per entry; on a C-contiguous ``doc_topic``
    nothing is copied first.
    """
    per_doc = np.bincount(cols, minlength=doc_topic.shape[1])
    q = np.repeat(np.ascontiguousarray(doc_topic), per_doc, axis=1)
    for q_k, pw_k in zip(q, pw_rows):
        q_k *= pw_k
    safe = _row_sum(q)
    np.maximum(safe, _TINY, out=safe)
    return q, safe


def _doc_totals(q, cols, n_docs):
    """Each document's posterior mass per topic, as a (K, n_docs) array;
    a document's entries are added in input order."""
    totals = np.empty((len(q), n_docs))
    for k, q_k in enumerate(q):
        totals[k] = np.bincount(cols, weights=q_k, minlength=n_docs)
    return totals


def _row_sum(a):
    """The rows of a C-contiguous (K, n) array added in row order, as
    ``a.sum(axis=0)`` adds them for n > 1; numpy sums one column pairwise,
    which would give a lone entry or document other bits."""
    return a.sum(axis=0) if a.shape[1] != 1 else np.cumsum(a, axis=0)[-1]


def _log_likelihood(vals, safe):
    return float(np.sum(vals * np.log(safe)))


def fold_in_kernel(rows, vals, word_given_topic, max_iters, tol,
                   cols=None, n_docs=1):
    """EM on every document's topic mixture with P(w|z) frozen.

    Entry ``i`` gives word ``rows[i]`` the weight ``vals[i]`` in document
    ``cols[i]``; without ``cols`` every entry is in document 0. Returns
    the ``(n_docs, K)`` mixtures. A document without entries, or whose
    weights are all 0, keeps the uniform mixture.

    One iteration from uniform mixtures gives ``em_step``'s bits. Documents
    do not interact, so they are folded in together, in blocks of whole
    documents holding about ``_BLOCK_ELEMENTS / K`` entries each, which
    bounds the memory the ``(K, entries)`` arrays take on a large input.
    The entries must be sorted by document, as a ``CooccurrenceMatrix``
    keeps them.
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
    """Fold in the documents of one block, whose entries are sorted by
    document, and write their mixtures into ``theta``.

    P(w|z) of the block's entries is gathered once, topic-major. All
    documents are updated at once, and each one stops on its own once no
    topic moved by ``tol`` or more; its entries then leave the arrays.
    """
    docs, per_doc = np.unique(cols, return_counts=True)  # active documents
    doc_of = np.repeat(np.arange(len(docs)), per_doc)  # each entry's position in docs
    pw = word_given_topic[:, rows]
    mix = theta[docs].T
    for _ in range(max_iters):
        if not len(docs):
            break
        q, safe = _posterior(doc_of, mix, pw)
        q *= vals / safe
        new = doc_m_step(_doc_totals(q, doc_of, len(docs)))
        done = np.abs(new - mix).max(axis=0) < tol
        mix = new
        if done.any():
            theta[docs[done]] = mix[:, done].T
            keep = ~done
            entries = keep[doc_of]
            docs, per_doc, mix = docs[keep], per_doc[keep], mix[:, keep]
            doc_of = np.repeat(np.arange(len(docs)), per_doc)
            pw, vals = pw[:, entries], vals[entries]
    theta[docs] = mix.T
