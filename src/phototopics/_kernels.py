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
    per_doc = np.bincount(cols, minlength=doc_mixtures.shape[0])
    q, safe = _posterior(per_doc, doc_mixtures.T,
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
    per_doc = np.bincount(cols, minlength=doc_mixtures.shape[0])
    return _log_likelihood(vals, _posterior(
        per_doc, doc_mixtures.T, (w.take(rows) for w in word_given_topic))[1])


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


def _posterior(per_doc, doc_topic, pw_rows):
    """The unnormalized (K, nnz) posterior P(z|d) P(w|z) of entries sorted
    by document, and each entry's normalizer, floored at ``_TINY``.

    ``per_doc`` is each document's number of entries, ``doc_topic`` the
    (K, N) mixtures and ``pw_rows`` yields, topic by topic, P(w|z) of each
    entry's word. P(z|d) is gathered for all topics at once, by repeating
    each document's column once per entry; on a C-contiguous
    ``doc_topic`` nothing is copied first.
    """
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
    keeps them, so each document's entries and each block's cut follow
    from the documents' entry counts alone.
    """
    n_topics = word_given_topic.shape[0]
    theta = np.full((n_docs, n_topics), 1.0 / n_topics)
    if cols is None:
        cols = np.zeros(len(rows), dtype=np.int64)
    per_doc = np.bincount(cols, minlength=n_docs)
    docs = np.flatnonzero(per_doc)  # the documents with entries
    per_doc = per_doc[docs]
    ends = np.cumsum(per_doc)
    starts = ends - per_doc
    per_block = max(1, _BLOCK_ELEMENTS // n_topics)
    # a block starts with the first document of each new span of per_block entries
    cuts = np.flatnonzero(np.diff(starts // per_block, prepend=-1)).tolist()
    for a, b in zip(cuts, [*cuts[1:], len(docs)]):
        lo, hi = starts[a], ends[b - 1]
        _fold_in_block(rows[lo:hi], vals[lo:hi], word_given_topic, max_iters,
                       tol, theta, docs[a:b], per_doc[a:b])
    return theta


def _fold_in_block(rows, vals, word_given_topic, max_iters, tol, theta,
                   docs, per_doc):
    """Fold in the documents ``docs`` of one block, whose entries are
    sorted by document, ``per_doc`` of them each, and write their
    mixtures into ``theta``.

    P(w|z) of the block's entries is gathered once, topic-major. All
    documents are updated at once, and each one stops on its own once no
    topic moved by ``tol`` or more; its entries then leave the arrays.
    Each iteration adds up the documents' topic totals with one
    ``bincount`` over the flat bins ``k * len(docs) + doc``: a bin gets
    its terms in entry order, as a ``bincount`` per topic adds them. The
    bins take as much memory as the block's posterior, which
    ``_BLOCK_ELEMENTS`` bounds; training, whose posterior spans every
    entry, scatters one topic at a time instead (``_doc_totals``).
    """
    n_topics = len(word_given_topic)
    pw = word_given_topic.take(rows, axis=1)
    mix = np.full((n_topics, len(docs)), 1.0 / n_topics)
    bins = _topic_major_bins(n_topics, per_doc)
    for _ in range(max_iters):
        q, safe = _posterior(per_doc, mix, pw)
        q *= vals / safe
        new = doc_m_step(np.bincount(bins, weights=q.ravel(), minlength=mix.size)
                         .reshape(mix.shape))
        done = np.abs(new - mix).max(axis=0) < tol
        mix = new
        n_done = np.count_nonzero(done)
        if n_done == len(docs):
            break
        if n_done:
            theta[docs[done]] = mix[:, done].T
            keep = ~done
            entries = np.repeat(keep, per_doc)
            docs, per_doc, mix = docs[keep], per_doc[keep], mix[:, keep]
            bins = _topic_major_bins(n_topics, per_doc)
            pw, vals = pw[:, entries], vals[entries]
    theta[docs] = mix.T


def _topic_major_bins(n_topics, per_doc):
    """The flat (K * entries) bin of each posterior term: ``k * n + doc``
    for topic ``k`` of an entry of document ``doc`` of ``n``, repeated as
    ``_posterior`` repeats P(z|d)."""
    n = len(per_doc)
    grid = np.arange(n_topics * n).reshape(n_topics, n)
    return np.repeat(grid, per_doc, axis=1).ravel()
