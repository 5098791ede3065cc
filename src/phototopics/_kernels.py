"""Hot numeric kernels for EM training and folding-in.

Folding-in is the training EM with P(w|z) held fixed, so both run one
E-step over the same blocks of whole documents. A document's sums run
in a fixed order over its own entries: it gets the same bits on every
run, alone or batched, and each document total is one ``reduceat``.
Every M-step, of P(w|z), P(z|d) and P(z), is one ``m_step``.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).tiny
# Elements of one (K, entries) array of a block: 2 MiB of float64.
_BLOCK_ELEMENTS = 1 << 18


def em_sufficient_stats(rows, cols, vals, word_given_topic, doc_mixtures):
    """E-step posteriors accumulated into M-step sufficient statistics.

    Entry ``i`` gives word ``rows[i]`` the weight ``vals[i]`` in document
    ``cols[i]``; the entries must be sorted by document, as a
    ``CooccurrenceMatrix`` keeps them. Returns (nwz, nzd, nz, ll): ll is
    the log-likelihood of the *input* parameters over the entries, the
    package's only one; ``nzd`` is the N x K transpose view of a (K, N)
    array, the layout ``m_step`` normalizes.
    """
    n_topics, n_words = word_given_topic.shape
    nwz = np.zeros((n_topics, n_words))
    nzd = np.zeros((n_topics, len(doc_mixtures)))
    ll = 0.0
    for docs, rows_b, vals_b, per_doc, starts in _blocks(
            rows, cols, vals, len(doc_mixtures), n_topics):
        q, safe = _posterior(per_doc, doc_mixtures.T[:, docs],
                             word_given_topic.take(rows_b, axis=1))
        ll += float(np.sum(vals_b * np.log(safe)))
        q *= vals_b / safe
        nzd[:, docs] = np.add.reduceat(q, starts, axis=1)
        for k, q_k in enumerate(q):
            nwz[k] += np.bincount(rows_b, weights=q_k, minlength=n_words)
    return nwz, nzd.T, nwz.sum(axis=1), ll


def m_step(counts):
    """The M-step: each column of the 2-D expected ``counts`` divided by
    its sum, in place; a column without mass gets the uniform value
    ``1 / len(counts)``. Returns ``counts``."""
    mass = _row_sum(counts)
    empty = mass <= 0.0
    np.maximum(mass, _TINY, out=mass)
    counts /= mass
    np.copyto(counts, 1.0 / len(counts), where=empty)
    return counts


def _blocks(rows, cols, vals, n_docs, n_topics):
    """Yield the documents with entries in blocks of whole documents of
    about ``_BLOCK_ELEMENTS / K`` entries, which bounds the memory of a
    block's (K, entries) arrays: the block's documents (a slice when
    consecutive), rows and values, and each document's entry count and
    first entry in the block. Entries must be sorted by document."""
    per_doc = np.bincount(cols, minlength=n_docs)
    docs = np.flatnonzero(per_doc)
    per_doc = per_doc[docs]
    ends = np.cumsum(per_doc)
    starts = ends - per_doc
    per_block = max(1, _BLOCK_ELEMENTS // n_topics)
    # a block starts with the first document of each new span of per_block entries
    cuts = np.flatnonzero(np.diff(starts // per_block, prepend=-1)).tolist()
    for a, b in zip(cuts, [*cuts[1:], len(docs)]):
        selected = docs[a:b]
        if selected[-1] - selected[0] == b - a - 1:
            selected = slice(selected[0], selected[-1] + 1)
        lo, hi = starts[a], ends[b - 1]
        yield (selected, rows[lo:hi], vals[lo:hi], per_doc[a:b],
               starts[a:b] - lo)


def _posterior(per_doc, doc_topic, pw):
    """The unnormalized (K, entries) posterior P(z|d) P(w|z), from the
    (K, n_docs) mixtures repeated over each document's ``per_doc``
    entries times their (K, entries) P(w|z) ``pw``, and each entry's
    normalizer, floored at ``_TINY``."""
    q = np.repeat(doc_topic, per_doc, axis=1)
    q *= pw
    safe = _row_sum(q)
    np.maximum(safe, _TINY, out=safe)
    return q, safe


def _row_sum(a):
    """The rows of a 2-D array added. For n > 1 columns this is
    ``a.sum(axis=0)``, whose order follows the layout: row order for a
    C-contiguous (K, n) array, numpy's pairwise order down each column of
    a transposed one such as the (M, K) view of P(w|z). A lone column is
    added in row order; ``sum`` would add it pairwise, which would give a
    lone entry or document other bits."""
    return a.sum(axis=0) if a.shape[1] != 1 else np.cumsum(a, axis=0)[-1]


def fold_in_kernel(rows, vals, word_given_topic, max_iters, tol,
                   cols=None, n_docs=1):
    """EM on every document's topic mixture with P(w|z) frozen.

    Entry ``i`` gives word ``rows[i]`` the weight ``vals[i]`` in document
    ``cols[i]``; without ``cols`` every entry is in document 0. The
    entries must be sorted by document. Returns the ``(n_docs, K)``
    mixtures. A document without entries, or whose weights are all 0,
    keeps the uniform mixture. One iteration from uniform mixtures gives
    ``em_step``'s bits. Documents do not interact, so each block is
    folded in as one batch.
    """
    n_topics = word_given_topic.shape[0]
    theta = np.full((n_docs, n_topics), 1.0 / n_topics)
    if cols is None:
        cols = np.zeros(len(rows), dtype=np.int64)
    for docs, rows_b, vals_b, per_doc, starts in _blocks(rows, cols, vals,
                                                         n_docs, n_topics):
        theta[docs] = _fold_in_block(word_given_topic.take(rows_b, axis=1),
                                     vals_b, per_doc, starts, max_iters, tol).T
    return theta


def _fold_in_block(pw, vals, per_doc, starts, max_iters, tol):
    """The (K, n_docs) mixtures of one block's documents. All are updated
    at once, and each stops on its own once no topic moved by ``tol`` or
    more; its entries then leave the arrays."""
    out = mix = np.full((len(pw), len(per_doc)), 1.0 / len(pw))
    active = np.arange(len(per_doc))  # the columns of out still updated
    for _ in range(max_iters):
        q, safe = _posterior(per_doc, mix, pw)
        q *= vals / safe
        new = m_step(np.add.reduceat(q, starts, axis=1))
        done = np.abs(new - mix).max(axis=0) < tol
        mix = new
        n_done = np.count_nonzero(done)
        if n_done == len(active):
            break
        if n_done:
            out[:, active[done]] = mix[:, done]
            keep = ~done
            entries = np.repeat(keep, per_doc)
            active, per_doc, mix = active[keep], per_doc[keep], mix[:, keep]
            starts = np.cumsum(per_doc) - per_doc
            pw, vals = pw[:, entries], vals[entries]
    out[:, active] = mix
    return out
