"""pLSA training by EM, folding-in inference and dominant-topic assignment.

The model decomposes each document's word distribution as
P(w|d) = sum_k P(z_k|d) P(w|z_k). Training estimates P(z), P(w|z) and
P(z|d) by EM over the sparse co-occurrence matrix; unseen documents get
a mixture via the folding-in heuristic (P(w|z) frozen, only the document
mixture updated).
"""

from __future__ import annotations

import json
import math
import warnings
from itertools import chain

import numpy as np

from . import _kernels
from .corpus import CooccurrenceMatrix, Vocabulary, check_count, check_number, decode_json
from .exceptions import NumericError, ValidationError

DEFAULT_TOPICS = 8
DEFAULT_MAX_ITERS = 200
DEFAULT_TOL = 1e-6
DEFAULT_SMOOTHING = 1e-10
DEFAULT_NULL_THRESHOLD = 0.035
DEFAULT_TOP_WORDS = 10
FOLD_IN_MAX_ITERS = 200
FOLD_IN_TOL = 1e-10
ROW_SUM_ATOL = 1e-9

MODEL_FORMAT_VERSION = 1


def _numbers(value, name: str, ndim: int) -> np.ndarray:
    """A JSON list (of lists if ``ndim`` is 2) of numbers, not bools, as floats."""
    items = chain.from_iterable(value) if ndim == 2 else value
    if not set(map(type, items)) <= {int, float}:
        raise ValidationError(f"{name} must hold only numbers")
    return np.array(value, dtype=np.float64)


class PlsaModel:
    """Fitted pLSA parameters.

    ``word_given_topic`` is K x M, K and M > 0 (each row a distribution
    over words), ``doc_mixtures`` is N x K (each row a distribution over
    topics for a training document), ``topic_prior`` is the length-K P(z).
    Other shapes and a ``vocab_hash`` that is not a ``str`` raise
    ``ValidationError``; ``validate()`` checks the values.
    """

    def __init__(self, word_given_topic: np.ndarray, doc_mixtures: np.ndarray,
                 topic_prior: np.ndarray, seed: int, vocab_hash: str = "",
                 n_iters: int = 0, final_log_likelihood: float = float("nan")):
        self.word_given_topic = np.asarray(word_given_topic, dtype=np.float64)
        self.doc_mixtures = np.asarray(doc_mixtures, dtype=np.float64)
        self.topic_prior = np.asarray(topic_prior, dtype=np.float64)
        shape = self.word_given_topic.shape
        if len(shape) != 2 or 0 in shape:
            raise ValidationError("word_given_topic must be a non-empty K x M matrix")
        if self.doc_mixtures.shape[1:] != shape[:1] or self.topic_prior.shape != shape[:1]:
            raise ValidationError(f"doc_mixtures must be N x {shape[0]} and "
                                  f"topic_prior of length {shape[0]}")
        if not isinstance(vocab_hash, str):
            raise ValidationError("vocab_hash must be a string")
        self.seed = check_count(seed, "seed")
        self.vocab_hash = vocab_hash
        self.n_iters = check_count(n_iters, "n_iters")
        self.final_log_likelihood = final_log_likelihood

    @property
    def n_topics(self) -> int:
        return self.word_given_topic.shape[0]

    @property
    def n_words(self) -> int:
        return self.word_given_topic.shape[1]

    def validate(self) -> None:
        for name, arr in (("word_given_topic", self.word_given_topic),
                          ("doc_mixtures", self.doc_mixtures),
                          ("topic_prior", self.topic_prior)):
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite entry in {name}")
            if np.any(arr < 0):
                raise NumericError(f"negative entry in {name}")
        for name, arr in (("word_given_topic", self.word_given_topic),
                          ("doc_mixtures", self.doc_mixtures)):
            if arr.size and np.max(np.abs(arr.sum(axis=1) - 1.0)) > ROW_SUM_ATOL:
                raise NumericError(f"row of {name} does not sum to 1")
        if abs(self.topic_prior.sum() - 1.0) > ROW_SUM_ATOL:
            raise NumericError("topic_prior does not sum to 1")

    def to_json(self) -> str:
        """Model as JSON; a non-finite log-likelihood is written as null."""
        ll = self.final_log_likelihood
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "n_topics": self.n_topics,
            "n_words": self.n_words,
            "seed": self.seed,
            "vocab_hash": self.vocab_hash,
            "n_iters": self.n_iters,
            "final_log_likelihood": ll if math.isfinite(ll) else None,
            "topic_prior": self.topic_prior.tolist(),
            "word_given_topic": self.word_given_topic.tolist(),
            "doc_mixtures": self.doc_mixtures.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PlsaModel":
        """Parse and validate a saved model.

        Text ``decode_json`` rejects, a ``format_version`` other than
        ``MODEL_FORMAT_VERSION``, shapes the constructor rejects or that
        are not ``n_topics`` x ``n_words``, a ``seed`` or ``n_iters`` that
        is not an integer >= 0, a ``final_log_likelihood`` that is neither
        null nor a finite number and parameters that are not JSON numbers
        or fail ``validate()`` raise ``ValidationError``.
        """
        payload = decode_json(text, "model")
        try:
            version = payload.get("format_version")
            sizes = tuple(check_count(payload[name], name, 1)
                          for name in ("n_topics", "n_words"))
            doc_mixtures = payload.get("doc_mixtures") or np.zeros((0, sizes[0]))
            ll = payload.get("final_log_likelihood")
            model = cls(
                word_given_topic=_numbers(payload["word_given_topic"],
                                          "word_given_topic", 2),
                doc_mixtures=_numbers(doc_mixtures, "doc_mixtures", 2),
                topic_prior=_numbers(payload["topic_prior"], "topic_prior", 1),
                seed=payload["seed"],
                vocab_hash=payload.get("vocab_hash", ""),
                n_iters=payload["n_iters"],
                final_log_likelihood=(float("nan") if ll is None
                                      else check_number(ll, "final_log_likelihood")),
            )
        except ValidationError as exc:
            raise ValidationError(f"malformed model: {exc}") from exc
        except (ValueError, OverflowError, KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"malformed model: {exc!r}") from exc
        if version != MODEL_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported model format_version {version!r} "
                f"(expected {MODEL_FORMAT_VERSION})")
        if sizes != model.word_given_topic.shape:
            raise ValidationError(
                f"malformed model: n_topics and n_words {sizes!r} are not the shape "
                f"of word_given_topic, {model.n_topics} x {model.n_words}")
        try:
            model.validate()
        except NumericError as exc:
            raise ValidationError(f"invalid model: {exc}") from exc
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path) -> "PlsaModel":
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"model file is not UTF-8 text: {exc}") from exc
        return cls.from_json(text)


def init_model(n_topics: int, n_words: int, seed: int,
               n_docs: int = 0) -> PlsaModel:
    """Seeded random topic-word rows, uniform document mixtures."""
    n_topics = check_count(n_topics, "n_topics", 1)
    n_words = check_count(n_words, "n_words", 1)
    seed, n_docs = check_count(seed, "seed"), check_count(n_docs, "n_docs")
    rng = np.random.default_rng(seed)
    word_given_topic = _kernels.m_step((rng.random((n_topics, n_words)) + 1e-3).T).T
    doc_mixtures = np.full((n_topics, n_docs), 1.0 / n_topics).T  # topic-major
    topic_prior = np.full(n_topics, 1.0 / n_topics)
    return PlsaModel(word_given_topic, doc_mixtures, topic_prior, seed=seed)


def log_likelihood(model: PlsaModel, X: CooccurrenceMatrix) -> float:
    """Sum of X(w,d) * log P(w|d); zero-probability terms are floored.

    It is the log-likelihood of one E-step, the one ``em_step`` reports
    for the same model; the step's totals are discarded.
    """
    return _kernels.em_sufficient_stats(*_kernel_args(model, X))[3]


def _check_words(model: PlsaModel, X: CooccurrenceMatrix) -> None:
    if X.n_words != model.n_words:
        raise ValidationError(
            f"matrix has {X.n_words} words but model expects {model.n_words}")


def _kernel_args(model: PlsaModel, X: CooccurrenceMatrix):
    """The E-step kernel's arguments for ``model`` over ``X``."""
    _check_words(model, X)
    if X.n_docs != model.doc_mixtures.shape[0]:
        raise ValidationError(
            f"matrix has {X.n_docs} docs but model carries "
            f"{model.doc_mixtures.shape[0]} mixtures")
    return X.rows, X.cols, X.vals, model.word_given_topic, model.doc_mixtures


def em_step(model: PlsaModel, X: CooccurrenceMatrix,
            smoothing: float = DEFAULT_SMOOTHING) -> tuple[PlsaModel, float]:
    """One EM iteration; returns the new model and the log-likelihood of
    the *input* model.

    E-step: P(z|d,w) proportional to P(z|d) P(w|z). M-step: ``m_step``
    renormalizes the posterior-weighted counts of each distribution, with
    ``smoothing`` (a pseudo-count >= 0) added to those of P(w|z). A topic,
    a document or a prior without mass is reset to uniform.

    The new mixtures are the transpose of a topic-major (K, N) array, the
    layout the kernel gathers them from in the next step.
    """
    smoothing = check_number(smoothing, "smoothing", "[0, inf)")
    if not math.isfinite(smoothing * model.n_words):  # a topic's smoothed total
        raise ValidationError(f"smoothing times the {model.n_words} words must be "
                              f"finite; got {smoothing!r}")
    nwz, nzd, nz, ll = _kernels.em_sufficient_stats(*_kernel_args(model, X))
    for k in np.flatnonzero(nz + smoothing <= 0):  # the rows m_step resets
        warnings.warn(f"topic {k} lost all mass; reset to uniform",
                      RuntimeWarning, stacklevel=2)
    # m_step normalizes columns: one per topic of the (M, K) transpose of
    # the smoothed counts, one per document of the (K, N) totals, and P(z)
    # as one (K, 1) column. Smoothing in place keeps P(w|z) in the array the
    # kernel took before the E-step's blocks: a new array per step moves the
    # heap layout, and with it how often the E-step's blocks page-fault.
    nwz += smoothing
    new_model = PlsaModel(_kernels.m_step(nwz.T).T,
                          _kernels.m_step(nzd.T).T,
                          _kernels.m_step(nz[:, None])[:, 0],
                          seed=model.seed, vocab_hash=model.vocab_hash)
    return new_model, ll


def train(X: CooccurrenceMatrix, *, n_topics: int = DEFAULT_TOPICS,
          max_iters: int = DEFAULT_MAX_ITERS, tol: float = DEFAULT_TOL,
          seed: int = 0, vocab: Vocabulary | None = None) -> PlsaModel:
    """Run EM until the relative log-likelihood change drops below ``tol``;
    a ``vocab``, which must have ``X.n_words`` words, stamps its hash."""
    n_topics = check_count(n_topics, "n_topics", 1)
    max_iters = check_count(max_iters, "max_iters", 1)
    seed, tol = check_count(seed, "seed"), check_number(tol, "tol", "(0, inf)")
    if X.n_docs == 0:
        raise ValidationError("cannot train on an empty corpus")
    if X.n_words == 0:
        raise ValidationError("cannot train with an empty vocabulary")
    model = init_model(n_topics, X.n_words, seed, n_docs=X.n_docs)
    if vocab is not None:
        check_vocabulary(model, vocab)
        model.vocab_hash = vocab.digest()
    prev_ll = None
    for n_iters in range(1, max_iters + 1):
        model, ll = em_step(model, X)
        if prev_ll is not None and abs(ll - prev_ll) / max(abs(prev_ll), 1.0) < tol:
            break
        prev_ll = ll
    model.n_iters = n_iters
    model.final_log_likelihood = log_likelihood(model, X)
    if not np.isfinite(model.final_log_likelihood):
        raise NumericError("non-finite log-likelihood after training")
    return model


def fold_in(model: PlsaModel, X: CooccurrenceMatrix) -> np.ndarray:
    """Topic mixtures of the unseen documents of ``X`` as an ``(X.n_docs, K)``
    array, all folded in together; the model is not modified.

    Each document is folded in on its own terms, so its mixture does not
    depend on the other columns of ``X``. A document without entries
    folds in to the uniform mixture.
    """
    _check_words(model, X)
    return _kernels.fold_in_kernel(X.rows, X.vals, model.word_given_topic,
                                   FOLD_IN_MAX_ITERS, FOLD_IN_TOL,
                                   X.cols, X.n_docs)


def assign_topics(mixtures, threshold: float = DEFAULT_NULL_THRESHOLD
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Argmax topic of each row of the ``(n, K)`` mixtures (ties to the
    lowest index), or -1 where the row's maximum is below threshold.

    Returns ``(topics, max_probs)``, both of length n.
    """
    threshold = check_number(threshold, "threshold", "[0, 1]")
    try:
        mixtures = np.asarray(mixtures, dtype=np.float64)
        if mixtures.ndim != 2 or not mixtures.shape[1]:
            raise ValueError(f"got shape {mixtures.shape}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"mixtures must be an (n, K) array of numbers, "
                              f"K >= 1: {exc}") from exc
    sums = mixtures.sum(axis=1)
    off = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-6))  # a NaN sum is off too
    if len(off):
        raise ValidationError(f"mixture sums to {sums[off[0]]}, expected 1")
    max_probs = mixtures.max(axis=1)
    topics = np.argmax(mixtures, axis=1)
    return np.where(max_probs < threshold, -1, topics), max_probs


def assign_topic(mixture, threshold: float = DEFAULT_NULL_THRESHOLD
                 ) -> tuple[int | None, float]:
    """Argmax topic (ties to the lowest index), or None below threshold;
    ``assign_topics`` over one mixture."""
    topics, max_probs = assign_topics([mixture], threshold)
    topic = int(topics[0])
    return (None if topic < 0 else topic), float(max_probs[0])


def check_vocabulary(model: PlsaModel, vocab: Vocabulary) -> None:
    """Reject a vocabulary the model was not trained against.

    Word indices are positions in the vocabulary, so a vocabulary of
    another size or order would silently misalign every word. The hash
    is compared only when the model records one.
    """
    if vocab.size != model.n_words:
        raise ValidationError(
            f"vocabulary has {vocab.size} words but model expects {model.n_words}")
    if model.vocab_hash and model.vocab_hash != vocab.digest():
        raise ValidationError(
            "model was trained against a different vocabulary "
            f"(hash {model.vocab_hash[:12]}... != {vocab.digest()[:12]}...)")


def top_words(model: PlsaModel, vocab: Vocabulary, topic: int,
              n_top: int = DEFAULT_TOP_WORDS) -> list[tuple[str, float]]:
    """Highest-probability words of one topic, ties broken lexicographically."""
    topic, n_top = check_count(topic, "topic"), check_count(n_top, "n_top", 1)
    if topic >= model.n_topics:
        raise ValidationError(f"topic {topic} out of range for {model.n_topics} topics")
    check_vocabulary(model, vocab)
    probs = model.word_given_topic[topic]
    order = np.lexsort((vocab.rank, -probs))[:n_top]
    return [(vocab.words[i], float(probs[i])) for i in order]
