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
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .corpus import CooccurrenceMatrix, Vocabulary
from .exceptions import NumericError, ValidationError

DEFAULT_TOPICS = 8
DEFAULT_MAX_ITERS = 200
DEFAULT_TOL = 1e-6
DEFAULT_SMOOTHING = 1e-10
DEFAULT_NULL_THRESHOLD = 0.035
DEFAULT_TOP_WORDS = 10

MODEL_FORMAT_VERSION = 1

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class TrainConfig:
    n_topics: int = DEFAULT_TOPICS
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    seed: int = 0
    smoothing: float = DEFAULT_SMOOTHING

    def __post_init__(self):
        if self.n_topics < 1:
            raise ValidationError("n_topics must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValidationError(f"tol must be finite and > 0; got {self.tol!r}")
        if not 0 <= self.smoothing < math.inf:
            raise ValidationError(
                f"smoothing must be finite and >= 0; got {self.smoothing!r}")


class PlsaModel:
    """Fitted pLSA parameters.

    ``word_given_topic`` is K x M (each row a distribution over words),
    ``doc_mixtures`` is N x K (each row a distribution over topics for a
    training document), ``topic_prior`` is the length-K P(z).
    """

    def __init__(self, word_given_topic: np.ndarray, doc_mixtures: np.ndarray,
                 topic_prior: np.ndarray, seed: int, vocab_hash: str = "",
                 n_iters: int = 0, final_log_likelihood: float = float("nan")):
        self.word_given_topic = np.asarray(word_given_topic, dtype=np.float64)
        self.doc_mixtures = np.asarray(doc_mixtures, dtype=np.float64)
        self.topic_prior = np.asarray(topic_prior, dtype=np.float64)
        self.seed = int(seed)
        self.vocab_hash = vocab_hash
        self.n_iters = n_iters
        self.final_log_likelihood = final_log_likelihood

    @property
    def n_topics(self) -> int:
        return self.word_given_topic.shape[0]

    @property
    def n_words(self) -> int:
        return self.word_given_topic.shape[1]

    def validate(self, atol: float = 1e-9) -> None:
        for name, arr in (("word_given_topic", self.word_given_topic),
                          ("doc_mixtures", self.doc_mixtures),
                          ("topic_prior", self.topic_prior)):
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite entry in {name}")
            if np.any(arr < 0):
                raise NumericError(f"negative entry in {name}")
        for name, arr in (("word_given_topic", self.word_given_topic),
                          ("doc_mixtures", self.doc_mixtures)):
            if arr.size and np.max(np.abs(arr.sum(axis=1) - 1.0)) > atol:
                raise NumericError(f"row of {name} does not sum to 1")
        if abs(self.topic_prior.sum() - 1.0) > atol:
            raise NumericError("topic_prior does not sum to 1")

    def to_json(self, include_doc_mixtures: bool = True) -> str:
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
        }
        if include_doc_mixtures:
            payload["doc_mixtures"] = self.doc_mixtures.tolist()
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PlsaModel":
        """Parse and validate a saved model.

        Malformed text, a ``format_version`` other than
        ``MODEL_FORMAT_VERSION``, inconsistent shapes and parameters that
        fail ``validate()`` all raise ``ValidationError``.
        """
        try:
            payload = json.loads(text)
            version = payload.get("format_version")
            doc_mixtures = payload.get("doc_mixtures")
            n_topics = payload["n_topics"]
            if not doc_mixtures:
                doc_mixtures = np.zeros((0, n_topics))
            ll = payload.get("final_log_likelihood")
            model = cls(
                word_given_topic=np.array(payload["word_given_topic"], dtype=np.float64),
                doc_mixtures=np.array(doc_mixtures, dtype=np.float64),
                topic_prior=np.array(payload["topic_prior"], dtype=np.float64),
                seed=payload["seed"],
                vocab_hash=payload.get("vocab_hash", ""),
                n_iters=payload.get("n_iters", 0),
                final_log_likelihood=float("nan") if ll is None else float(ll),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"malformed model: {exc!r}") from exc
        if version != MODEL_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported model format_version {version!r} "
                f"(expected {MODEL_FORMAT_VERSION})")
        shape = model.word_given_topic.shape
        if len(shape) != 2 or 0 in shape:
            raise ValidationError("malformed model: word_given_topic must be a "
                                  "non-empty K x M matrix")
        if (model.doc_mixtures.shape[1:] != shape[:1]
                or model.topic_prior.shape != shape[:1]):
            raise ValidationError(
                f"malformed model: doc_mixtures must be N x {shape[0]} and "
                f"topic_prior of length {shape[0]}")
        try:
            model.validate()
        except NumericError as exc:
            raise ValidationError(f"invalid model: {exc}") from exc
        return model

    def save(self, path, include_doc_mixtures: bool = True) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json(include_doc_mixtures=include_doc_mixtures))

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
    if n_topics < 1 or n_words < 1:
        raise ValidationError("n_topics and n_words must be >= 1")
    rng = np.random.default_rng(seed)
    word_given_topic = rng.random((n_topics, n_words)) + 1e-3
    word_given_topic /= word_given_topic.sum(axis=1, keepdims=True)
    doc_mixtures = np.full((n_docs, n_topics), 1.0 / n_topics)
    topic_prior = np.full(n_topics, 1.0 / n_topics)
    return PlsaModel(word_given_topic, doc_mixtures, topic_prior, seed=seed)


def log_likelihood(model: PlsaModel, X: CooccurrenceMatrix) -> float:
    """Sum of X(w,d) * log P(w|d); zero-probability terms are floored.

    This is the ``ll`` the E-step kernel computes, so it equals the
    log-likelihood ``em_step`` reports for the same model.
    """
    return _sufficient_stats(model, X)[3]


def _sufficient_stats(model: PlsaModel, X: CooccurrenceMatrix):
    """The E-step kernel's ``(nwz, nzd, nz, ll)`` for ``model`` over ``X``."""
    if X.n_words != model.n_words:
        raise ValidationError(
            f"matrix has {X.n_words} words but model expects {model.n_words}")
    if X.n_docs != model.doc_mixtures.shape[0]:
        raise ValidationError(
            f"matrix has {X.n_docs} docs but model carries "
            f"{model.doc_mixtures.shape[0]} mixtures")
    return _kernels.em_sufficient_stats(
        X.rows, X.cols, X.vals, model.word_given_topic, model.doc_mixtures)


def em_step(model: PlsaModel, X: CooccurrenceMatrix,
            smoothing: float = DEFAULT_SMOOTHING) -> tuple[PlsaModel, float]:
    """One EM iteration; returns the new model and the log-likelihood of
    the *input* model.

    E-step: P(z|d,w) proportional to P(z|d) P(w|z). M-step renormalizes
    the posterior-weighted counts; ``smoothing`` is added to the P(w|z)
    numerators. A topic with zero total mass is reset to a uniform row.
    """
    n_topics, n_words = model.word_given_topic.shape
    nwz, nzd, nz, ll = _sufficient_stats(model, X)

    nwz = nwz + smoothing
    row_mass = nwz.sum(axis=1)
    word_given_topic = np.empty_like(nwz)
    for k in range(n_topics):
        if row_mass[k] <= 0.0:
            warnings.warn(f"topic {k} lost all mass; reset to uniform",
                          RuntimeWarning, stacklevel=2)
            word_given_topic[k] = 1.0 / n_words
        else:
            word_given_topic[k] = nwz[k] / row_mass[k]

    doc_mass = nzd.sum(axis=1, keepdims=True)
    doc_mixtures = np.where(doc_mass > 0.0,
                            nzd / np.maximum(doc_mass, _TINY),
                            1.0 / n_topics)

    nz_total = nz.sum()
    topic_prior = nz / nz_total if nz_total > 0 else np.full(n_topics, 1.0 / n_topics)

    new_model = PlsaModel(word_given_topic, doc_mixtures, topic_prior,
                          seed=model.seed, vocab_hash=model.vocab_hash)
    return new_model, ll


def train(X: CooccurrenceMatrix, cfg: TrainConfig | None = None,
          vocab: Vocabulary | None = None) -> PlsaModel:
    """Run EM until the relative log-likelihood change drops below tol."""
    cfg = cfg or TrainConfig()
    if X.n_docs == 0:
        raise ValidationError("cannot train on an empty corpus")
    if X.n_words == 0:
        raise ValidationError("cannot train with an empty vocabulary")
    model = init_model(cfg.n_topics, X.n_words, cfg.seed, n_docs=X.n_docs)
    if vocab is not None:
        model.vocab_hash = vocab.digest()
    prev_ll = None
    for n_iters in range(1, cfg.max_iters + 1):
        model, ll = em_step(model, X, smoothing=cfg.smoothing)
        if prev_ll is not None and abs(ll - prev_ll) / max(abs(prev_ll), 1.0) < cfg.tol:
            break
        prev_ll = ll
    model.n_iters = n_iters
    model.final_log_likelihood = log_likelihood(model, X)
    if not np.isfinite(model.final_log_likelihood):
        raise NumericError("non-finite log-likelihood after training")
    return model


def fold_in(model: PlsaModel, word_indices, word_values,
            max_iters: int = DEFAULT_MAX_ITERS, tol: float = 1e-10) -> np.ndarray:
    """Topic mixture for one unseen document; the model is not modified.

    An empty document folds in to the uniform mixture.
    """
    widx = np.asarray(word_indices, dtype=np.int64)
    wval = np.asarray(word_values, dtype=np.float64)
    if widx.ndim != 1 or widx.shape != wval.shape:
        raise ValidationError(
            "word indices and values must be 1-D and of equal length")
    if len(widx) and (widx.min() < 0 or widx.max() >= model.n_words):
        raise ValidationError("word index out of range for model")
    if len(wval) and not 0 <= wval.min() <= wval.max() < np.inf:
        raise ValidationError("word values must be finite and non-negative")
    return _kernels.fold_in_kernel(widx, wval, model.word_given_topic,
                                   max_iters, tol)


def assign_topic(mixture, threshold: float = DEFAULT_NULL_THRESHOLD
                 ) -> tuple[int | None, float]:
    """Argmax topic (ties to the lowest index), or None below threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold {threshold} outside [0, 1]")
    mixture = np.asarray(mixture, dtype=np.float64)
    if abs(mixture.sum() - 1.0) > 1e-6:
        raise ValidationError(f"mixture sums to {mixture.sum()}, expected 1")
    topic = int(np.argmax(mixture))
    max_prob = float(mixture[topic])
    if max_prob < threshold:
        return None, max_prob
    return topic, max_prob


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
    if not 0 <= topic < model.n_topics:
        raise ValidationError(f"topic {topic} out of range")
    if n_top < 1:
        raise ValidationError("n_top must be >= 1")
    check_vocabulary(model, vocab)
    probs = model.word_given_topic[topic]
    order = sorted(range(vocab.size), key=lambda i: (-probs[i], vocab.words[i]))
    return [(vocab.words[i], float(probs[i])) for i in order[:n_top]]
