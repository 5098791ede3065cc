"""End-to-end organization of a photo collection.

Folds every image into a trained model, assigns a dominant (or Null)
topic, attaches names and optional externally produced per-image category
scores, and emits a deterministic hierarchical manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from urllib.parse import quote, urlsplit

import numpy as np

from . import plsa
from .corpus import (TagTable, TagTableBuilder, Vocabulary, build_cooccurrence,
                     check_count, check_number, decode_json, read_json_lines)
from .exceptions import InputOutputError, TransportError, ValidationError
from .naming import NULL_TOPIC_NAME, TopicNaming
from .plsa import DEFAULT_NULL_THRESHOLD, PlsaModel
from .taxonomy import read_tsv

MANIFEST_FORMAT_VERSION = 1


def load_category_registry(stream=None) -> dict[str, set[str]]:
    """Topic -> allowed category names. Default is the shipped registry."""
    if stream is None:
        text = resources.files("phototopics.data").joinpath(
            "category_registry.tsv").read_text("utf-8")
        stream = text.splitlines()
    registry: dict[str, set[str]] = {}
    for _lineno, (topic, category) in read_tsv(stream, "registry", 2):
        registry.setdefault(topic, set()).add(category)
    return registry


@dataclass
class CategoryScores:
    """Externally produced per-image category scores, validated on load."""

    by_image: dict[str, list[tuple[str, str, float]]]

    def best_for_topic(self, image_id: str, topic_name: str
                       ) -> tuple[str, float] | None:
        """Highest-scoring category whose topic matches; cross-topic
        scores are ignored. Ties break lexicographically."""
        candidates = [
            (cat, score) for t, cat, score in self.by_image.get(image_id, [])
            if t == topic_name
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda cs: (-cs[1], cs[0]))


def load_category_scores(stream) -> CategoryScores:
    """Parse JSON-lines ``{"image_id","topic","category","score"}`` scores.

    ``image_id``, ``topic`` and ``category`` must be JSON strings and
    ``score`` a JSON number (not ``true``/``false``) in [0, 1]; nothing is
    coerced. An (image, topic, category) triple may be listed once. Every
    entry must name a category registered for its topic; offenders are
    collected and reported together.
    """
    registry = load_category_registry()
    by_image: dict[str, list[tuple[str, str, float]]] = {}
    seen: set[tuple[str, str, str]] = set()
    offenders = []
    for lineno, obj in read_json_lines(stream, "score"):
        try:
            key = image_id, topic, category = (
                obj["image_id"], obj["topic"], obj["category"])
            if not all(isinstance(v, str) for v in key):
                raise ValidationError("image_id, topic and category must be strings")
            score = check_number(obj["score"], "score", "[0, 1]")
            if key in seen:
                raise ValidationError(f"image {image_id!r}, topic {topic!r}, "
                                      f"category {category!r} is listed twice")
        except (KeyError, TypeError, ValidationError) as exc:
            raise ValidationError(f"malformed score line {lineno}: {exc}") from exc
        seen.add(key)
        if category not in registry.get(topic, set()):
            offenders.append(f"line {lineno}: {category!r} not registered "
                             f"under topic {topic!r}")
            continue
        by_image.setdefault(image_id, []).append((topic, category, score))
    if offenders:
        raise ValidationError("unknown categories:\n" + "\n".join(offenders))
    return CategoryScores(by_image=by_image)


@dataclass
class OrganizedCollection:
    """Hierarchical manifest: topic -> category -> sorted image ids.

    Image ``j`` is ``image_ids[j]`` (sorted), assigned the topic named
    ``topics[j]`` with mixture ``mixtures[j]`` (one row of an n x K
    matrix). ``categories`` is None without category scores; with them,
    ``categories[j]`` is the image's (category, score) or None.
    """

    collection_id: str
    model_hash: str
    image_ids: list[str]
    topics: list[str]
    mixtures: np.ndarray
    coverage: float
    index: dict[str, dict[str, list[str]]]
    categories: list[tuple[str, float] | None] | None = None


def _build_index(image_ids: list[str], topics: list[str],
                 categories: list[tuple[str, float] | None] | None
                 ) -> dict[str, dict[str, list[str]]]:
    """Topic -> category ("" for none) -> image ids, in the given order."""
    index: dict[str, dict[str, list[str]]] = {}
    for image_id, topic, category in zip(
            image_ids, topics, categories or repeat(None)):
        bucket = category[0] if category is not None else ""
        index.setdefault(topic, {}).setdefault(bucket, []).append(image_id)
    return index


def fold_in_records(records: TagTable, model: PlsaModel,
                    vocab: Vocabulary, weighting: str = "binary"):
    """Topic mixtures of the records, one row each in the given order,
    folded in together over one co-occurrence matrix.

    The model must be bound to the same vocabulary the records are
    vectorized with (``plsa.check_vocabulary``).
    """
    plsa.check_vocabulary(model, vocab)
    return plsa.fold_in(model, build_cooccurrence(records, vocab, weighting))


def organize_collection(records: TagTable, model: PlsaModel,
                        vocab: Vocabulary, names: list[TopicNaming] | None = None,
                        threshold: float = DEFAULT_NULL_THRESHOLD,
                        scores: CategoryScores | None = None,
                        weighting: str = "binary") -> OrganizedCollection:
    """Fold in every record, assign topics and attach category scores.

    Image ids must be unique: a repeated id would appear twice in the
    manifest and count twice towards coverage. Images are listed in
    image-id order, and each record's mixture does not depend on where
    it stands, so the input order cannot change the result; the
    manifest takes the collection of the record with the lowest image id.
    """
    image_ids = records.image_ids
    seen: set[str] = set()
    for image_id in image_ids:
        if image_id in seen:
            raise ValidationError(f"duplicate image_id {image_id!r}")
        seen.add(image_id)
    if names is not None and not (
            [check_count(n.topic, "topic") for n in names] == list(range(model.n_topics))
            and all(isinstance(n.name, str) for n in names)):
        raise ValidationError(
            "naming result must name every topic once, in topic order, with a string")
    # A topic named "Null" keeps a label of its own: in the manifest
    # "Null" means only "below the threshold".
    topic_names = [f"Topic {k}" for k in range(model.n_topics)]
    if names is not None:
        topic_names = [n.name if n.name != NULL_TOPIC_NAME else topic_names[n.topic]
                       for n in names]
    topic_names.append(NULL_TOPIC_NAME)  # topic -1
    order = sorted(range(len(image_ids)), key=image_ids.__getitem__)

    theta = fold_in_records(records, model, vocab, weighting)[order]
    topics, _max_probs = plsa.assign_topics(theta, threshold)
    topics = topics.tolist()
    sorted_ids = [image_ids[j] for j in order]
    labels = [topic_names[k] for k in topics]
    categories = None
    if scores is not None:
        categories = []
        for image_id, topic, label in zip(sorted_ids, topics, labels):
            best = scores.best_for_topic(image_id, label) if topic >= 0 else None
            categories.append(None if best is None else (best[0], float(best[1])))

    return OrganizedCollection(
        collection_id=records.collection_id(order[0]) if order else "",
        model_hash=model.vocab_hash,
        image_ids=sorted_ids,
        topics=labels,
        mixtures=theta,
        coverage=(len(topics) - topics.count(-1)) / len(topics) if topics else 0.0,
        index=_build_index(sorted_ids, labels, categories),
        categories=categories,
    )


def emit_manifest(collection: OrganizedCollection, sink) -> int:
    """Write the manifest as deterministic one-line JSON; returns bytes written.

    Keys and image ids are sorted so identical inputs always produce
    byte-identical output.
    """
    images = []
    for image_id, row, topic, category in zip(
            collection.image_ids, collection.mixtures.tolist(), collection.topics,
            collection.categories or repeat(None)):
        image = {"image_id": image_id, "mixture": row, "topic": topic}
        if category is not None:
            image["category"], image["category_score"] = category
        images.append(image)
    payload = {
        "collection_id": collection.collection_id,
        "coverage": collection.coverage,
        "format_version": MANIFEST_FORMAT_VERSION,
        "images": images,
        "index": collection.index,
        "model_hash": collection.model_hash,
    }
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    try:
        sink.write(data)
    except OSError as exc:
        raise InputOutputError(f"manifest write failed: {exc}") from exc
    return len(data)


def fetch_tags(endpoint: str, image_ids: list[str], api_key: str | None = None,
               timeout: float = 10.0
               ) -> tuple[TagTable, list[tuple[str, str]]]:
    """Fetch tag records from an auto-tagging HTTP endpoint.

    GETs ``{endpoint}/{image_id}`` per id, the id percent-encoded as one
    path segment (RFC 3986, section 2.1), and expects a tag-record JSON
    object back. The empty id and the ids ``.`` and ``..`` would name the
    endpoint itself or its parent (section 3.3), so each fails without a
    request, as does every repeat of an id after its first. A record is
    filed under the id it was asked for: one that names another
    ``image_id`` fails that id. Per-id failures are collected and
    returned alongside the successful records; only an unreachable
    endpoint aborts.
    """
    import urllib.request
    from http.client import HTTPException

    timeout = check_number(timeout, "timeout", "(0, inf)")
    if not image_ids:
        raise ValidationError("image id list must be non-empty")
    try:  # reading .port raises ValueError unless it is a number in [0, 65535]
        parts = urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
            raise ValueError("not an http(s) URL naming a host and port")
    except ValueError as exc:
        raise ValidationError(f"bad endpoint {endpoint!r}: {exc}") from exc
    records, failures, seen = TagTableBuilder(), [], set()
    base = endpoint.rstrip("/")
    for image_id in image_ids:
        if image_id in seen:  # its record would be filed twice
            failures.append((image_id, "id is repeated"))
            continue
        seen.add(image_id)
        if image_id in ("", ".", ".."):  # the endpoint; dot segments a client resolves
            failures.append((image_id, "id is a dot segment" if image_id else
                             "id is empty"))
            continue
        request = urllib.request.Request(f"{base}/{quote(image_id, safe='')}")
        if api_key:  # unredirected: never sent on to the host a redirect names
            request.add_unredirected_header("Authorization", f"Bearer {api_key}")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # a 4xx, a 5xx or an unfollowed 3xx
            status = exc.code
        except urllib.error.URLError as exc:  # no connection could be made
            raise TransportError(f"endpoint {endpoint} unreachable: {exc.reason}") from exc
        except (OSError, HTTPException) as exc:  # a connection made, then lost
            failures.append((image_id, str(exc)))
            continue
        if status != 200:
            failures.append((image_id, f"HTTP {status}"))
            continue
        try:  # json reads UTF-8, -16 or -32 bytes (RFC 8259); no charset is guessed
            record = {"collection_id": "", **decode_json(body, "tag record")}
            if record.setdefault("image_id", image_id) != image_id:
                raise ValidationError(f"record names image {record['image_id']!r}")
            records.add(record)
        except (TypeError, ValidationError) as exc:
            failures.append((image_id, f"bad response: {exc}"))
    return records.build(), failures
