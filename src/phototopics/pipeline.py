"""End-to-end organization of a photo collection.

Folds every image into a trained model, assigns a dominant (or Null)
topic, attaches names and optional externally produced per-image category
scores, and emits a deterministic hierarchical manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from . import plsa
from .corpus import TagRecord, Vocabulary, tag_record_from_dict, vectorize_record
from .exceptions import InputOutputError, TransportError, ValidationError
from .naming import NULL_TOPIC_NAME, TopicNaming
from .plsa import DEFAULT_NULL_THRESHOLD, PlsaModel

MANIFEST_FORMAT_VERSION = 1


def load_category_registry(stream=None) -> dict[str, set[str]]:
    """Topic -> allowed category names. Default is the shipped registry."""
    if stream is None:
        text = resources.files("phototopics.data").joinpath(
            "category_registry.tsv").read_text("utf-8")
        stream = text.splitlines()
    registry: dict[str, set[str]] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValidationError(f"malformed registry line {lineno}")
        registry.setdefault(parts[0], set()).add(parts[1])
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


def load_category_scores(stream, registry: dict[str, set[str]] | None = None
                         ) -> CategoryScores:
    """Parse JSON-lines ``{"image_id","topic","category","score"}`` scores.

    Every entry must name a category registered for its topic; offenders
    are collected and reported together.
    """
    registry = registry if registry is not None else load_category_registry()
    by_image: dict[str, list[tuple[str, str, float]]] = {}
    offenders = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            image_id = str(obj["image_id"])
            topic = str(obj["topic"])
            category = str(obj["category"])
            score = float(obj["score"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed score line {lineno}: {exc}") from exc
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"score {score} outside [0, 1] at line {lineno}")
        if category not in registry.get(topic, set()):
            offenders.append(f"line {lineno}: {category!r} not registered "
                             f"under topic {topic!r}")
            continue
        by_image.setdefault(image_id, []).append((topic, category, score))
    if offenders:
        raise ValidationError("unknown categories:\n" + "\n".join(offenders))
    return CategoryScores(by_image=by_image)


@dataclass
class ImageEntry:
    image_id: str
    topic_name: str
    mixture: tuple[float, ...]
    category: str | None = None
    category_score: float | None = None


@dataclass
class OrganizedCollection:
    """Hierarchical manifest: topic -> category -> sorted image ids."""

    collection_id: str
    model_hash: str
    entries: list[ImageEntry]
    coverage: float
    index: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    def recount_coverage(self) -> float:
        if not self.entries:
            return 0.0
        hit = sum(1 for e in self.entries if e.topic_name != NULL_TOPIC_NAME)
        return hit / len(self.entries)


def _build_index(entries: list[ImageEntry]) -> dict[str, dict[str, list[str]]]:
    index: dict[str, dict[str, list[str]]] = {}
    for e in entries:
        bucket = e.category if e.category is not None else ""
        index.setdefault(e.topic_name, {}).setdefault(bucket, []).append(e.image_id)
    for topic in index.values():
        for ids in topic.values():
            ids.sort()
    return index


def fold_in_records(records: list[TagRecord], model: PlsaModel,
                    vocab: Vocabulary, weighting: str = "binary"):
    """Lazily yield ``(record, mixture)`` for each record, in the given order.

    The model must be bound to the same vocabulary the records are
    vectorized with (``plsa.check_vocabulary``); a mismatch is raised
    before the first record.
    """
    plsa.check_vocabulary(model, vocab)
    return ((rec, plsa.fold_in(model, *vectorize_record(rec, vocab, weighting)))
            for rec in records)


def organize_collection(records: list[TagRecord], model: PlsaModel,
                        vocab: Vocabulary, names: list[TopicNaming] | None = None,
                        threshold: float = DEFAULT_NULL_THRESHOLD,
                        scores: CategoryScores | None = None,
                        weighting: str = "binary",
                        collection_id: str | None = None) -> OrganizedCollection:
    """Fold in every record, assign topics and attach category scores.

    Image ids must be unique: a repeated id would appear twice in the
    manifest and count twice towards coverage. Records are processed in
    image-id order, so their input order cannot change the result;
    without ``collection_id`` the manifest takes the collection of the
    record with the lowest image id.
    """
    seen: set[str] = set()
    for rec in records:
        if rec.image_id in seen:
            raise ValidationError(f"duplicate image_id {rec.image_id!r}")
        seen.add(rec.image_id)
    if names is not None and [n.topic for n in names] != list(range(model.n_topics)):
        raise ValidationError(
            "naming result must name every topic once, in topic order")
    topic_names = ([n.name for n in names] if names is not None
                   else [f"Topic {k}" for k in range(model.n_topics)])
    ordered = sorted(records, key=lambda r: r.image_id)
    if collection_id is None:
        collection_id = ordered[0].collection_id if ordered else ""

    entries = []
    for rec, mixture in fold_in_records(ordered, model, vocab, weighting):
        topic, _max_prob = plsa.assign_topic(mixture, threshold)
        name = NULL_TOPIC_NAME if topic is None else topic_names[topic]
        entry = ImageEntry(rec.image_id, name, tuple(float(x) for x in mixture))
        if topic is not None and scores is not None:
            best = scores.best_for_topic(rec.image_id, name)
            if best is not None:
                entry.category, entry.category_score = best[0], float(best[1])
        entries.append(entry)

    collection = OrganizedCollection(
        collection_id=collection_id,
        model_hash=model.vocab_hash,
        entries=entries,
        coverage=0.0,
        index={},
    )
    collection.coverage = collection.recount_coverage()
    collection.index = _build_index(entries)
    return collection


def emit_manifest(collection: OrganizedCollection, sink) -> int:
    """Write the manifest as deterministic JSON; returns bytes written.

    Keys and image ids are sorted so identical inputs always produce
    byte-identical output.
    """
    payload = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "collection_id": collection.collection_id,
        "model_hash": collection.model_hash,
        "coverage": collection.coverage,
        "images": [
            {
                "image_id": e.image_id,
                "topic": e.topic_name,
                "mixture": list(e.mixture),
                **({"category": e.category, "category_score": e.category_score}
                   if e.category is not None else {}),
            }
            for e in sorted(collection.entries, key=lambda e: e.image_id)
        ],
        "index": collection.index,
    }
    data = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
    try:
        sink.write(data)
    except OSError as exc:
        raise InputOutputError(f"manifest write failed: {exc}") from exc
    return len(data)


def fetch_tags(endpoint: str, image_ids: list[str], api_key: str | None = None,
               timeout: float = 10.0
               ) -> tuple[list[TagRecord], list[tuple[str, str]]]:
    """Fetch tag records from an auto-tagging HTTP endpoint.

    GETs ``{endpoint}/{image_id}`` per id and expects a tag-record JSON
    object back. Per-id failures are collected and returned alongside
    the successful records; only an unreachable endpoint aborts.
    """
    import requests

    if not image_ids:
        raise ValidationError("image id list must be non-empty")
    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    records = []
    failures = []
    base = endpoint.rstrip("/")
    for image_id in image_ids:
        try:
            resp = requests.get(f"{base}/{image_id}", headers=headers,
                                timeout=timeout)
        except requests.ConnectionError as exc:
            raise TransportError(f"endpoint {endpoint} unreachable: {exc}") from exc
        except requests.RequestException as exc:
            failures.append((image_id, str(exc)))
            continue
        if resp.status_code != 200:
            failures.append((image_id, f"HTTP {resp.status_code}"))
            continue
        try:
            records.append(tag_record_from_dict(
                {"image_id": image_id, "collection_id": "", **resp.json()}))
        except (ValueError, TypeError, ValidationError) as exc:
            failures.append((image_id, f"bad response: {exc}"))
    return records, failures
