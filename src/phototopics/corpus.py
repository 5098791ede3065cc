"""Tag-record parsing, vocabulary filtering and the sparse co-occurrence matrix.

An image plays the role of a document and its auto-detected tags play the
role of words. The tag-record file format is JSON lines: one object per
line with fields ``image_id``, ``collection_id`` and ``tags`` (a list of
``{"tag": ..., "confidence": ...}``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError

DEFAULT_MIN_COUNT = 5
DEFAULT_MIN_COLLECTIONS = 2


@dataclass(frozen=True)
class TagRecord:
    """One image's tags with confidences. Tags are lowercase and unique."""

    image_id: str
    collection_id: str
    tags: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.image_id:
            raise ValidationError("image_id must be non-empty")
        seen = set()
        for tag, conf in self.tags:
            if tag in seen:
                raise ValidationError(f"duplicate tag {tag!r} in record {self.image_id!r}")
            seen.add(tag)
            if not 0.0 <= conf <= 1.0:
                raise ValidationError(
                    f"confidence {conf} for tag {tag!r} in record {self.image_id!r} "
                    "is outside [0, 1]"
                )


@dataclass(frozen=True)
class Vocabulary:
    """Ordered, filtered tag vocabulary; positions 0..M-1 are significant."""

    words: tuple[str, ...]
    min_count: int
    min_collections: int
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {w: i for i, w in enumerate(self.words)}
        if "" in index:
            raise ValidationError("vocabulary contains an empty word")
        if len(index) != len(self.words):
            dup = next(w for i, w in enumerate(self.words) if index[w] != i)
            raise ValidationError(f"vocabulary lists {dup!r} more than once")
        object.__setattr__(self, "index", index)

    @property
    def size(self) -> int:
        return len(self.words)

    def digest(self) -> str:
        """SHA-256 over the ordered word list; binds models to a vocabulary."""
        return hashlib.sha256("\n".join(self.words).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for w in self.words:
                f.write(w + "\n")

    @classmethod
    def load(cls, path, min_count: int = DEFAULT_MIN_COUNT,
             min_collections: int = DEFAULT_MIN_COLLECTIONS) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            words = tuple(line.rstrip("\n") for line in f if line.strip())
        return cls(words=words, min_count=min_count, min_collections=min_collections)


class CooccurrenceMatrix:
    """Sparse M x N word-document matrix in COO form.

    Rows index vocabulary words, columns index documents (images).
    Documents whose tags were all filtered out stay as empty columns so
    that image accounting is preserved downstream.
    """

    def __init__(self, n_words: int, doc_ids: list[str],
                 rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        self.n_words = int(n_words)
        self.doc_ids = list(doc_ids)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValidationError("rows, cols and vals must have equal length")
        if self.nnz and not 0 <= self.vals.min() <= self.vals.max() < np.inf:
            raise ValidationError(
                "co-occurrence counts must be finite and non-negative")
        if len(self.rows) and (self.rows.max() >= self.n_words or self.rows.min() < 0):
            raise ValidationError("word index out of range")
        if len(self.cols) and (self.cols.max() >= self.n_docs or self.cols.min() < 0):
            raise ValidationError("document index out of range")

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def total(self) -> float:
        return float(self.vals.sum())

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_words, self.n_docs))
        dense[self.rows, self.cols] = self.vals
        return dense

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Word indices and values of one document column."""
        mask = self.cols == j
        return self.rows[mask], self.vals[mask]


def tag_record_from_dict(obj) -> TagRecord:
    """One tag record from its decoded JSON object.

    Tags are lowercased; duplicate tags are merged keeping the maximum
    confidence.
    """
    try:
        image_id = obj["image_id"]
        collection_id = obj["collection_id"]
        raw_tags = obj["tags"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed tag record: {exc!r}") from exc
    if not isinstance(raw_tags, list):
        raise ValidationError("malformed tag record: tags must be a list")
    merged: dict[str, float] = {}
    for entry in raw_tags:
        try:
            tag = str(entry["tag"]).lower()
            conf = float(entry["confidence"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed tag entry: {exc!r}") from exc
        if not 0.0 <= conf <= 1.0:
            raise ValidationError(f"confidence {conf} outside [0, 1]")
        if tag not in merged or conf > merged[tag]:
            merged[tag] = conf
    return TagRecord(
        image_id=str(image_id),
        collection_id=str(collection_id),
        tags=tuple(merged.items()),
    )


def parse_tag_records(stream) -> list[TagRecord]:
    """Parse JSON-lines tag records from an iterable of lines or a file object.

    Each line is converted by ``tag_record_from_dict``. Blank lines are
    skipped.
    """
    records = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(tag_record_from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed tag record at line {lineno}: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"{exc} at line {lineno}") from exc
    return records


def build_vocabulary(records: list[TagRecord],
                     min_count: int = DEFAULT_MIN_COUNT,
                     min_collections: int = DEFAULT_MIN_COLLECTIONS) -> Vocabulary:
    """Filter tags by total usage and collection spread.

    A tag is retained iff it occurs strictly more than ``min_count`` times
    across all records and appears in at least ``min_collections`` distinct
    collections. Retained words are sorted lexicographically so the
    vocabulary (and everything derived from it) is reproducible.
    """
    if min_count < 1 or min_collections < 1:
        raise ValidationError("min_count and min_collections must be >= 1")
    counts: dict[str, int] = {}
    collections: dict[str, set[str]] = {}
    for rec in records:
        for tag, _conf in rec.tags:
            counts[tag] = counts.get(tag, 0) + 1
            collections.setdefault(tag, set()).add(rec.collection_id)
    words = sorted(
        tag for tag, n in counts.items()
        if n > min_count and len(collections[tag]) >= min_collections
    )
    return Vocabulary(words=tuple(words), min_count=min_count,
                      min_collections=min_collections)


def _check_weighting(weighting: str) -> None:
    if weighting not in ("binary", "confidence"):
        raise ValidationError(f"unknown weighting {weighting!r}")


def vectorize_record(record: TagRecord, vocab: Vocabulary,
                     weighting: str = "binary") -> tuple[np.ndarray, np.ndarray]:
    """Sparse word-count vector for one record; out-of-vocabulary tags dropped."""
    _check_weighting(weighting)
    idx, val = [], []
    for tag, conf in record.tags:
        pos = vocab.index.get(tag)
        if pos is None:
            continue
        idx.append(pos)
        val.append(1.0 if weighting == "binary" else conf)
    order = np.argsort(idx, kind="stable")
    return (np.asarray(idx, dtype=np.int64)[order],
            np.asarray(val, dtype=np.float64)[order])


def build_cooccurrence(records: list[TagRecord], vocab: Vocabulary,
                       weighting: str = "binary") -> CooccurrenceMatrix:
    """Assemble the M x N co-occurrence matrix over all records.

    ``binary`` puts 1 for every in-vocabulary tag present in a record;
    ``confidence`` puts the tag's confidence instead (a soft count).
    Entries are ordered by document, then word, as ``vectorize_record``
    orders each column.
    """
    _check_weighting(weighting)
    binary = weighting == "binary"
    index = vocab.index
    rows, cols, vals = [], [], []
    for j, rec in enumerate(records):
        for tag, conf in rec.tags:
            pos = index.get(tag)
            if pos is not None:
                rows.append(pos)
                cols.append(j)
                vals.append(1.0 if binary else conf)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.lexsort((rows, cols))
    return CooccurrenceMatrix(
        n_words=vocab.size,
        doc_ids=[rec.image_id for rec in records],
        rows=rows[order],
        cols=cols[order],
        vals=np.asarray(vals, dtype=np.float64)[order],
    )
