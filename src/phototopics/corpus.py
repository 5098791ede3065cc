"""Tag-record parsing, vocabulary filtering and the sparse co-occurrence matrix.

An image plays the role of a document and its auto-detected tags play the
role of words. The tag-record file format is JSON lines: one object per
line with fields ``image_id``, ``collection_id`` and ``tags`` (a list of
``{"tag": ..., "confidence": ...}``). Parsed records are held in one
columnar ``TagTable``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .exceptions import ValidationError

DEFAULT_MIN_COUNT = 5
DEFAULT_MIN_COLLECTIONS = 2


# A vocabulary file holds one word per line and skips blank lines.
_NOT_A_WORD = "is empty or blank, or contains a line break"


def _shown(value) -> str:
    """``repr(value)``, or the size of an integer too long for Python to print."""
    try:
        return repr(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        if not isinstance(value, int):  # a container that holds one
            return f"a {type(value).__name__} holding an integer too long to print"
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def check_count(value, name: str, minimum: int = 0) -> int:
    """``value``, a Python or numpy integer >= ``minimum``, as an ``int``; anything
    else, a bool or a float such as 2.0 included, raises ``ValidationError``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}; got {_shown(value)}")
    return int(value)


def check_number(value, name: str, interval: str = "(-inf, inf)") -> float:
    """``value``, a finite Python or numpy real (not a bool) in ``interval``,
    written like ``"[0, 1]"`` or ``"(0, inf)"``, as a ``float``; anything
    else raises ``ValidationError``."""
    real = (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))
    try:  # float() overflows on an integer past the largest float
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.nan
    low, high = map(float, interval[1:-1].split(", "))
    if not (math.isfinite(number) and (low < number if interval[0] == "(" else low <= number)
            and (number < high if interval[-1] == ")" else number <= high)):
        raise ValidationError(f"{name} must be a finite number in {interval}; "
                              f"got {_shown(value)}")
    return number


def _is_word(token: str) -> bool:
    """True if ``token`` survives a round trip through a vocabulary file."""
    return bool(token.strip()) and "\n" not in token and "\r" not in token


@dataclass(frozen=True, eq=False)
class TagTable:
    """Tag records in columns, one row per record.

    Record ``j`` is image ``image_ids[j]`` of collection
    ``collections[collection_ids[j]]``. Its tags are ``tags[tag_ids[i]]``
    with confidence ``confidences[i]`` for ``i`` in
    ``offsets[j]:offsets[j + 1]``, in first-occurrence order. ``tags`` and
    ``collections`` list each distinct value once. Every tag is lowercase,
    unique within its record and a word a vocabulary file can hold; every
    confidence is in [0, 1]. ``TagTableBuilder`` checks each record.
    """

    image_ids: list[str]
    collection_ids: np.ndarray
    collections: list[str]
    tag_ids: np.ndarray
    tags: list[str]
    confidences: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.image_ids)

    def collection_id(self, j: int) -> str:
        return self.collections[self.collection_ids[j]]

    def record_tags(self, j: int) -> list[tuple[str, float]]:
        """Record ``j``'s (tag, confidence) pairs."""
        span = slice(self.offsets[j], self.offsets[j + 1])
        return list(zip(map(self.tags.__getitem__, self.tag_ids[span].tolist()),
                        self.confidences[span].tolist()))


class TagTableBuilder:
    """Checks tag records one at a time and collects them into a ``TagTable``.

    ``image_id``, ``collection_id`` and each tag must be strings and each
    confidence a number (not a bool); nothing is coerced. Tags are
    lowercased; duplicate tags are merged keeping the maximum confidence.
    Each confidence is range-checked before the merge, which would
    otherwise hide a bad value behind a larger one. A record that fails a
    check raises ``ValidationError`` and adds nothing.
    """

    def __init__(self):
        self.image_ids: list[str] = []
        self.collection_ids: list[int] = []
        self.tag_ids: list[int] = []
        self.confidences: list[float] = []
        self.offsets = [0]
        self.collection_index: dict[str, int] = {}
        # tag -> id; every tag of an added record has passed _is_word
        self.tag_index: dict[str, int] = {}

    def add(self, obj) -> None:
        """Check the decoded JSON object of one record and append it."""
        try:
            image_id = obj["image_id"]
            collection_id = obj["collection_id"]
            raw_tags = obj["tags"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed tag record: {exc!r}") from exc
        if not (isinstance(image_id, str) and isinstance(collection_id, str)):
            raise ValidationError(
                "malformed tag record: image_id and collection_id must be strings")
        if not isinstance(raw_tags, list):
            raise ValidationError("malformed tag record: tags must be a list")
        known = self.tag_index
        new: list[str] = []  # tags this record interned, until it passes
        merged: dict[int, float] = {}  # tag id -> confidence
        try:
            for entry in raw_tags:
                try:
                    tag = entry["tag"]
                    conf = entry["confidence"]
                except (KeyError, TypeError) as exc:
                    raise ValidationError(f"malformed tag entry: {exc!r}") from exc
                # JSON decodes a number to float or int; bool is an int subclass
                if type(conf) is not float:
                    if type(conf) is not int:
                        raise ValidationError(
                            f"malformed tag entry: confidence {conf!r} is not a number")
                    # float() may overflow on an int of 1024 bits or more;
                    # such an int reads as +-inf and fails the range check
                    conf = (float(conf) if conf.bit_length() < 1024
                            else float("inf") if conf > 0 else float("-inf"))
                if type(tag) is not str:
                    raise ValidationError(
                        f"malformed tag entry: tag {tag!r} is not a string")
                tag = tag.lower()
                if not 0.0 <= conf <= 1.0:
                    raise ValidationError(f"confidence {conf} outside [0, 1]")
                tag_id = known.get(tag)
                if tag_id is None:
                    tag_id = known[tag] = len(known)
                    new.append(tag)
                if tag_id not in merged or conf > merged[tag_id]:
                    merged[tag_id] = conf
            if not image_id:
                raise ValidationError("image_id must be non-empty")
            for tag in new:
                if not _is_word(tag):
                    raise ValidationError(
                        f"tag {tag!r} in record {image_id!r} {_NOT_A_WORD}")
        except ValidationError:
            for tag in new:
                del known[tag]
            raise
        self.image_ids.append(image_id)
        self.collection_ids.append(self.collection_index.setdefault(
            collection_id, len(self.collection_index)))
        self.tag_ids += merged
        self.confidences += merged.values()
        self.offsets.append(len(self.tag_ids))

    def build(self) -> TagTable:
        return TagTable(
            image_ids=list(self.image_ids),
            collection_ids=np.array(self.collection_ids, dtype=np.int64),
            collections=list(self.collection_index),
            tag_ids=np.array(self.tag_ids, dtype=np.int64),
            tags=list(self.tag_index),
            confidences=np.array(self.confidences, dtype=np.float64),
            offsets=np.array(self.offsets, dtype=np.int64),
        )


@dataclass(frozen=True)
class Vocabulary:
    """Ordered, filtered tag vocabulary; positions 0..M-1 are significant."""

    words: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    # rank[i] is the place of words[i] in lexicographic (str) order
    rank: np.ndarray = field(init=False, repr=False, compare=False)
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = next((w for w in self.words if not _is_word(w)), None)
        if bad is not None:
            raise ValidationError(f"vocabulary word {bad!r} {_NOT_A_WORD}")
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != len(self.words):
            dup = next(w for i, w in enumerate(self.words) if index[w] != i)
            raise ValidationError(f"vocabulary lists {dup!r} more than once")
        object.__setattr__(self, "index", index)
        order = sorted(range(len(self.words)), key=self.words.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_digest", hashlib.sha256(
            "\n".join(self.words).encode("utf-8")).hexdigest())

    @property
    def size(self) -> int:
        return len(self.words)

    def digest(self) -> str:
        """SHA-256 over the ordered word list; binds models to a vocabulary.

        Computed once, when the vocabulary is built."""
        return self._digest

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for w in self.words:
                f.write(w + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            return cls(tuple(line.rstrip("\n") for line in f if line.strip()))


class CooccurrenceMatrix:
    """Sparse M x N word-document matrix in COO form.

    Rows index vocabulary words, columns index documents (images).
    Documents whose tags were all filtered out stay as empty columns so
    that image accounting is preserved downstream. The entries are kept
    in (document, word) order, so each document's entries are contiguous.
    """

    def __init__(self, n_words: int, n_docs: int,
                 rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        self.n_words = check_count(n_words, "n_words")
        self.n_docs = check_count(n_docs, "n_docs")
        rows, cols = np.asarray(rows), np.asarray(cols)
        # numpy gives an empty list a float dtype; it holds no index to check
        if any(a.size and a.dtype.kind not in "iu" for a in (rows, cols)):
            raise ValidationError("word and document indices must be integers")
        rows, cols = (a.astype(np.int64, copy=False) for a in (rows, cols))
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.ndim == cols.ndim == vals.ndim == 1
                and len(rows) == len(cols) == len(vals)):
            raise ValidationError("rows, cols and vals must be 1-D and of equal length")
        if len(vals) and not 0 <= vals.min() <= vals.max() < np.inf:
            raise ValidationError(
                "co-occurrence counts must be finite and non-negative")
        if len(rows) and (rows.max() >= self.n_words or rows.min() < 0):
            raise ValidationError("word index out of range")
        if len(cols) and (cols.max() >= self.n_docs or cols.min() < 0):
            raise ValidationError("document index out of range")
        # A stable sort keeps the given order of any repeated entry; on
        # entries already in order timsort makes one pass.
        order = np.argsort(cols * self.n_words + rows, kind="stable")
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]

    @property
    def nnz(self) -> int:
        return len(self.vals)


def decode_json(text, what: str):
    """``json.loads(text)``; text it cannot decode raises ``ValidationError``."""
    # ValueError covers JSONDecodeError and an integer over Python's digit
    # limit; RecursionError is nesting too deep to decode.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def read_json_lines(stream, what: str):
    """Yield ``(line number, decode_json(line))`` for each non-blank line."""
    for lineno, line in enumerate((text.strip() for text in stream), start=1):
        if line:
            yield lineno, decode_json(line, f"{what} at line {lineno}")


def parse_tag_records(stream) -> TagTable:
    """Parse JSON-lines tag records from an iterable of lines or a file
    object; ``TagTableBuilder.add`` checks each, and an error names its line."""
    builder = TagTableBuilder()
    for lineno, obj in read_json_lines(stream, "tag record"):
        try:
            builder.add(obj)
        except ValidationError as exc:
            raise ValidationError(f"{exc} at line {lineno}") from exc
    return builder.build()


def _record_of_entry(records: TagTable) -> np.ndarray:
    """The record each tag entry belongs to."""
    return np.repeat(np.arange(len(records)), np.diff(records.offsets))


def build_vocabulary(records: TagTable,
                     min_count: int = DEFAULT_MIN_COUNT,
                     min_collections: int = DEFAULT_MIN_COLLECTIONS) -> Vocabulary:
    """Filter tags by total usage and collection spread.

    A tag is retained iff it occurs strictly more than ``min_count`` times
    across all records and appears in at least ``min_collections`` distinct
    collections. Retained words are sorted lexicographically so the
    vocabulary (and everything derived from it) is reproducible.
    """
    min_count = check_count(min_count, "min_count", 1)
    min_collections = check_count(min_collections, "min_collections", 1)
    n_tags = len(records.tags)
    counts = np.bincount(records.tag_ids, minlength=n_tags)
    pairs = np.unique(records.collection_ids[_record_of_entry(records)] * n_tags
                      + records.tag_ids)
    spread = np.bincount(pairs % n_tags, minlength=n_tags)
    keep = np.flatnonzero((counts > min_count) & (spread >= min_collections))
    return Vocabulary(tuple(sorted(records.tags[i] for i in keep.tolist())))


def build_cooccurrence(records: TagTable, vocab: Vocabulary,
                       weighting: str = "binary") -> CooccurrenceMatrix:
    """Assemble the M x N co-occurrence matrix over all records.

    ``binary`` puts 1 for every in-vocabulary tag present in a record;
    ``confidence`` puts the tag's confidence instead (a soft count).
    Entries are ordered by document, then word.
    """
    if weighting not in ("binary", "confidence"):
        raise ValidationError(f"unknown weighting {weighting!r}")
    word_of_tag = np.fromiter(map(vocab.index.get, records.tags, repeat(-1)),
                              np.int64, len(records.tags))
    rows = word_of_tag[records.tag_ids]
    known = rows >= 0
    if weighting == "binary":
        vals = np.ones(np.count_nonzero(known))
    else:
        vals = records.confidences[known]
    return CooccurrenceMatrix(vocab.size, len(records), rows[known],
                              _record_of_entry(records)[known], vals)


def vectorize_record(record: TagTable, vocab: Vocabulary,
                     weighting: str = "binary") -> tuple[np.ndarray, np.ndarray]:
    """Word indices and values of a one-record table, by word index;
    out-of-vocabulary tags dropped. This is ``build_cooccurrence`` over
    the one record."""
    if len(record) != 1:
        raise ValidationError(f"expected one record; got {len(record)}")
    X = build_cooccurrence(record, vocab, weighting)
    return X.rows, X.vals
