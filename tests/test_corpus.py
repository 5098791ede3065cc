import io
import json

import numpy as np
import pytest

from phototopics.corpus import (
    CooccurrenceMatrix,
    TagRecord,
    Vocabulary,
    build_cooccurrence,
    build_vocabulary,
    parse_tag_records,
    vectorize_record,
)
from phototopics.exceptions import ValidationError

from conftest import tag_record_line


class TestParseTagRecords:
    def test_basic_line_lowercases(self):
        line = '{"image_id":"a","collection_id":"u1","tags":[{"tag":"Dog","confidence":0.9}]}'
        records = parse_tag_records([line])
        assert records == [TagRecord("a", "u1", (("dog", 0.9),))]

    def test_empty_stream(self):
        assert parse_tag_records([]) == []
        assert parse_tag_records(io.StringIO("")) == []

    def test_duplicate_tags_merged_keeping_max(self):
        line = tag_record_line("a", "u", [("dog", 0.4), ("Dog", 0.9)])
        records = parse_tag_records([line])
        assert records[0].tags == (("dog", 0.9),)

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_tag_records([tag_record_line("a", "u", []), "{broken"])

    def test_tags_not_a_list_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_tag_records(['{"image_id":"a","collection_id":"u","tags":5}'])

    @pytest.mark.parametrize("change", [
        {"image_id": None}, {"image_id": 7}, {"collection_id": None},
        {"collection_id": ["u"]},
        {"tags": [{"tag": None, "confidence": 0.5}]},
        {"tags": [{"tag": {"x": 1}, "confidence": 0.5}]},
        {"tags": [{"tag": 3, "confidence": 0.5}]},
        {"tags": [{"tag": "dog", "confidence": True}]},
        {"tags": [{"tag": "dog", "confidence": "0.5"}]},
        {"tags": [{"tag": "dog", "confidence": None}]},
    ])
    def test_fields_of_the_wrong_json_type_rejected(self, change):
        obj = {"image_id": "b", "collection_id": "u",
               "tags": [{"tag": "dog", "confidence": 0.5}], **change}
        lines = [tag_record_line("a", "u", [("dog", 0.5)]), json.dumps(obj)]
        with pytest.raises(ValidationError, match="line 2"):
            parse_tag_records(lines)

    def test_integer_confidence_accepted(self):
        line = '{"image_id":"a","collection_id":"u","tags":[{"tag":"x","confidence":1}]}'
        assert parse_tag_records([line])[0].tags == (("x", 1.0),)

    def test_confidence_out_of_range(self):
        line = '{"image_id":"a","collection_id":"u","tags":[{"tag":"x","confidence":1.5}]}'
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            parse_tag_records([line])

    def test_bad_confidence_rejected_before_merge(self):
        line = tag_record_line("a", "u", [("x", -0.5), ("x", 0.3)])
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            parse_tag_records([line])

    def test_unholdable_tag_names_line_number(self):
        lines = [tag_record_line("a", "u", [("dog", 0.5)]),
                 tag_record_line("b", "u", [("a\nb", 0.5)])]
        with pytest.raises(ValidationError, match="line break at line 2"):
            parse_tag_records(lines)

    def test_blank_lines_skipped(self):
        records = parse_tag_records(["", tag_record_line("a", "u", []), "  "])
        assert len(records) == 1

    def test_bytes_input(self):
        line = tag_record_line("a", "u", [("dog", 0.5)]).encode()
        assert parse_tag_records([line])[0].image_id == "a"


class TestTagRecord:
    def test_empty_image_id_rejected(self):
        with pytest.raises(ValidationError):
            TagRecord("", "u", ())

    def test_duplicate_tag_rejected(self):
        with pytest.raises(ValidationError):
            TagRecord("a", "u", (("dog", 0.5), ("dog", 0.6)))

    @pytest.mark.parametrize("tag", ["", " ", "\t", "a\nb", "a\rb", "dog\n"])
    def test_tag_a_vocabulary_file_cannot_hold_rejected(self, tag):
        with pytest.raises(ValidationError, match="empty or blank"):
            TagRecord("a", "u", (("cat", 0.5), (tag, 0.5)))


def _records(spec):
    """spec: list of (image_id, collection_id, [tags])."""
    return [TagRecord(i, c, tuple((t, 0.5) for t in tags)) for i, c, tags in spec]


class TestBuildVocabulary:
    def test_thresholds_applied_literally(self):
        spec = []
        for i in range(6):
            spec.append((f"c{i}", f"u{i % 3}", ["cat"]))
        for i in range(7):
            spec.append((f"d{i}", f"u{i % 2}", ["dog"]))
        spec.append(("r0", "u0", ["rarebird"]))
        spec.append(("r1", "u0", ["rarebird"]))
        vocab = build_vocabulary(_records(spec), min_count=5, min_collections=2)
        assert vocab.words == ("cat", "dog")

    def test_strictly_more_than_min_count(self):
        spec = [(f"i{i}", f"u{i}", ["cat"]) for i in range(5)]
        vocab = build_vocabulary(_records(spec), min_count=5, min_collections=1)
        assert vocab.words == ()

    def test_all_below_threshold_gives_empty(self):
        vocab = build_vocabulary(_records([("a", "u", ["x"])]))
        assert vocab.size == 0

    def test_order_independent(self):
        spec = [(f"i{i}", f"u{i % 3}", ["zebra", "ant"]) for i in range(8)]
        records = _records(spec)
        v1 = build_vocabulary(records, 5, 2)
        v2 = build_vocabulary(list(reversed(records)), 5, 2)
        assert v1 == v2
        assert v1.words == ("ant", "zebra")

    def test_invalid_thresholds(self):
        with pytest.raises(ValidationError):
            build_vocabulary([], min_count=0)

    def test_digest_depends_on_words(self):
        v1 = Vocabulary(("a", "b"))
        v2 = Vocabulary(("a", "c"))
        assert v1.digest() != v2.digest()

    @pytest.mark.parametrize("words", [("a", "b", "a"), ("a", ""), ("",),
                                       ("a", " "), ("a\nb",), ("a\rb",)],
                             ids=["duplicate", "empty", "only-empty",
                                  "blank", "newline", "carriage-return"])
    def test_duplicate_or_empty_word_rejected(self, words):
        with pytest.raises(ValidationError, match="more than once|empty"):
            Vocabulary(words)

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocabulary(("ant", "bee", "cat"))
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert Vocabulary.load(path).words == v.words


class TestBuildCooccurrence:
    def test_binary_single_entry(self):
        vocab = Vocabulary(("dog",))
        rec = TagRecord("a", "u", (("dog", 0.9),))
        X = build_cooccurrence([rec], vocab, "binary")
        assert X.to_dense().tolist() == [[1.0]]

    def test_confidence_weighting(self):
        vocab = Vocabulary(("dog",))
        rec = TagRecord("a", "u", (("dog", 0.9),))
        X = build_cooccurrence([rec], vocab, "confidence")
        assert X.to_dense().tolist() == [[0.9]]

    def test_out_of_vocab_doc_kept_as_empty_column(self):
        vocab = Vocabulary(("dog",))
        rec = TagRecord("a", "u", (("giraffe", 0.9),))
        X = build_cooccurrence([rec], vocab)
        assert X.n_docs == 1
        assert X.nnz == 0

    def test_binary_column_sums_count_in_vocab_tags(self):
        vocab = Vocabulary(("ant", "bee", "cat"))
        recs = [
            TagRecord("a", "u", (("ant", 0.1), ("bee", 0.2), ("zzz", 0.3))),
            TagRecord("b", "u", (("cat", 0.9),)),
        ]
        X = build_cooccurrence(recs, vocab)
        sums = X.to_dense().sum(axis=0)
        assert sums.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("val", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, val):
        with pytest.raises(ValidationError, match="finite"):
            CooccurrenceMatrix(1, 2, [0, 0], [0, 1], [1.0, val])

    def test_unknown_weighting_rejected(self):
        vocab = Vocabulary(("dog",))
        with pytest.raises(ValidationError):
            vectorize_record(TagRecord("a", "u", ()), vocab, "tfidf")
        with pytest.raises(ValidationError):
            build_cooccurrence([], vocab, "tfidf")

    @pytest.mark.parametrize("weighting", ["binary", "confidence"])
    def test_matches_per_record_reference(self, weighting):
        """The matrix equals a per-tag reference, and each record's
        ``vectorize_record`` equals its column."""
        rng = np.random.default_rng(3)
        words = [f"w{i:02d}" for i in range(40)]
        # odd words out of vocabulary; word indices not in word order
        vocab = Vocabulary(tuple(rng.permutation(words[::2]).tolist()))
        for n_records in (0, 1, 7, 60):
            records = []
            for j in range(n_records):
                n_tags = int(rng.integers(0, 12))  # some records empty
                if j % 5 == 4:  # every tag out of vocabulary
                    pool = words[1::2]
                else:
                    pool = words
                tags = rng.choice(pool, size=min(n_tags, len(pool)),
                                  replace=False)  # shuffled tag order
                records.append(TagRecord(
                    f"img{j}", "u",
                    tuple((str(t), float(rng.random())) for t in tags)))
            X = build_cooccurrence(records, vocab, weighting)
            ref = reference_cooccurrence(records, vocab, weighting)
            assert X.n_docs == ref.n_docs
            assert X.n_words == ref.n_words
            for got, want in ((X.rows, ref.rows), (X.cols, ref.cols),
                              (X.vals, ref.vals)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            for j, rec in enumerate(records):
                widx, wval = vectorize_record(rec, vocab, weighting)
                assert np.array_equal(widx, ref.rows[ref.cols == j])
                assert np.array_equal(wval, ref.vals[ref.cols == j])


class TestCooccurrenceMatrix:
    def test_entries_put_in_document_then_word_order(self):
        """Entries shuffled across documents give exactly the arrays of
        the sorted input."""
        rows = np.array([0, 2, 1, 0, 3, 1, 2])
        cols = np.array([0, 0, 1, 2, 2, 3, 3])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        rng = np.random.default_rng(0)
        for perm in [np.arange(len(rows))] + [rng.permutation(len(rows))
                                              for _ in range(5)]:
            X = CooccurrenceMatrix(4, 5, rows[perm], cols[perm], vals[perm])
            for got, want in ((X.rows, rows), (X.cols, cols), (X.vals, vals)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows, cols, vals", [
        ([[0, 1]], [[0, 1]], [[1.0, 1.0]]),
        ([[0], [1]], [0, 1], [1.0, 1.0]),
        ([0, 1], [0, 1], [[1.0], [1.0]]),
        (0, 0, 1.0),
    ], ids=["all-2d", "rows-2d", "vals-2d", "scalars"])
    def test_entries_not_1d_rejected(self, rows, cols, vals):
        with pytest.raises(ValidationError, match="1-D"):
            CooccurrenceMatrix(2, 2, rows, cols, vals)

    def test_negative_n_docs_rejected(self):
        with pytest.raises(ValidationError, match="n_docs"):
            CooccurrenceMatrix(2, -1, [], [], [])


def reference_cooccurrence(records, vocab, weighting):
    """One entry per in-vocabulary tag, sorted by document, then word."""
    entries = sorted(
        (j, vocab.index[tag], 1.0 if weighting == "binary" else conf)
        for j, rec in enumerate(records) for tag, conf in rec.tags
        if tag in vocab.index)
    cols, rows, vals = zip(*entries) if entries else ((), (), ())
    return CooccurrenceMatrix(vocab.size, len(records),
                              np.asarray(rows, dtype=np.int64),
                              np.asarray(cols, dtype=np.int64),
                              np.asarray(vals, dtype=np.float64))
