import io

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

    def test_confidence_out_of_range(self):
        line = '{"image_id":"a","collection_id":"u","tags":[{"tag":"x","confidence":1.5}]}'
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            parse_tag_records([line])

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
        v1 = Vocabulary(("a", "b"), 5, 2)
        v2 = Vocabulary(("a", "c"), 5, 2)
        assert v1.digest() != v2.digest()

    @pytest.mark.parametrize("words", [("a", "b", "a"), ("a", ""), ("",)],
                             ids=["duplicate", "empty", "only-empty"])
    def test_duplicate_or_empty_word_rejected(self, words):
        with pytest.raises(ValidationError, match="more than once|empty"):
            Vocabulary(words, 5, 2)

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocabulary(("ant", "bee", "cat"), 5, 2)
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert Vocabulary.load(path).words == v.words


class TestBuildCooccurrence:
    def test_binary_single_entry(self):
        vocab = Vocabulary(("dog",), 5, 2)
        rec = TagRecord("a", "u", (("dog", 0.9),))
        X = build_cooccurrence([rec], vocab, "binary")
        assert X.to_dense().tolist() == [[1.0]]

    def test_confidence_weighting(self):
        vocab = Vocabulary(("dog",), 5, 2)
        rec = TagRecord("a", "u", (("dog", 0.9),))
        X = build_cooccurrence([rec], vocab, "confidence")
        assert X.to_dense().tolist() == [[0.9]]

    def test_out_of_vocab_doc_kept_as_empty_column(self):
        vocab = Vocabulary(("dog",), 5, 2)
        rec = TagRecord("a", "u", (("giraffe", 0.9),))
        X = build_cooccurrence([rec], vocab)
        assert X.n_docs == 1
        assert X.nnz == 0

    def test_binary_column_sums_count_in_vocab_tags(self):
        vocab = Vocabulary(("ant", "bee", "cat"), 5, 2)
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
            CooccurrenceMatrix(1, ["a", "b"], [0, 0], [0, 1], [1.0, val])

    def test_unknown_weighting_rejected(self):
        vocab = Vocabulary(("dog",), 5, 2)
        with pytest.raises(ValidationError):
            vectorize_record(TagRecord("a", "u", ()), vocab, "tfidf")
        with pytest.raises(ValidationError):
            build_cooccurrence([], vocab, "tfidf")

    @pytest.mark.parametrize("weighting", ["binary", "confidence"])
    def test_matches_per_record_reference(self, weighting):
        rng = np.random.default_rng(3)
        words = [f"w{i:02d}" for i in range(40)]
        vocab = Vocabulary(tuple(words[::2]), 5, 2)  # odd words out of vocab
        for n_records in (0, 1, 7, 60):
            records = []
            for j in range(n_records):
                n_tags = int(rng.integers(0, 12))
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
            assert X.doc_ids == ref.doc_ids
            assert X.n_words == ref.n_words
            for got, want in ((X.rows, ref.rows), (X.cols, ref.cols),
                              (X.vals, ref.vals)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


def reference_cooccurrence(records, vocab, weighting):
    """One ``vectorize_record`` call per record, columns in record order."""
    rows, cols, vals = [], [], []
    for j, rec in enumerate(records):
        widx, wval = vectorize_record(rec, vocab, weighting)
        rows.extend(widx.tolist())
        cols.extend([j] * len(widx))
        vals.extend(wval.tolist())
    return CooccurrenceMatrix(vocab.size, [rec.image_id for rec in records],
                              np.asarray(rows, dtype=np.int64),
                              np.asarray(cols, dtype=np.int64),
                              np.asarray(vals, dtype=np.float64))
