import io
import json

import numpy as np
import pytest

from phototopics.corpus import (
    CooccurrenceMatrix,
    TagTableBuilder,
    Vocabulary,
    build_cooccurrence,
    build_vocabulary,
    decode_json,
    parse_tag_records,
    read_json_lines,
    vectorize_record,
)
from phototopics.exceptions import ValidationError

from conftest import dense, tag_record_line, tag_table


class TestParseTagRecords:
    def test_basic_line_lowercases(self):
        line = '{"image_id":"a","collection_id":"u1","tags":[{"tag":"Dog","confidence":0.9}]}'
        records = parse_tag_records([line])
        assert len(records) == 1
        assert records.image_ids == ["a"]
        assert records.collection_id(0) == "u1"
        assert records.record_tags(0) == [("dog", 0.9)]

    def test_empty_stream(self):
        assert len(parse_tag_records([])) == 0
        assert len(parse_tag_records(io.StringIO(""))) == 0

    def test_duplicate_tags_merged_keeping_max(self):
        line = tag_record_line("a", "u", [("dog", 0.4), ("Dog", 0.9)])
        records = parse_tag_records([line])
        assert records.record_tags(0) == [("dog", 0.9)]

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
        [(tag, conf)] = parse_tag_records([line]).record_tags(0)
        assert (tag, conf) == ("x", 1.0) and type(conf) is float

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
        assert parse_tag_records([line]).image_ids == ["a"]


# Text json.loads cannot decode: it raises JSONDecodeError, RecursionError
# or, for an integer over Python's digit limit, a plain ValueError.
NOT_JSON = {"syntax": "{broken", "extra-data": "[1] 2",
            "deeply-nested": "[" * 100_000 + "]" * 100_000,
            "long-integer": '{"confidence": -' + "1" * 5000 + "}"}


class TestDecodeJson:
    def test_error_names_what(self):
        with pytest.raises(ValidationError) as info:
            decode_json("[", "model")
        assert str(info.value) == ("malformed model: Expecting value: "
                                   "line 1 column 2 (char 1)")

    @pytest.mark.parametrize("case", NOT_JSON)
    def test_line_that_is_not_json_names_what_and_line(self, case):
        with pytest.raises(ValidationError, match="^malformed x at line 3: "):
            list(read_json_lines(["1", "", NOT_JSON[case], "2"], "x"))

    @pytest.mark.parametrize("case", NOT_JSON)
    def test_tag_record_decode_error_named_once(self, case):
        """A decode error names its line once: it is not also given the
        " at line N" of a record that fails its checks."""
        with pytest.raises(ValidationError) as info:
            parse_tag_records([tag_record_line("a", "u", []), NOT_JSON[case]])
        message = str(info.value)
        assert message.startswith("malformed tag record at line 2: ")
        assert message.count("line 2") == 1


def _line(**change):
    obj = {"image_id": "b", "collection_id": "u",
           "tags": [{"tag": "dog", "confidence": 0.5}]}
    obj.update(change)
    return json.dumps(obj)


def _tags(*entries):
    return _line(tags=[{"tag": t, "confidence": c} for t, c in entries])


GOOD = tag_record_line("a", "u", [("dog", 0.5)])

# Malformed tag records and the exact error each one gets. Two faults in
# one record report the one checked first: key lookups, then id types,
# then the tag list, then each entry's confidence type, tag type and
# confidence range, then an empty image id, then each tag's word check.
GOLDEN_ERRORS = {
    "bad-json": (["{broken"],
                 "malformed tag record at line 1: Expecting property name "
                 "enclosed in double quotes: line 1 column 2 (char 1)"),
    "missing-key": (['{"image_id": "b", "collection_id": "u"}'],
                    "malformed tag record: KeyError('tags') at line 1"),
    "missing-entry-key": ([_line(tags=[{"tag": "dog"}])],
                          "malformed tag entry: KeyError('confidence') at line 1"),
    "not-an-object": (["5"],
                      "malformed tag record: TypeError(\"'int' object is not "
                      "subscriptable\") at line 1"),
    "image-id-number": ([_line(image_id=7)],
                        "malformed tag record: image_id and collection_id "
                        "must be strings at line 1"),
    "collection-id-null": ([_line(collection_id=None)],
                           "malformed tag record: image_id and collection_id "
                           "must be strings at line 1"),
    "tags-not-a-list": ([_line(tags={"dog": 0.5})],
                        "malformed tag record: tags must be a list at line 1"),
    "tag-number": ([_tags((3, 0.5))],
                   "malformed tag entry: tag 3 is not a string at line 1"),
    "confidence-true": ([_tags(("dog", True))],
                        "malformed tag entry: confidence True is not a number "
                        "at line 1"),
    "confidence-nan": (['{"image_id": "b", "collection_id": "u", '
                        '"tags": [{"tag": "dog", "confidence": NaN}]}'],
                       "confidence nan outside [0, 1] at line 1"),
    "confidence-above-1": ([_tags(("dog", 1.5))],
                           "confidence 1.5 outside [0, 1] at line 1"),
    "confidence-below-0": ([_tags(("dog", -0.25))],
                           "confidence -0.25 outside [0, 1] at line 1"),
    "empty-image-id": ([_line(image_id="")],
                       "image_id must be non-empty at line 1"),
    "blank-tag": ([_tags(("cat", 0.5), ("  ", 0.5))],
                  "tag '  ' in record 'b' is empty or blank, or contains a "
                  "line break at line 1"),
    "cr-in-tag": ([_tags(("A\rB", 0.5))],
                  "tag 'a\\rb' in record 'b' is empty or blank, or contains a "
                  "line break at line 1"),
    "repeat-bad-first": ([_tags(("x", -0.5), ("X", 0.3))],
                         "confidence -0.5 outside [0, 1] at line 1"),
    "repeat-bad-last": ([_tags(("x", 0.3), ("X", 7))],
                        "confidence 7.0 outside [0, 1] at line 1"),
    "line-3": ([GOOD, "", _tags(("dog", "0.5"))],
               "malformed tag entry: confidence '0.5' is not a number at line 3"),
    "empty-id-and-blank-tag": ([_line(image_id="", tags=[{"tag": "", "confidence": 0.5}])],
                               "image_id must be non-empty at line 1"),
    "empty-id-and-bad-confidence": ([_line(image_id="", tags=[{"tag": "x", "confidence": 2}])],
                                    "confidence 2.0 outside [0, 1] at line 1"),
    "blank-tag-then-bad-confidence": ([_tags((" ", 0.5), ("x", 2))],
                                      "confidence 2.0 outside [0, 1] at line 1"),
    "confidence-type-and-tag-type": ([_tags((3, None))],
                                     "malformed tag entry: confidence None is "
                                     "not a number at line 1"),
    "id-type-and-tags-type": ([_line(image_id=7, tags=5)],
                              "malformed tag record: image_id and collection_id "
                              "must be strings at line 1"),
    "two-bad-tags": ([_tags(("a\nb", 0.5), ("", 0.5))],
                     "tag 'a\\nb' in record 'b' is empty or blank, or contains "
                     "a line break at line 1"),
}


@pytest.mark.parametrize("case", GOLDEN_ERRORS)
def test_malformed_record_error_text(case):
    lines, message = GOLDEN_ERRORS[case]
    with pytest.raises(ValidationError) as info:
        parse_tag_records(lines)
    assert str(info.value) == message


class TestTagRecord:
    """The per-record rules of ``TagTableBuilder.add``; a record that
    breaks one adds nothing to the table."""

    def test_empty_image_id_rejected(self):
        builder = TagTableBuilder()
        with pytest.raises(ValidationError, match="image_id must be non-empty"):
            builder.add({"image_id": "", "collection_id": "u", "tags": []})
        assert len(builder.build()) == 0

    @pytest.mark.parametrize("tag", ["", " ", "\t", "a\nb", "a\rb", "dog\n"])
    def test_tag_a_vocabulary_file_cannot_hold_rejected(self, tag):
        builder = TagTableBuilder()
        builder.add({"image_id": "a", "collection_id": "u",
                     "tags": [{"tag": "dog", "confidence": 0.5}]})
        with pytest.raises(ValidationError, match="empty or blank"):
            builder.add({"image_id": "b", "collection_id": "v",
                         "tags": [{"tag": "cat", "confidence": 0.5},
                                  {"tag": tag, "confidence": 0.5}]})
        table = builder.build()
        assert table.image_ids == ["a"]
        assert table.collections == ["u"]
        assert table.tags == ["dog"]
        assert table.offsets.tolist() == [0, 1]


    @pytest.mark.parametrize("bad", [
        {"tag": "dog", "confidence": "0.5"}, {"tag": " ", "confidence": 0.5},
        {"tag": "cow", "confidence": 1.5}, {"confidence": 0.5}])
    def test_failed_record_adds_nothing(self, bad):
        """Tags a failed record met first are not kept: a later record
        interns them afresh, and a blank one is still checked."""
        builder = TagTableBuilder()
        builder.add({"image_id": "a", "collection_id": "u",
                     "tags": [{"tag": "ant", "confidence": 0.5}]})
        with pytest.raises(ValidationError):
            builder.add({"image_id": "b", "collection_id": "v",
                         "tags": [{"tag": "Cat", "confidence": 0.5},
                                  {"tag": "ant", "confidence": 0.5}, bad]})
        with pytest.raises(ValidationError, match="empty or blank"):
            builder.add({"image_id": "c", "collection_id": "u",
                         "tags": [{"tag": " ", "confidence": 0.5}]})
        builder.add({"image_id": "d", "collection_id": "u",
                     "tags": [{"tag": "dog", "confidence": 0.5},
                              {"tag": "cat", "confidence": 0.25}]})
        table = builder.build()
        assert table.image_ids == ["a", "d"]
        assert table.tags == ["ant", "dog", "cat"]
        assert table.tag_ids.tolist() == [0, 1, 2]
        assert table.record_tags(1) == [("dog", 0.5), ("cat", 0.25)]


def _records(spec):
    """spec: list of (image_id, collection_id, [tags])."""
    return tag_table([(i, c, [(t, 0.5) for t in tags]) for i, c, tags in spec])


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
        v1 = build_vocabulary(_records(spec), 5, 2)
        v2 = build_vocabulary(_records(list(reversed(spec))), 5, 2)
        assert v1 == v2
        assert v1.words == ("ant", "zebra")

    @pytest.mark.parametrize("min_count, min_collections",
                             [(1, 1), (2, 2), (3, 1), (1, 3), (6, 4)])
    def test_matches_counting_reference(self, min_count, min_collections):
        """The numpy counts keep exactly the words a count over every
        (record, tag) pair keeps; repeated tags in a record count once."""
        rng = np.random.default_rng(5)
        words = [f"w{i:02d}" for i in range(30)]
        spec = []
        for j in range(80):
            tags = rng.choice(words[:int(rng.integers(1, 31))],
                              size=int(rng.integers(0, 8)))  # with repeats
            spec.append((f"img{j}", f"u{int(rng.integers(0, 6))}",
                         [str(t) for t in tags]))
        counts, collections = {}, {}
        for _image_id, collection_id, tags in spec:
            for tag in set(tags):
                counts[tag] = counts.get(tag, 0) + 1
                collections.setdefault(tag, set()).add(collection_id)
        want = sorted(t for t, n in counts.items()
                      if n > min_count and len(collections[t]) >= min_collections)
        vocab = build_vocabulary(_records(spec), min_count, min_collections)
        assert vocab.words == tuple(want)
        assert 0 < len(want) < len(counts)

    def test_invalid_thresholds(self):
        with pytest.raises(ValidationError):
            build_vocabulary(tag_table([]), min_count=0)

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
        rec = tag_table([("a", "u", [("dog", 0.9)])])
        X = build_cooccurrence(rec, vocab, "binary")
        assert dense(X).tolist() == [[1.0]]

    def test_confidence_weighting(self):
        vocab = Vocabulary(("dog",))
        rec = tag_table([("a", "u", [("dog", 0.9)])])
        X = build_cooccurrence(rec, vocab, "confidence")
        assert dense(X).tolist() == [[0.9]]

    def test_out_of_vocab_doc_kept_as_empty_column(self):
        vocab = Vocabulary(("dog",))
        rec = tag_table([("a", "u", [("giraffe", 0.9)])])
        X = build_cooccurrence(rec, vocab)
        assert X.n_docs == 1
        assert X.nnz == 0

    def test_binary_column_sums_count_in_vocab_tags(self):
        vocab = Vocabulary(("ant", "bee", "cat"))
        recs = tag_table([
            ("a", "u", [("ant", 0.1), ("bee", 0.2), ("zzz", 0.3)]),
            ("b", "u", [("cat", 0.9)]),
        ])
        X = build_cooccurrence(recs, vocab)
        sums = dense(X).sum(axis=0)
        assert sums.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("val", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, val):
        with pytest.raises(ValidationError, match="finite"):
            CooccurrenceMatrix(1, 2, [0, 0], [0, 1], [1.0, val])

    def test_unknown_weighting_rejected(self):
        vocab = Vocabulary(("dog",))
        with pytest.raises(ValidationError):
            vectorize_record(tag_table([("a", "u", [])]), vocab, "tfidf")
        with pytest.raises(ValidationError):
            build_cooccurrence(tag_table([]), vocab, "tfidf")

    def test_vectorize_record_takes_one_record(self):
        vocab = Vocabulary(("dog",))
        for n in (0, 2):
            with pytest.raises(ValidationError, match="one record"):
                vectorize_record(tag_table([(f"i{j}", "u", []) for j in range(n)]),
                                 vocab)

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
                records.append((f"img{j}", "u",
                                [(str(t), float(rng.random())) for t in tags]))
            X = build_cooccurrence(tag_table(records), vocab, weighting)
            ref = reference_cooccurrence(records, vocab, weighting)
            assert X.n_docs == ref.n_docs
            assert X.n_words == ref.n_words
            for got, want in ((X.rows, ref.rows), (X.cols, ref.cols),
                              (X.vals, ref.vals)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            for j, rec in enumerate(records):
                widx, wval = vectorize_record(tag_table([rec]), vocab, weighting)
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
    """One entry per in-vocabulary tag of the (image_id, collection_id,
    [(tag, confidence)]) triples, sorted by document, then word."""
    entries = sorted(
        (j, vocab.index[tag], 1.0 if weighting == "binary" else conf)
        for j, (_image_id, _collection_id, tags) in enumerate(records)
        for tag, conf in tags
        if tag in vocab.index)
    cols, rows, vals = zip(*entries) if entries else ((), (), ())
    return CooccurrenceMatrix(vocab.size, len(records),
                              np.asarray(rows, dtype=np.int64),
                              np.asarray(cols, dtype=np.int64),
                              np.asarray(vals, dtype=np.float64))
