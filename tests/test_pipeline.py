import hashlib
import io
import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import unquote

import numpy as np
import pytest

from phototopics import corpus
from phototopics.cli import main
from phototopics.corpus import Vocabulary, vectorize_record
from phototopics.exceptions import InputOutputError, TransportError, ValidationError
from phototopics.naming import TopicNaming
from phototopics.pipeline import (
    CategoryScores,
    emit_manifest,
    fetch_tags,
    fold_in_records,
    load_category_registry,
    load_category_scores,
    organize_collection,
)
from phototopics.plsa import PlsaModel, top_words, train

from conftest import fold_in_one, make_corpus, planted_corpus, tag_table


def _toy_model_and_vocab():
    vocab = Vocabulary(("beach", "dog", "pizza"))
    pwz = np.array([[0.98, 0.01, 0.01],
                    [0.01, 0.98, 0.01]])
    model = PlsaModel(pwz, np.zeros((0, 2)), np.array([0.5, 0.5]),
                      seed=0, vocab_hash=vocab.digest())
    return model, vocab


def _names():
    return [TopicNaming(0, "Food and Drinks", (1.0, 0.0), False),
            TopicNaming(1, "Pets and Animals", (0.0, 1.0), False)]


def test_vocabulary_hashed_once_when_built(monkeypatch):
    """Organizing albums and listing top words reuse the digest taken when
    the vocabulary was built; nothing is hashed per call."""
    model, vocab = _toy_model_and_vocab()
    calls = []
    real = corpus.hashlib.sha256

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(corpus.hashlib, "sha256", spy)
    for album in ([("a1", "u", [("beach", 1.0)])],
                  [("b1", "v", [("dog", 1.0)]), ("b2", "v", [("pizza", 1.0)])]):
        organize_collection(tag_table(album), model, vocab, _names())
    for topic in range(model.n_topics):
        top_words(model, vocab, topic)
    assert calls == []
    assert vocab.digest() == hashlib.sha256(b"beach\ndog\npizza").hexdigest()


class TestCategoryRegistry:
    def test_shipped_registry_has_eight_topics(self):
        registry = load_category_registry()
        assert len(registry) == 8
        assert "screenshot" in registry["Text and Visual"]
        assert len(registry["Text and Visual"]) == 11
        assert len(registry["Sport and Adventure"]) == 40
        assert "paella" in registry["Food and Drinks"]
        assert len(registry["Food and Drinks"]) == 101
        assert "hare" in registry["Pets and Animals"]

    def test_custom_registry_stream(self):
        registry = load_category_registry(["T\tc1", "T\tc2"])
        assert registry == {"T": {"c1", "c2"}}

    def test_fields_stripped_comments_and_blanks_skipped(self):
        registry = load_category_registry([" T \t c1 \n", "# T\tc3", "", "T\tc2"])
        assert registry == {"T": {"c1", "c2"}}

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValidationError, match="registry line 2"):
            load_category_registry(["T\tc1", "T\tc2\textra"])


class TestLoadCategoryScores:
    def test_valid_line_accepted(self):
        line = json.dumps({"image_id": "a", "topic": "Text and Visual",
                           "category": "screenshot", "score": 0.7})
        integer = json.dumps({"image_id": "a", "topic": "Text and Visual",
                              "category": "map", "score": 1})
        scores = load_category_scores([line, integer])
        assert scores.by_image["a"] == [("Text and Visual", "screenshot", 0.7),
                                        ("Text and Visual", "map", 1.0)]

    def test_wrong_topic_category_rejected(self):
        line = json.dumps({"image_id": "a", "topic": "Food and Drinks",
                           "category": "tiger", "score": 0.7})
        with pytest.raises(ValidationError, match="tiger"):
            load_category_scores([line])

    def test_empty_stream(self):
        assert load_category_scores([]).by_image == {}

    def test_score_out_of_range(self):
        line = json.dumps({"image_id": "a", "topic": "Text and Visual",
                           "category": "screenshot", "score": 1.2})
        with pytest.raises(ValidationError):
            load_category_scores([line])

    def test_repeated_triple_names_its_line(self):
        entry = {"image_id": "a", "topic": "Text and Visual",
                 "category": "screenshot", "score": 0.7}
        other = {**entry, "category": "map"}
        lines = [json.dumps(entry), json.dumps(other),
                 json.dumps({**entry, "score": 0.9})]
        with pytest.raises(ValidationError,
                           match="malformed score line 3: .* listed twice"):
            load_category_scores(lines)

    def test_best_for_topic_ignores_cross_topic(self):
        scores = CategoryScores({"a": [("Food and Drinks", "paella", 0.8),
                                       ("Pets and Animals", "hare", 0.9)]})
        assert scores.best_for_topic("a", "Food and Drinks") == ("paella", 0.8)


class TestOrganizeCollection:
    def test_category_gated_by_topic(self):
        model, vocab = _toy_model_and_vocab()
        records = tag_table([("a", "u1", [("pizza", 0.9)])])
        scores = CategoryScores({"a": [("Food and Drinks", "paella", 0.8),
                                       ("Pets and Animals", "hare", 0.9)]})
        coll = organize_collection(records, model, vocab, names=_names(),
                                   scores=scores)
        assert coll.topics[0] == "Food and Drinks"
        assert coll.categories[0] == ("paella", 0.8)

    def test_without_scores_topics_only(self):
        model, vocab = _toy_model_and_vocab()
        records = tag_table([("a", "u1", [("dog", 0.9)])])
        coll = organize_collection(records, model, vocab, names=_names())
        assert coll.topics[0] == "Pets and Animals"
        assert coll.categories is None

    def test_null_image_carries_no_category(self):
        model, vocab = _toy_model_and_vocab()
        records = tag_table([("a", "u1", [])])  # empty doc -> uniform mixture
        scores = CategoryScores({"a": [("Food and Drinks", "paella", 0.8)]})
        coll = organize_collection(records, model, vocab, names=_names(),
                                   threshold=0.9, scores=scores)
        assert coll.topics[0] == "Null"
        assert coll.categories[0] is None

    def test_vocab_hash_mismatch_is_hard_error(self):
        model, _vocab = _toy_model_and_vocab()
        other = Vocabulary(("axolotl", "dog", "pizza"))
        with pytest.raises(ValidationError, match="vocabulary"):
            organize_collection(tag_table([("a", "u", [])]), model, other)

    def test_image_conservation_and_coverage(self):
        model, vocab = _toy_model_and_vocab()
        records = tag_table([(f"img{i}", "u1", [("dog", 0.9)]) for i in range(5)]
                            + [("empty", "u1", [])])
        coll = organize_collection(records, model, vocab, names=_names(),
                                   threshold=0.6)
        assert len(coll.image_ids) == len(coll.topics) == len(records)
        assert coll.mixtures.shape == (len(records), 2)
        assert coll.coverage == 5 / 6

    @pytest.mark.parametrize("second, match", [
        (TopicNaming(True, "Pets and Animals", (), False),
         "^topic must be an integer >= 0; got True$"),
        (TopicNaming(np.int64(1), 5, (), False), "^naming result must name every "
         "topic once, in topic order, with a string$"),
        (TopicNaming(2, "Pets and Animals", (), False), "^naming result"),
    ], ids=["topic-bool", "name-int", "topic-off"])
    def test_names_checked(self, second, match):
        model, vocab = _toy_model_and_vocab()
        with pytest.raises(ValidationError, match=match):
            organize_collection(tag_table([]), model, vocab,
                                names=[_names()[0], second])

    def test_numpy_topic_accepted(self):
        model, vocab = _toy_model_and_vocab()
        names = [TopicNaming(np.int64(k), n.name, n.scores, n.duplicate)
                 for k, n in enumerate(_names())]
        records = tag_table([("a", "u1", [("dog", 0.9)])])
        assert organize_collection(records, model, vocab, names=names).topics == \
            ["Pets and Animals"]

    def test_topic_named_null_keeps_its_own_label(self):
        """A topic that naming called "Null" is labelled ``Topic k``, as
        without names: in the manifest "Null" means only "below the
        threshold", and only those images are uncovered."""
        model, vocab = _toy_model_and_vocab()
        names = [_names()[0], TopicNaming(1, "Null", (0.0, 0.0), True)]
        records = tag_table([("a", "u1", [("dog", 0.9)]),
                             ("b", "u1", [("beach", 0.9)]),
                             ("c", "u1", [])])
        coll = organize_collection(records, model, vocab, names=names,
                                   threshold=0.6)
        assert coll.topics == [
            "Topic 1", "Food and Drinks", "Null"]
        assert coll.index == {"Topic 1": {"": ["a"]},
                              "Food and Drinks": {"": ["b"]},
                              "Null": {"": ["c"]}}
        assert coll.coverage == 2 / 3

    def test_duplicate_image_id_rejected(self):
        model, vocab = _toy_model_and_vocab()
        records = tag_table([(i, "u1", [("dog", 0.9)])
                             for i in ("b", "a", "c", "a", "b")])
        with pytest.raises(ValidationError, match="duplicate image_id 'a'"):
            organize_collection(records, model, vocab)
        with pytest.raises(ValidationError, match="duplicate image_id 'a'"):
            organize_collection(records, model, vocab, names=[])  # checked first


class TestFoldInRecords:
    @pytest.mark.parametrize("weighting", ["binary", "confidence"])
    def test_equals_per_record_fold_in(self, weighting):
        """One batched fold-in gives every record, bit for bit, the mixture
        ``plsa.fold_in`` gives it alone: records without in-vocabulary
        tags and records whose confidences are all 0 included."""
        X, _labels = planted_corpus(n_docs=40)
        vocab = Vocabulary(tuple(f"w{i:02d}" for i in range(X.n_words)))
        model = train(X, n_topics=3, seed=0, vocab=vocab)
        rng = np.random.default_rng(7)
        records = []
        for j in range(60):
            words = rng.choice(vocab.words + ("yak", "zebra"),
                               size=int(rng.integers(0, 12)), replace=False)
            confs = np.zeros(len(words)) if j % 4 == 0 else rng.random(len(words))
            records.append((f"img{j}", "u",
                            [(str(w), float(c)) for w, c in zip(words, confs)]))
        records += [("oov", "u", [("zebra", 0.5)]), ("no-tags", "u", [])]
        got = fold_in_records(tag_table(records), model, vocab, weighting)
        assert got.shape == (len(records), 3)
        for rec, row in zip(records, got):
            alone = fold_in_one(model, *vectorize_record(tag_table([rec]), vocab,
                                                         weighting))
            assert np.array_equal(row, alone), rec[0]
        uniform = [not any(t in vocab.index and (c > 0 or weighting == "binary")
                           for t, c in tags) for _i, _c, tags in records]
        assert sum(uniform) > 2
        assert np.all(got[uniform] == 1 / 3)
        assert not np.any(got[np.logical_not(uniform)] == 1 / 3)


class TestEmitManifest:
    def test_deterministic_bytes(self):
        model, vocab = _toy_model_and_vocab()
        records = tag_table([("b", "u1", [("dog", 0.9)]),
                             ("a", "u1", [("pizza", 0.5)])])
        coll = organize_collection(records, model, vocab, names=_names())
        s1, s2 = io.BytesIO(), io.BytesIO()
        emit_manifest(coll, s1)
        emit_manifest(coll, s2)
        assert s1.getvalue() == s2.getvalue()

    def test_empty_collection_valid_json(self):
        model, vocab = _toy_model_and_vocab()
        coll = organize_collection(tag_table([]), model, vocab, names=_names())
        sink = io.BytesIO()
        n = emit_manifest(coll, sink)
        payload = json.loads(sink.getvalue())
        assert n == len(sink.getvalue())
        assert payload["images"] == []

    def test_null_image_listed_under_null(self):
        model, vocab = _toy_model_and_vocab()
        coll = organize_collection(tag_table([("a", "u1", [])]), model, vocab,
                                   names=_names(), threshold=0.9)
        sink = io.BytesIO()
        emit_manifest(coll, sink)
        payload = json.loads(sink.getvalue())
        assert payload["index"]["Null"][""] == ["a"]
        assert "category" not in payload["images"][0]

    def test_write_error_is_an_input_output_error(self):
        class FullDisk:
            def write(self, data):
                raise OSError(28, "No space left on device")

        model, vocab = _toy_model_and_vocab()
        coll = organize_collection(tag_table([("a", "u1", [("dog", 0.9)])]),
                                   model, vocab, names=_names())
        with pytest.raises(InputOutputError, match=r"^manifest write failed: "
                           r"\[Errno 28\] No space left on device$"):
            emit_manifest(coll, FullDisk())


class _StubTagHandler(BaseHTTPRequestHandler):
    fixed = {
        "a": {"image_id": "a", "collection_id": "u1",
              "tags": [{"tag": "Dog", "confidence": 0.9}]},
        "b": {"image_id": "b", "collection_id": "u1",
              "tags": [{"tag": "cat", "confidence": 0.7}]},
        "bare": {"tags": [{"tag": "Dog", "confidence": 0.2},
                          {"tag": "dog", "confidence": 0.6}]},
        "bad": {"tags": [{"tag": "dog"}]},
        "e": {"tags": [{"tag": "dog", "confidence": 0.5}]},
        "e#f": {"tags": [{"tag": "cat", "confidence": 0.5}]},
        "liar": {"image_id": "a", "collection_id": "u2",
                 "tags": [{"tag": "cow", "confidence": 0.4}]},
    }

    def do_GET(self):
        self.server.paths.append(self.path)
        self.server.auth.append(self.headers.get("Authorization"))
        image_id = unquote(self.path[1:])
        if image_id == "hangup":  # close the connection without answering
            return
        if image_id in ("boom", "empty", "moved"):
            self.send_response({"boom": 500, "empty": 204, "moved": 302}[image_id])
            if image_id == "moved":
                self.send_header("Location", f"{self.server.moved_to}/e")
            self.end_headers()
            return
        record = self.fixed.get(image_id)
        if image_id == "deep":  # too deeply nested for json's decoder
            body = b"[" * 100_000 + b"]" * 100_000
        elif image_id == "huge":  # a confidence past the largest float
            body = b'{"tags": [{"tag": "dog", "confidence": %s}]}' % (b"9" * 400)
        elif record is None:
            self.send_response(404)
            self.end_headers()
            return
        else:
            body = json.dumps(record).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _serve_stub():
    server = HTTPServer(("127.0.0.1", 0), _StubTagHandler)
    server.paths = []
    server.auth = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def stub():
    """The stub tag server; ``paths`` lists the request paths it saw and
    ``auth`` the Authorization header of each (None when absent)."""
    yield from _serve_stub()


@pytest.fixture()
def other_stub():
    """A second stub tag server, on another port."""
    yield from _serve_stub()


@pytest.fixture()
def stub_server(stub):
    return f"http://127.0.0.1:{stub.server_port}"


class TestFetchTags:
    def test_fixed_tags_returned(self, stub_server):
        records, failures = fetch_tags(stub_server, ["a"])
        assert failures == []
        assert records.image_ids == ["a"]
        assert records.record_tags(0) == [("dog", 0.9)]

    def test_partial_failure(self, stub_server):
        records, failures = fetch_tags(stub_server, ["a", "boom", "b"])
        assert records.image_ids == ["a", "b"]
        assert failures == [("boom", "HTTP 500")]

    def test_record_defaults_merge_and_bad_response(self, stub_server):
        records, failures = fetch_tags(stub_server, ["bare", "bad"])
        assert records.image_ids == ["bare"]
        assert records.collection_id(0) == ""
        assert records.record_tags(0) == [("dog", 0.6)]
        assert [image_id for image_id, _ in failures] == ["bad"]
        assert failures[0][1].startswith("bad response")

    def test_deeply_nested_response_fails_its_id_alone(self, stub_server):
        records, failures = fetch_tags(stub_server, ["a", "deep", "b"])
        assert records.image_ids == ["a", "b"]
        assert [image_id for image_id, _ in failures] == ["deep"]
        assert failures[0][1].startswith("bad response: malformed tag record: ")

    def test_cli_writes_one_line_per_record(self, stub_server, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert main(["fetch-tags", "a", "boom", "bare", "bad",
                     "--endpoint", stub_server, "-o", str(out)]) == 0
        assert out.read_text() == (
            '{"collection_id": "u1", "image_id": "a", '
            '"tags": [{"confidence": 0.9, "tag": "dog"}]}\n'
            '{"collection_id": "", "image_id": "bare", '
            '"tags": [{"confidence": 0.6, "tag": "dog"}]}\n')
        assert "fetched 2 records, 2 failures" in capsys.readouterr().out

    def test_ids_are_encoded_as_one_path_segment(self, stub, stub_server):
        """Reserved characters and spaces in an id are percent-encoded, so
        each id asks for itself: ``e#f`` does not get the tags of ``e``
        and ``../x`` stays below the endpoint. The dot segments ``.`` and
        ``..``, which no encoding keeps below it, fail without a request."""
        ids = ["a/b", ".", "c?d=1", "e#f", "..", "g h", "../x"]
        records, failures = fetch_tags(stub_server, ids)
        assert stub.paths == ["/a%2Fb", "/c%3Fd%3D1", "/e%23f", "/g%20h",
                              "/..%2Fx"]
        assert records.image_ids == ["e#f"]
        assert records.record_tags(0) == [("cat", 0.5)]
        assert failures == [
            (i, "id is a dot segment" if i in (".", "..") else "HTTP 404")
            for i in ids if i != "e#f"]

    def test_record_naming_another_image_fails_its_id(self, stub, stub_server):
        """``liar`` answers with the record of ``a``: it is not filed under
        ``a``, and ``a`` itself still loads with its own collection."""
        records, failures = fetch_tags(stub_server, ["liar", "a"])
        assert records.image_ids == ["a"]
        assert (records.collection_id(0), records.record_tags(0)) == (
            "u1", [("dog", 0.9)])
        assert failures == [("liar", "bad response: record names image 'a'")]
        assert stub.paths == ["/liar", "/a"]

    def test_empty_id_fails_without_a_request(self, stub, stub_server):
        """The empty id would ask for the endpoint itself."""
        records, failures = fetch_tags(stub_server, ["", "a"])
        assert records.image_ids == ["a"]
        assert failures == [("", "id is empty")]
        assert stub.paths == ["/a"]

    def test_repeated_id_fetched_once(self, stub, stub_server):
        """A repeat would file a second record under the same id, which
        ``organize`` rejects; it fails without a request instead."""
        records, failures = fetch_tags(stub_server, ["a", "b", "a"])
        assert stub.paths == ["/a", "/b"]
        assert records.image_ids == ["a", "b"]
        assert failures == [("a", "id is repeated")]

    def test_cli_rejects_ids_from_two_sources(self, stub, stub_server,
                                              tmp_path, capsys):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("b\n")
        assert main(["fetch-tags", "a", "--ids-file", str(ids_file),
                     "--endpoint", stub_server]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--ids-file" in err
        assert "arguments" in err and "Traceback" not in err
        assert stub.paths == []

    @pytest.mark.parametrize("value", [None, ""])
    def test_cli_rejects_an_unset_api_key_variable(self, value, stub, stub_server,
                                                   monkeypatch, capsys):
        """An unset or empty variable would send every request without a
        key, and each would fail as HTTP 401; none is sent."""
        if value is None:
            monkeypatch.delenv("TAGGER_KEY", raising=False)
        else:
            monkeypatch.setenv("TAGGER_KEY", value)
        assert main(["fetch-tags", "a", "--endpoint", stub_server,
                     "--api-key-env", "TAGGER_KEY"]) == 2
        assert capsys.readouterr().err == (
            "error: environment variable TAGGER_KEY is not set\n")
        assert stub.paths == []

    def test_cli_sends_the_api_key_of_its_variable(self, stub, stub_server,
                                                   monkeypatch, tmp_path):
        monkeypatch.setenv("TAGGER_KEY", "k3y")
        assert main(["fetch-tags", "a", "--endpoint", stub_server,
                     "--api-key-env", "TAGGER_KEY",
                     "-o", str(tmp_path / "records.jsonl")]) == 0
        assert (stub.paths, stub.auth) == (["/a"], ["Bearer k3y"])

    def test_empty_ids_rejected(self, stub_server):
        with pytest.raises(ValidationError):
            fetch_tags(stub_server, [])

    def test_unreachable_endpoint(self):
        with pytest.raises(TransportError):
            fetch_tags("http://127.0.0.1:1", ["a"], timeout=0.5)

    def test_api_key_does_not_follow_a_redirect(self, stub, stub_server,
                                                other_stub):
        """``moved`` answers 302 with a Location on the other server: the
        record is fetched from there, but the key stays with the endpoint."""
        stub.moved_to = f"http://127.0.0.1:{other_stub.server_port}"
        records, failures = fetch_tags(stub_server, ["moved"], api_key="k3y")
        assert failures == []
        assert records.image_ids == ["moved"]
        assert records.record_tags(0) == [("dog", 0.5)]
        assert (stub.paths, stub.auth) == (["/moved"], ["Bearer k3y"])
        assert (other_stub.paths, other_stub.auth) == (["/e"], [None])

    def test_dropped_connection_fails_its_id_alone(self, stub, stub_server):
        records, failures = fetch_tags(stub_server, ["a", "hangup", "b"])
        assert records.image_ids == ["a", "b"]
        assert [image_id for image_id, _ in failures] == ["hangup"]
        assert failures[0][1]
        assert stub.paths == ["/a", "/hangup", "/b"]

    def test_success_other_than_200_is_a_failure(self, stub_server):
        records, failures = fetch_tags(stub_server, ["empty", "a"])
        assert records.image_ids == ["a"]
        assert failures == [("empty", "HTTP 204")]

    def test_confidence_past_the_float_range_fails_its_id(self, stub_server):
        records, failures = fetch_tags(stub_server, ["huge", "a"])
        assert records.image_ids == ["a"]
        assert failures == [
            ("huge", "bad response: confidence inf outside [0, 1]")]

    @pytest.mark.parametrize("endpoint", ["foo", "ftp://x/tags", "http://"])
    def test_cli_rejects_an_endpoint_that_is_not_http(
            self, endpoint, monkeypatch, capsys):
        opened = []
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda *args, **kwargs: opened.append(args))
        assert main(["fetch-tags", "a", "--endpoint", endpoint]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad endpoint ") and "Traceback" not in err
        assert opened == []
