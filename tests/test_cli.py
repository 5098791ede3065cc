import builtins
import json
from pathlib import Path

import numpy as np
import pytest

from phototopics import coherence as coh
from phototopics import plsa
from phototopics.cli import main
from phototopics.corpus import Vocabulary

from conftest import ANIMAL_WORDS, FOOD_WORDS, tag_record_line


def _write_collection(path):
    """Synthetic two-topic collection: food images and animal images."""
    rng = np.random.default_rng(0)
    lines = []
    for i in range(120):
        pool = FOOD_WORDS if i % 2 == 0 else ANIMAL_WORDS
        tags = rng.choice(pool, size=6, replace=False)
        lines.append(tag_record_line(f"img{i:03d}", f"u{i % 4}",
                                     [(t, 0.9) for t in tags]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def collection_file(tmp_path):
    return _write_collection(tmp_path / "records.jsonl")


def _taxonomy_files(tmp_path):
    tax_lines = ["root\t", "food\troot", "beverage\tfood",
                 "animal\troot", "pet\tanimal"]
    lex_lines = ["food\tfood", "drinks\tbeverage",
                 "animals\tanimal", "pets\tpet"]
    ic_lines = ["root\t0.0", "food\t1.0", "beverage\t1.5",
                "animal\t1.0", "pet\t1.5"]
    for w in FOOD_WORDS:
        tax_lines.append(f"n_{w}\tfood")
        lex_lines.append(f"{w}\tn_{w}")
        ic_lines.append(f"n_{w}\t2.0")
    for w in ANIMAL_WORDS:
        tax_lines.append(f"n_{w}\tpet")
        lex_lines.append(f"{w}\tn_{w}")
        ic_lines.append(f"n_{w}\t2.0")
    tax = tmp_path / "taxonomy.tsv"
    lex = tmp_path / "lexicon.tsv"
    ic = tmp_path / "ic.tsv"
    tax.write_text("\n".join(tax_lines) + "\n")
    lex.write_text("\n".join(lex_lines) + "\n")
    ic.write_text("\n".join(ic_lines) + "\n")
    return tax, lex, ic


def test_full_cli_chain(tmp_path, collection_file, capsys):
    vocab_path = tmp_path / "vocab.txt"
    model_path = tmp_path / "model.json"
    names_path = tmp_path / "names.json"
    manifest_path = tmp_path / "manifest.json"

    assert main(["build-vocab", str(collection_file), "-o", str(vocab_path),
                 "--min-count", "2", "--min-collections", "2"]) == 0
    assert vocab_path.read_text().splitlines() == sorted(
        vocab_path.read_text().splitlines())

    assert main(["train", str(collection_file), str(vocab_path),
                 "-o", str(model_path), "--topics", "2", "--seed", "7"]) == 0

    tax, lex, ic = _taxonomy_files(tmp_path)
    assert main(["name-topics", str(model_path), str(vocab_path),
                 "-o", str(names_path), "--taxonomy", str(tax),
                 "--lexicon", str(lex), "--ic", str(ic)]) == 0
    names = json.loads(names_path.read_text())
    assert {n["name"] for n in names} == {"Food and Drinks", "Pets and Animals"}

    fold_path = tmp_path / "mixtures.jsonl"
    assert main(["fold-in", str(model_path), str(vocab_path),
                 str(collection_file), "-o", str(fold_path)]) == 0
    assert len(fold_path.read_text().splitlines()) == 120

    ref_corpus = tmp_path / "ref.txt"
    ref_corpus.write_text("\n".join(
        [" ".join(FOOD_WORDS)] * 3 + [" ".join(ANIMAL_WORDS)] * 3
        + ["noise words only"]) + "\n")
    coh_path = tmp_path / "coherence.json"
    assert main(["coherence", str(model_path), str(vocab_path),
                 "--ref-corpus", str(ref_corpus), "-o", str(coh_path),
                 "--top-n", "5"]) == 0
    payload = json.loads(coh_path.read_text())
    assert len(payload["topics"]) == 2

    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text(json.dumps(
        {"image_id": "img000", "topic": "Food and Drinks",
         "category": "paella", "score": 0.8}) + "\n")
    assert main(["organize", str(collection_file), str(model_path),
                 str(vocab_path), "-o", str(manifest_path),
                 "--names-result", str(names_path),
                 "--scores", str(scores_path)]) == 0
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest["images"]) == 120
    by_id = {e["image_id"]: e for e in manifest["images"]}
    assert by_id["img000"]["topic"] == "Food and Drinks"
    assert by_id["img000"]["category"] == "paella"


def test_organize_manifest_is_json_dumps_of_its_payload(tmp_path, collection_file,
                                                       trained):
    """With names and category scores, ``organize`` writes the bytes
    ``json.dumps(payload, sort_keys=True)`` writes for the
    payload rebuilt from ``fold-in``'s mixtures; an image id that needs
    escaping and images below the threshold included."""
    vocab_path, model_path = trained
    names_path = tmp_path / "names.json"
    names_path.write_text(json.dumps([
        {"topic": 1, "name": "Pets and Animals", "scores": [0.0, 1.0],
         "duplicate": False},
        {"topic": 0, "name": "Food and Drinks", "scores": [1.0, 0.0],
         "duplicate": False}]))
    scores = {(f"img{i:03d}", topic): (category, score)
              for i, topic, category, score in [
                  (0, "Food and Drinks", "paella", 0.8),
                  (0, "Pets and Animals", "hare", 0.9),
                  (1, "Pets and Animals", "hare", 0.25),
                  (1, "Food and Drinks", "paella", 0.5),
                  (2, "Pets and Animals", "hare", 1.0),
                  (2, "Food and Drinks", "paella", 0.0),
                  (3, "Food and Drinks", "paella", 0.5)]}
    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text("".join(
        json.dumps({"image_id": i, "topic": t, "category": c, "score": x}) + "\n"
        for (i, t), (c, x) in scores.items()))
    records_path = tmp_path / "album.jsonl"  # two images without known tags
    records_path.write_text(collection_file.read_text() + "".join(
        tag_record_line(i, "u9", tags) + "\n"
        for i, tags in [("img500", [("unknown", 0.5)]), ("\u00e9\"x", [])]))
    fold_path = tmp_path / "mixtures.jsonl"
    assert main(["fold-in", str(model_path), str(vocab_path),
                 str(records_path), "-o", str(fold_path)]) == 0
    manifest_path = tmp_path / "manifest.json"
    assert main(["organize", str(records_path), str(model_path),
                 str(vocab_path), "-o", str(manifest_path), "--threshold", "0.9",
                 "--names-result", str(names_path),
                 "--scores", str(scores_path)]) == 0

    labels = ["Food and Drinks", "Pets and Animals"]
    images, index = [], {}
    for entry in sorted(map(json.loads, fold_path.read_text().splitlines()),
                        key=lambda e: e["image_id"]):
        top = int(np.argmax(entry["mixture"]))
        topic = labels[top] if entry["mixture"][top] >= 0.9 else "Null"
        image = {"image_id": entry["image_id"], "mixture": entry["mixture"],
                 "topic": topic}
        category = scores.get((entry["image_id"], topic))
        if category is not None:
            image.update(category=category[0], category_score=category[1])
        images.append(image)
        index.setdefault(topic, {}).setdefault(
            category[0] if category else "", []).append(entry["image_id"])
    covered = sum(image["topic"] != "Null" for image in images)
    payload = {"format_version": 1, "collection_id": "u0",
               "model_hash": json.loads(model_path.read_text())["vocab_hash"],
               "coverage": covered / len(images), "images": images,
               "index": index}
    assert 0 < covered < len(images)
    assert sum("category" in image for image in images) >= 3
    assert manifest_path.read_bytes() == json.dumps(
        payload, sort_keys=True).encode()


def test_missing_file_exits_3(tmp_path):
    assert main(["build-vocab", str(tmp_path / "nope.jsonl"),
                 "-o", str(tmp_path / "v.txt")]) == 3


def test_malformed_records_exit_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["build-vocab", str(bad), "-o", str(tmp_path / "v.txt")]) == 2


def test_invalid_scores_exit_2(tmp_path, collection_file):
    vocab_path = tmp_path / "vocab.txt"
    model_path = tmp_path / "model.json"
    main(["build-vocab", str(collection_file), "-o", str(vocab_path),
          "--min-count", "2"])
    main(["train", str(collection_file), str(vocab_path),
          "-o", str(model_path), "--topics", "2"])
    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text(json.dumps(
        {"image_id": "a", "topic": "Food and Drinks",
         "category": "tiger", "score": 0.5}) + "\n")
    assert main(["organize", str(collection_file), str(model_path),
                 str(vocab_path), "-o", str(tmp_path / "m.json"),
                 "--scores", str(scores_path)]) == 2


def test_vocab_mismatch_exit_2(tmp_path, collection_file):
    vocab_path = tmp_path / "vocab.txt"
    model_path = tmp_path / "model.json"
    main(["build-vocab", str(collection_file), "-o", str(vocab_path),
          "--min-count", "2"])
    main(["train", str(collection_file), str(vocab_path),
          "-o", str(model_path), "--topics", "2"])
    other = tmp_path / "other_vocab.txt"
    other.write_text("zebra\n")
    assert main(["fold-in", str(model_path), str(other),
                 str(collection_file), "-o", str(tmp_path / "f.jsonl")]) == 2


_MODEL_HEAD = b'{"n_topics": 2, "topic_prior": [0.5, 0.5], "seed": 0'


@pytest.mark.parametrize("content", [
    b"not json at all",
    b"[1, 2]",
    b"\xff\xfe not utf-8",
    _MODEL_HEAD + b"}",  # no word_given_topic
    _MODEL_HEAD + b', "word_given_topic": [0.5, 0.5]}',  # not K x M
])
def test_malformed_model_exit_2(tmp_path, collection_file, content):
    vocab_path = tmp_path / "vocab.txt"
    main(["build-vocab", str(collection_file), "-o", str(vocab_path),
          "--min-count", "2"])
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    assert main(["fold-in", str(model_path), str(vocab_path),
                 str(collection_file), "-o", str(tmp_path / "f.jsonl")]) == 2


@pytest.fixture()
def trained(tmp_path, collection_file):
    """Vocabulary and two-topic model trained on ``collection_file``."""
    vocab_path = tmp_path / "vocab.txt"
    model_path = tmp_path / "model.json"
    assert main(["build-vocab", str(collection_file), "-o", str(vocab_path),
                 "--min-count", "2"]) == 0
    assert main(["train", str(collection_file), str(vocab_path),
                 "-o", str(model_path), "--topics", "2"]) == 0
    return vocab_path, model_path


@pytest.mark.parametrize("command", ["fold-in", "organize"])
@pytest.mark.parametrize("change", [
    {"format_version": 99},
    {"negative_entry": True},
    {"format_version": 99, "negative_entry": True},
], ids=["version-99", "negative-entry", "both"])
def test_invalid_model_exit_2(tmp_path, collection_file, trained, command,
                              change):
    vocab_path, model_path = trained
    payload = json.loads(model_path.read_text())
    if "negative_entry" in change:  # row still sums to 1
        row = payload["word_given_topic"][0]
        row[0] -= 0.5
        row[1] += 0.5
    if "format_version" in change:
        payload["format_version"] = change["format_version"]
    model_path.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    if command == "fold-in":
        argv = ["fold-in", str(model_path), str(vocab_path),
                str(collection_file), "-o", str(out)]
    else:
        argv = ["organize", str(collection_file), str(model_path),
                str(vocab_path), "-o", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_non_utf8_input_exit_2(tmp_path, collection_file):
    records = tmp_path / "records.jsonl"
    records.write_bytes(b"\xff\xfe{}\n")
    assert main(["build-vocab", str(records), "-o", str(tmp_path / "v.txt")]) == 2
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_bytes(b"dog\n\xff\xfe\n")
    assert main(["train", str(collection_file), str(vocab_path),
                 "-o", str(tmp_path / "m.json"), "--topics", "2"]) == 2


@pytest.mark.parametrize("content", [
    "not json",
    '{"topic": 0}',
    '[{"topic": 0}]',
    '[{"topic": 0, "name": "A", "duplicate": false}]',  # no scores
    '[{"topic": 0, "name": "A", "scores": [1.0]}]',  # no duplicate
    '[{"topic": 0, "name": "A", "scores": [1.0], "duplicate": false},'
    ' {"topic": 0, "name": "B", "scores": [1.0], "duplicate": false}]',
])
def test_malformed_names_result_exit_2(tmp_path, collection_file, trained,
                                       content):
    vocab_path, model_path = trained
    names_path = tmp_path / "names.json"
    names_path.write_text(content)
    assert main(["organize", str(collection_file), str(model_path),
                 str(vocab_path), "-o", str(tmp_path / "m.json"),
                 "--names-result", str(names_path)]) == 2


def test_negative_seed_exit_2(tmp_path, collection_file, trained, capsys):
    vocab_path, _model_path = trained
    capsys.readouterr()
    assert main(["train", str(collection_file), str(vocab_path),
                 "-o", str(tmp_path / "m.json"), "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_ic_and_ic_counts_together_exit_2(tmp_path, trained, capsys):
    vocab_path, model_path = trained
    tax, lex, ic = _taxonomy_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["name-topics", str(model_path), str(vocab_path),
              "--taxonomy", str(tax), "--lexicon", str(lex),
              "--ic", str(ic), "--ic-counts", str(ic)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["2", "-0.1", "nan"])
def test_threshold_outside_unit_interval_exit_2(tmp_path, collection_file,
                                                trained, threshold):
    vocab_path, model_path = trained
    manifest_path = tmp_path / "m.json"
    assert main(["organize", str(collection_file), str(model_path),
                 str(vocab_path), "-o", str(manifest_path),
                 "--threshold", threshold]) == 2
    assert not manifest_path.exists()


def test_coherence_counts_only_scored_words(tmp_path, trained, monkeypatch):
    vocab_path, model_path = trained
    ref_corpus = tmp_path / "ref.txt"
    ref_corpus.write_text("\n".join(
        [" ".join(FOOD_WORDS)] * 3 + [" ".join(ANIMAL_WORDS[:4])] * 2
        + [" ".join(ANIMAL_WORDS)] + ["noise words only"]) + "\n")
    build = coh.build_corpus_stats
    seen = []

    def run(out, full_vocab):
        def spy(stream, vocab_filter=None):
            seen.append(vocab_filter)
            if full_vocab:
                vocab_filter = set(Vocabulary.load(vocab_path).words)
            return build(stream, vocab_filter=vocab_filter)

        monkeypatch.setattr(coh, "build_corpus_stats", spy)
        assert main(["coherence", str(model_path), str(vocab_path),
                     "--ref-corpus", str(ref_corpus), "-o", str(out),
                     "--top-n", "3"]) == 0
        return out.read_bytes()

    scored = run(tmp_path / "scored.json", full_vocab=False)
    model = plsa.PlsaModel.load(model_path)
    vocab = Vocabulary.load(vocab_path)
    top = {w for k in range(model.n_topics)
           for w, _p in plsa.top_words(model, vocab, k, 3)}
    assert seen[0] == top
    assert len(top) < vocab.size
    assert run(tmp_path / "full.json", full_vocab=True) == scored


@pytest.mark.parametrize("epsilon", ["1e-200", "nan", "inf"])
def test_unusable_epsilon_exit_2(tmp_path, trained, epsilon):
    vocab_path, model_path = trained
    ref_corpus = tmp_path / "ref.txt"
    ref_corpus.write_text("apple bread\ndog cat\n")
    out = tmp_path / "coherence.json"
    assert main(["coherence", str(model_path), str(vocab_path),
                 "--ref-corpus", str(ref_corpus), "-o", str(out),
                 "--epsilon", epsilon]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["name-topics", "coherence"])
def test_reordered_vocab_exit_2(tmp_path, trained, command):
    vocab_path, model_path = trained
    reordered = tmp_path / "reordered.txt"
    reordered.write_text("".join(
        w + "\n" for w in reversed(vocab_path.read_text().splitlines())))
    ref_corpus = tmp_path / "ref.txt"
    ref_corpus.write_text(" ".join(FOOD_WORDS) + "\n")
    tax, lex, ic = _taxonomy_files(tmp_path)
    out = tmp_path / "out.json"
    argv = {
        "name-topics": ["name-topics", str(model_path), str(reordered),
                        "--taxonomy", str(tax), "--lexicon", str(lex),
                        "--ic", str(ic)],
        "coherence": ["coherence", str(model_path), str(reordered),
                      "--ref-corpus", str(ref_corpus)],
    }[command]
    assert main(argv + ["-o", str(out)]) == 2
    assert not out.exists()


def test_duplicate_vocabulary_word_exit_2(tmp_path, collection_file, trained):
    vocab_path, model_path = trained
    words = vocab_path.read_text().splitlines()
    doubled = tmp_path / "doubled.txt"
    doubled.write_text("".join(w + "\n" for w in words + words[:1]))
    assert main(["train", str(collection_file), str(doubled),
                 "-o", str(tmp_path / "m.json"), "--topics", "2"]) == 2
    assert main(["fold-in", str(model_path), str(doubled),
                 str(collection_file), "-o", str(tmp_path / "f.jsonl")]) == 2


def test_empty_tag_in_vocabulary_exit_2(tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text("".join(
        tag_record_line(f"img{i}", f"u{i % 2}", [("", 0.5), ("dog", 0.5)])
        + "\n" for i in range(4)))
    vocab_path = tmp_path / "vocab.txt"
    assert main(["build-vocab", str(records), "-o", str(vocab_path),
                 "--min-count", "1"]) == 2
    assert not vocab_path.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exit_2(tmp_path, collection_file, trained, tol):
    vocab_path, _model_path = trained
    model_path = tmp_path / "m.json"
    assert main(["train", str(collection_file), str(vocab_path),
                 "-o", str(model_path), "--topics", "2", "--tol", tol]) == 2
    assert not model_path.exists()


def test_failed_open_closes_the_files_already_open(tmp_path, trained,
                                                   monkeypatch):
    vocab_path, model_path = trained
    tax, _lex, ic = _taxonomy_files(tmp_path)
    opened = []
    real_open = builtins.open

    def spy(*args, **kwargs):
        f = real_open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(builtins, "open", spy)
    code = main(["name-topics", str(model_path), str(vocab_path),
                 "--taxonomy", str(tax), "--lexicon", str(tmp_path / "nope.tsv"),
                 "--ic", str(ic), "-o", str(tmp_path / "names.json")])
    monkeypatch.undo()
    assert code == 3
    assert [f.name for f in opened][-1] == str(tax)
    assert all(f.closed for f in opened)


# -- every command, every input file kind, malformed ------------------------

MISSING = object()


def _truncate(valid: bytes) -> bytes:
    return valid[:len(valid) // 2]


def _patch(**change):
    """The valid JSON object with some keys replaced."""
    def apply(valid: bytes) -> bytes:
        payload = json.loads(valid)
        payload.update(change)
        return json.dumps(payload).encode()
    return apply


def _patch_from(key, make):
    """The valid JSON object with ``key`` replaced by ``make(payload)``."""
    def apply(valid: bytes) -> bytes:
        payload = json.loads(valid)
        payload[key] = make(payload)
        return json.dumps(payload).encode()
    return apply


def _patch_first(**change):
    """The valid JSON list with keys of its first entry replaced."""
    def apply(valid: bytes) -> bytes:
        payload = json.loads(valid)
        payload[0].update(change)
        return json.dumps(payload).encode()
    return apply


def _record(**fields) -> bytes:
    obj = {"image_id": "a", "collection_id": "u",
           "tags": [{"tag": "dog", "confidence": 0.5}]}
    obj.update(fields)
    return json.dumps(obj).encode() + b"\n"


def _tag(tag, confidence=0.5) -> bytes:
    return _record(tags=[{"tag": tag, "confidence": confidence}])


NOT_UTF8 = b"\xff\xfe not utf-8\n"

# Too deep for json's decoder, which raises RecursionError.
DEEPLY_NESTED = b"[" * 100_000 + b"]" * 100_000 + b"\n"


def _long_integer(patch):
    """``patch``'s output with the string "<long>" made a 5,000-digit
    integer, longer than Python converts from text by default."""
    def apply(valid: bytes) -> bytes:
        return patch(valid).replace(b'"<long>"', b"9" * 5000)
    return apply


# input kind -> the commands that read it, and malformed contents
SWEEP_INPUTS = {
    "records": (["build-vocab", "train", "fold-in", "organize"], {
        "missing": MISSING, "not-utf8": NOT_UTF8, "truncated": _truncate,
        "not-an-object": b"[1, 2]\n",
        "tags-not-a-list": _record(tags={"dog": 0.5}),
        "tag-entry-not-an-object": _record(tags=[["dog", 0.5]]),
        "confidence-text": _tag("dog", "high"),
        "confidence-above-1": _tag("dog", 1.5),
        "empty-tag": _tag(""), "blank-tag": _tag(" "),
        "newline-in-tag": _tag("a\nb"), "cr-in-tag": _tag("a\rb"),
        "empty-image-id": _record(image_id=""),
        "image-id-null": _record(image_id=None),
        "collection-id-number": _record(collection_id=5),
        "tag-null": _tag(None), "tag-object": _tag({"x": 1}),
        "confidence-bool": _tag("dog", True),
        "confidence-numeric-text": _tag("dog", "0.5"),
        "deeply-nested": DEEPLY_NESTED,
        "long-integer": _long_integer(lambda valid: _tag("dog", "<long>")),
        # under the digit limit, but past the largest float
        "huge-integer-confidence": _tag("dog", int("9" * 400)),
    }),
    "vocab": (["train", "fold-in", "name-topics", "coherence", "organize"], {
        "missing": MISSING, "not-utf8": NOT_UTF8,
        "duplicate-word": b"apple\napple\n", "blank-only": b"\n \n",
    }),
    "model": (["fold-in", "name-topics", "coherence", "organize"], {
        "missing": MISSING, "not-utf8": NOT_UTF8, "truncated": _truncate,
        "not-an-object": b"[1, 2]",
        "text-probabilities": _patch(word_given_topic=[["a", "b"], ["c", "d"]]),
        "seed-text": _patch(seed="abc"), "seed-negative": _patch(seed=-3),
        "seed-float": _patch(seed=1.7), "seed-bool": _patch(seed=True),
        "vocab-hash-number": _patch(vocab_hash=5),
        "prior-text": _patch(topic_prior="x"),
        "prior-numeric-text": _patch(topic_prior=["0.5", "0.5"]),
        "probabilities-bool": _patch_from("word_given_topic", lambda m: [
            [w == k for w in range(m["n_words"])] for k in range(m["n_topics"])]),
        "mixtures-numeric-text": _patch_from("doc_mixtures", lambda m: [
            [repr(p) for p in row] for row in m["doc_mixtures"]]),
        "mixtures-number": _patch(doc_mixtures=5),
        "likelihood-text": _patch(final_log_likelihood="x"),
        "no-format-version": _patch(format_version=None),
        "iters-text": _patch(n_iters="x"), "iters-negative": _patch(n_iters=-1),
        "iters-bool": _patch(n_iters=True), "iters-float": _patch(n_iters=2.0),
        "topics-text": _patch(n_topics="two"), "topics-off": _patch(n_topics=3),
        "words-off": _patch(n_words=1), "words-null": _patch(n_words=None),
        "likelihood-numeric-text": _patch(final_log_likelihood="1.5"),
        "likelihood-bool": _patch(final_log_likelihood=True),
        "deeply-nested": DEEPLY_NESTED,
        "long-integer": _long_integer(_patch(final_log_likelihood="<long>")),
    }),
    "names": (["organize"], {
        "missing": MISSING, "not-utf8": NOT_UTF8, "truncated": _truncate,
        "not-a-list": b'{"topic": 0}',
        "name-null": _patch_first(name=None),
        "name-list": _patch_first(name=["x"]),
        "scores-number": _patch_first(scores=5),
        "topic-float": _patch_first(topic=0.0),
        "topics-bool": lambda valid: json.dumps(
            [{**e, "topic": bool(e["topic"])} for e in json.loads(valid)]).encode(),
        "deeply-nested": DEEPLY_NESTED,
        "long-integer": _long_integer(_patch_first(topic="<long>")),
    }),
    "scores": (["organize"], {
        "missing": MISSING, "not-utf8": NOT_UTF8, "truncated": _truncate,
        "not-an-object": b"[1]\n", "score-text": _patch(score="high"),
        "score-above-1": _patch(score=1.5),
        "unregistered-category": _patch(category="tiger"),
        "image-id-null": _patch(image_id=None),
        "image-id-number": _patch(image_id=5),
        "topic-null": _patch(topic=None), "category-list": _patch(category=["x"]),
        "score-bool": _patch(score=True), "score-null": _patch(score=None),
        "score-numeric-text": _patch(score="0.5"),
        "repeated-triple": lambda valid: valid + _patch(score=0.2)(valid) + b"\n",
        "deeply-nested": DEEPLY_NESTED,
        "long-integer": _long_integer(_patch(score="<long>")),
    }),
    "name-defs": (["name-topics"], {
        "missing": MISSING, "not-utf8": NOT_UTF8,
        "two-fields": b"Food\tfood\n", "four-fields": b"Food\tfood\tdrinks\tx\n",
        "no-definitions": b"# none\n", "empty-name": b"\tfood\tdrinks\n",
    }),
    "taxonomy": (["name-topics"], {
        "missing": MISSING, "not-utf8": NOT_UTF8,
        "one-field": b"root\n", "three-fields": b"root\t\tx\n",
        "unknown-parent": b"root\t\nfood\tnope\n",
        "cycle": b"a\tb\nb\ta\n",
        "duplicate-synset": lambda valid: valid + b"food\troot\n",
    }),
    "lexicon": (["name-topics"], {
        "missing": MISSING, "not-utf8": NOT_UTF8,
        "one-field": b"food\n", "three-fields": b"food\tfood\tx\n",
        "unknown-synset": b"food\tnope\n",
        "duplicate-token": lambda valid: valid + b"Food\tfood\n",
    }),
    "ic": (["name-topics"], {
        "missing": MISSING, "not-utf8": NOT_UTF8,
        "text": b"root\tabc\n", "inf": b"root\tinf\n", "nan": b"root\tnan\n",
        "negative": b"root\t-1\n", "three-fields": b"root\t1\t2\n",
        "unknown-synset": b"nope\t1\n",
        "duplicate-synset": lambda valid: valid + b"food\t1.0\n",
    }),
    "counts": (["name-topics-counts"], {
        "missing": MISSING, "not-utf8": NOT_UTF8,
        "text": b"food\tx1\n", "inf": b"food\tinf\n", "nan": b"food\tnan\n",
        "negative": b"food\t-1\n", "one-field": b"food\n",
        "all-zero": b"food\t0\n", "total-overflows": b"food\t1e308\nanimal\t1e308\n",
        "duplicate-synset": lambda valid: valid + b"food\t3\n",
    }),
    "ref-corpus": (["coherence"], {
        "missing": MISSING, "not-utf8": NOT_UTF8, "empty": b"",
        "blank-lines-only": b"\n  \n",
    }),
    "ids": (["fetch-tags"], {
        "missing": MISSING, "not-utf8": NOT_UTF8, "empty": b"",
    }),
}

SWEEP_COMMANDS = {
    "build-vocab": lambda p: ["build-vocab", p["records"], "-o", p["out"]],
    "train": lambda p: ["train", p["records"], p["vocab"], "-o", p["out"],
                        "--topics", "2"],
    "fold-in": lambda p: ["fold-in", p["model"], p["vocab"], p["records"],
                          "-o", p["out"]],
    "name-topics": lambda p: ["name-topics", p["model"], p["vocab"],
                              "--taxonomy", p["taxonomy"], "--lexicon", p["lexicon"],
                              "--ic", p["ic"], "--names-file", p["name-defs"],
                              "-o", p["out"]],
    "name-topics-counts": lambda p: ["name-topics", p["model"], p["vocab"],
                                     "--taxonomy", p["taxonomy"],
                                     "--lexicon", p["lexicon"],
                                     "--ic-counts", p["counts"], "-o", p["out"]],
    "coherence": lambda p: ["coherence", p["model"], p["vocab"],
                            "--ref-corpus", p["ref-corpus"], "-o", p["out"]],
    "organize": lambda p: ["organize", p["records"], p["model"], p["vocab"],
                           "-o", p["out"], "--names-result", p["names"],
                           "--scores", p["scores"]],
    # the endpoint is never contacted: every case fails on the ids file
    "fetch-tags": lambda p: ["fetch-tags", "--ids-file", p["ids"],
                             "--endpoint", "http://127.0.0.1:9", "-o", p["out"]],
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of every kind; each command but fetch-tags exits 0 on them."""
    d = tmp_path_factory.mktemp("valid")
    tax, lex, ic = _taxonomy_files(d)
    paths = {"records": _write_collection(d / "records.jsonl"),
             "vocab": d / "vocab.txt", "model": d / "model.json",
             "names": d / "names.json", "taxonomy": tax, "lexicon": lex,
             "ic": ic, "counts": d / "counts.tsv", "name-defs": d / "defs.tsv",
             "scores": d / "scores.jsonl", "ref-corpus": d / "ref.txt",
             "ids": d / "ids.txt"}
    paths = {k: str(v) for k, v in paths.items()}
    assert main(["build-vocab", paths["records"], "-o", paths["vocab"],
                 "--min-count", "2"]) == 0
    assert main(["train", paths["records"], paths["vocab"], "-o", paths["model"],
                 "--topics", "2"]) == 0
    assert main(["name-topics", paths["model"], paths["vocab"],
                 "--taxonomy", paths["taxonomy"], "--lexicon", paths["lexicon"],
                 "--ic", paths["ic"], "-o", paths["names"]]) == 0
    (d / "counts.tsv").write_text("root\t0\nfood\t3\nanimal\t2\n")
    (d / "defs.tsv").write_text("Food and Drinks\tfood\tdrinks\n"
                                "Pets and Animals\tpets\tanimals\n")
    (d / "scores.jsonl").write_text(json.dumps(
        {"image_id": "img000", "topic": "Food and Drinks",
         "category": "paella", "score": 0.8}) + "\n")
    (d / "ref.txt").write_text(" ".join(FOOD_WORDS) + "\n"
                               + " ".join(ANIMAL_WORDS) + "\n")
    (d / "ids.txt").write_text("img000\n")
    for name, argv in SWEEP_COMMANDS.items():
        if name != "fetch-tags":
            assert main(argv({**paths, "out": str(d / "out")})) == 0, name
    return paths


@pytest.mark.parametrize("kind, case, command", [
    (kind, case, command)
    for kind, (commands, cases) in SWEEP_INPUTS.items()
    for case in cases for command in commands])
def test_malformed_input_exit_code(tmp_path, capsys, valid_inputs, kind, case,
                                   command):
    """Bad data exits 2 and an unreadable file 3, with a message and no
    traceback; an exception escaping ``main`` fails the test as it would
    exit 1."""
    content = SWEEP_INPUTS[kind][1][case]
    paths = {**valid_inputs, "out": str(tmp_path / "out")}
    paths[kind] = str(tmp_path / f"bad-{kind}")
    if content is not MISSING:
        if callable(content):
            content = content(Path(valid_inputs[kind]).read_bytes())
        (tmp_path / f"bad-{kind}").write_bytes(content)
    capsys.readouterr()
    code = main(SWEEP_COMMANDS[command](paths))
    err = capsys.readouterr().err
    assert code == (3 if content is MISSING else 2), err
    assert err.startswith(("error: ", "i/o error: ")), err
    assert "Traceback" not in err
