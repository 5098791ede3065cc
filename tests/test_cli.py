import json

import numpy as np
import pytest

from phototopics import coherence as coh
from phototopics import plsa
from phototopics.cli import main
from phototopics.corpus import Vocabulary

from conftest import ANIMAL_WORDS, FOOD_WORDS, tag_record_line


@pytest.fixture()
def collection_file(tmp_path):
    """Synthetic two-topic collection: food images and animal images."""
    rng = np.random.default_rng(0)
    lines = []
    for i in range(120):
        pool = FOOD_WORDS if i % 2 == 0 else ANIMAL_WORDS
        tags = rng.choice(pool, size=6, replace=False)
        lines.append(tag_record_line(f"img{i:03d}", f"u{i % 4}",
                                     [(t, 0.9) for t in tags]))
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


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
