"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import coherence as coh
from . import naming as nm
from . import pipeline as pl
from . import plsa
from .corpus import (
    DEFAULT_MIN_COLLECTIONS,
    DEFAULT_MIN_COUNT,
    Vocabulary,
    build_cooccurrence,
    build_vocabulary,
    check_count,
    decode_json,
    parse_tag_records,
)
from .exceptions import InputOutputError, NumericError, ValidationError
from .taxonomy import load_taxonomy


def _read_records(path):
    with open(path, encoding="utf-8") as f:
        return parse_tag_records(f)


def _read_names_result(path) -> list[nm.TopicNaming]:
    """The ``name-topics`` output, in topic order."""
    with open(path, encoding="utf-8") as f:
        payload = decode_json(f.read(), "names result")
    try:
        names = [nm.TopicNaming(topic=e["topic"], name=e["name"],
                                scores=tuple(e["scores"]),
                                duplicate=e["duplicate"])
                 for e in sorted(payload, key=lambda e: e["topic"])]
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            "names result must be a list of objects with topic, name, "
            f"scores and duplicate ({exc!r})") from exc
    return names


def _load_graph(args):
    with contextlib.ExitStack() as stack:
        def read(path):
            return stack.enter_context(open(path, encoding="utf-8"))

        tax, lex = read(args.taxonomy), read(args.lexicon)
        ic = read(args.ic) if args.ic else None
        counts = read(args.ic_counts) if args.ic_counts else None
        return load_taxonomy(tax, lex, ic_stream=ic, counts_stream=counts)


def cmd_build_vocab(args) -> int:
    records = _read_records(args.records)
    vocab = build_vocabulary(records, min_count=args.min_count,
                             min_collections=args.min_collections)
    vocab.save(args.output)
    print(f"vocabulary: {vocab.size} words -> {args.output}")
    return 0


def cmd_train(args) -> int:
    records = _read_records(args.records)
    vocab = Vocabulary.load(args.vocab)
    X = build_cooccurrence(records, vocab, weighting=args.weighting)
    model = plsa.train(X, n_topics=args.topics, max_iters=args.max_iters,
                       tol=args.tol, seed=args.seed, vocab=vocab)
    model.save(args.output)
    print(f"trained K={model.n_topics} in {model.n_iters} iterations, "
          f"log-likelihood {model.final_log_likelihood:.6f} -> {args.output}")
    return 0


def cmd_fold_in(args) -> int:
    model = plsa.PlsaModel.load(args.model)
    vocab = Vocabulary.load(args.vocab)
    records = _read_records(args.records)
    mixtures = pl.fold_in_records(records, model, vocab, args.weighting)
    with _open_out(args.output) as out:
        for image_id, mixture in zip(records.image_ids, mixtures):
            out.write(json.dumps({"image_id": image_id,
                                  "mixture": mixture.tolist()},
                                 sort_keys=True) + "\n")
    return 0


def cmd_name_topics(args) -> int:
    model = plsa.PlsaModel.load(args.model)
    vocab = Vocabulary.load(args.vocab)
    graph = _load_graph(args)
    if args.names_file:
        with open(args.names_file, encoding="utf-8") as f:
            defs = nm.parse_name_defs(f)
    else:
        defs = nm.default_name_defs()
    result = nm.name_topics(model, vocab, defs, graph, n_top=args.top_words,
                            distinct=args.distinct)
    payload = [
        {"topic": r.topic, "name": r.name, "scores": list(r.scores),
         "duplicate": r.duplicate}
        for r in result
    ]
    with _open_out(args.output) as out:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for r in result:
        flag = " (duplicate)" if r.duplicate else ""
        print(f"topic {r.topic}: {r.name}{flag}")
    return 0


def cmd_coherence(args) -> int:
    top_n = check_count(args.top_n, "top_n", 2)
    model = plsa.PlsaModel.load(args.model)
    vocab = Vocabulary.load(args.vocab)
    top = [[w for w, _p in plsa.top_words(model, vocab, k, top_n)]
           for k in range(model.n_topics)]
    scored = {w for words in top for w in words}
    with open(args.ref_corpus, encoding="utf-8") as f:
        stats = coh.build_corpus_stats(f, vocab_filter=scored)
    rows = []
    for k, words in enumerate(top):
        rows.append({
            "topic": k,
            "uci": coh.uci_score(words, stats, epsilon=args.epsilon),
            "umass": coh.umass_score(words, stats, epsilon=args.epsilon),
            "avg_npmi": coh.avg_npmi(words, stats, epsilon=args.epsilon),
        })
    avg = {m: sum(r[m] for r in rows) / len(rows) for m in ("uci", "umass", "avg_npmi")}
    with _open_out(args.output) as out:
        out.write(json.dumps({"topics": rows, "average": avg},
                             sort_keys=True, indent=2) + "\n")
    for r in rows:
        print(f"topic {r['topic']}: UCI {r['uci']:.4f}  "
              f"UMass {r['umass']:.4f}  AvgNPMI {r['avg_npmi']:.4f}")
    return 0


def cmd_organize(args) -> int:
    model = plsa.PlsaModel.load(args.model)
    vocab = Vocabulary.load(args.vocab)
    records = _read_records(args.records)
    names = _read_names_result(args.names_result) if args.names_result else None
    scores = None
    if args.scores:
        with open(args.scores, encoding="utf-8") as f:
            scores = pl.load_category_scores(f)
    collection = pl.organize_collection(
        records, model, vocab, names=names, threshold=args.threshold,
        scores=scores, weighting=args.weighting)
    with open(args.output, "wb") as out:
        n = pl.emit_manifest(collection, out)
    print(f"organized {len(collection.image_ids)} images, "
          f"coverage {collection.coverage:.3f}, {n} bytes -> {args.output}")
    return 0


def cmd_fetch_tags(args) -> int:
    if args.ids and args.ids_file:
        raise ValidationError("image ids given both as arguments and in --ids-file")
    if args.ids_file:
        with open(args.ids_file, encoding="utf-8") as f:
            ids = [line.strip() for line in f if line.strip()]
    else:
        ids = list(args.ids)
    api_key = os.environ.get(args.api_key_env) if args.api_key_env else None
    if args.api_key_env and not api_key:  # each request would fail as HTTP 401
        raise ValidationError(f"environment variable {args.api_key_env} is not set")
    records, failures = pl.fetch_tags(args.endpoint, ids, api_key=api_key)
    with _open_out(args.output) as out:
        for j, image_id in enumerate(records.image_ids):
            out.write(json.dumps({
                "image_id": image_id,
                "collection_id": records.collection_id(j),
                "tags": [{"tag": t, "confidence": c}
                         for t, c in records.record_tags(j)],
            }, sort_keys=True) + "\n")
    for image_id, reason in failures:
        print(f"failed: {image_id}: {reason}", file=sys.stderr)
    print(f"fetched {len(records)} records, {len(failures)} failures")
    return 0


def _open_out(path):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phototopics",
        description="Organize tag-annotated photo collections hierarchically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a filtered tag vocabulary")
    p.add_argument("records")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--min-collections", type=int, default=DEFAULT_MIN_COLLECTIONS)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a pLSA model by EM")
    p.add_argument("records")
    p.add_argument("vocab")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--topics", type=int, default=plsa.DEFAULT_TOPICS)
    p.add_argument("--max-iters", type=int, default=plsa.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=plsa.DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weighting", choices=("binary", "confidence"),
                   default="binary")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fold-in", help="infer topic mixtures for new images")
    p.add_argument("model")
    p.add_argument("vocab")
    p.add_argument("records")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--weighting", choices=("binary", "confidence"),
                   default="binary")
    p.set_defaults(func=cmd_fold_in)

    p = sub.add_parser("name-topics", help="assign names to discovered topics")
    p.add_argument("model")
    p.add_argument("vocab")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--top-words", type=int, default=plsa.DEFAULT_TOP_WORDS)
    p.add_argument("--names-file")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--lexicon", required=True)
    ic_source = p.add_mutually_exclusive_group()
    ic_source.add_argument("--ic")
    ic_source.add_argument("--ic-counts")
    p.add_argument("--distinct", action="store_true",
                   help="force a one-to-one topic/name matching")
    p.set_defaults(func=cmd_name_topics)

    p = sub.add_parser("coherence", help="score topics against a reference corpus")
    p.add_argument("model")
    p.add_argument("vocab")
    p.add_argument("--ref-corpus", required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--top-n", type=int, default=coh.DEFAULT_TOP_N)
    p.add_argument("--epsilon", type=float, default=coh.DEFAULT_EPSILON)
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("organize", help="emit the topic/category manifest")
    p.add_argument("records")
    p.add_argument("model")
    p.add_argument("vocab")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--threshold", type=float, default=plsa.DEFAULT_NULL_THRESHOLD)
    p.add_argument("--scores")
    p.add_argument("--names-result")
    p.add_argument("--weighting", choices=("binary", "confidence"),
                   default="binary")
    p.set_defaults(func=cmd_organize)

    p = sub.add_parser("fetch-tags", help="fetch tag records from a tagging service")
    p.add_argument("ids", nargs="*")
    p.add_argument("--ids-file")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--api-key-env")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_fetch_tags)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputOutputError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
