"""Seeded input generator for the phototopics benchmark.

Everything the program sees comes from the files written here. The
planted structure (tag blocks, image labels, topic names) goes into
``meta.json``, which only the benchmark's own checks read.

Planted structure: the tag vocabulary is split into eight blocks, one per
default topic name. An image, an album image, a reference document and a
candidate-model topic each draw their tags from a single block. The
taxonomy hangs each block's tags under a branch whose two nodes carry the
block's topic-name anchors, so Lin-similarity naming must return the
block's name.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import erfinv

# The eight default topic names and their anchor tokens (paper constants).
TOPIC_NAMES = (
    ("Interior and Objects", "interior", "objects"),
    ("Pets and Animals", "pets", "animals"),
    ("Nature and Landscape", "nature", "landscape"),
    ("Food and Drinks", "food", "drinks"),
    ("Street-view and Architecture", "street", "architecture"),
    ("People and Portraits", "people", "portraits"),
    ("Sport and Adventure", "sport", "adventure"),
    ("Text and Visual", "text", "visual"),
)
N_BLOCKS = len(TOPIC_NAMES)
# Reference-corpus words outside the tag vocabulary: they count in document
# frequencies but, filtered by the vocabulary, form no joint pairs.
GENERAL_WORDS = tuple(f"g{i:04d}" for i in range(2000))


@dataclass(frozen=True)
class Sizes:
    train_images: int
    train_collections: int
    n_tags: int
    tags_per_image: int
    album_images: int
    big_albums: tuple[int, ...]
    album_median: float
    album_sigma: float
    album_tags: tuple[int, int]
    ref_docs: int
    ref_block_tokens: int
    ref_general_tokens: int
    model_ks: tuple[int, ...]
    distractor_branches: int


# The reference sizes: 20k training images, 20k album images, and a 20k
# reference corpus of 60-token documents (20 in-vocabulary draws + 40 other
# words; the in-vocabulary share is this benchmark's choice, see METRICS.md).
FULL = Sizes(train_images=20000, train_collections=50, n_tags=1500,
             tags_per_image=10, album_images=20000,
             big_albums=(1000, 2000, 3500), album_median=25.0,
             album_sigma=1.0, album_tags=(5, 30), ref_docs=20000,
             ref_block_tokens=20, ref_general_tokens=40, model_ks=(8, 16, 32),
             distractor_branches=6)

SMOKE = Sizes(train_images=800, train_collections=10, n_tags=160,
              tags_per_image=8, album_images=400, big_albums=(120,),
              album_median=10.0, album_sigma=0.8, album_tags=(5, 12),
              ref_docs=120, ref_block_tokens=8, ref_general_tokens=8,
              model_ks=(8, 16),
              distractor_branches=2)


def block_tags(sizes: Sizes) -> list[list[str]]:
    """Tag names per block; the name encodes nothing the program uses."""
    per_block = [sizes.n_tags // N_BLOCKS + (b < sizes.n_tags % N_BLOCKS)
                 for b in range(N_BLOCKS)]
    return [[f"t{b}x{i:03d}" for i in range(n)] for b, n in enumerate(per_block)]


def popularity(n: int) -> np.ndarray:
    """Zipf-like tag popularity within a block."""
    w = 1.0 / (np.arange(n) + 5.0) ** 0.7
    return w / w.sum()


def sample_without_replacement(rng, weights: np.ndarray, n_rows: int,
                               k: int) -> np.ndarray:
    """``n_rows`` weighted draws of ``k`` distinct indices (Gumbel top-k)."""
    keys = np.log(weights)[None, :] + rng.gumbel(size=(n_rows, len(weights)))
    return np.argpartition(-keys, k - 1, axis=1)[:, :k]


def _record_line(image_id: str, collection_id: str, tags, confs) -> str:
    return json.dumps({
        "image_id": image_id,
        "collection_id": collection_id,
        "tags": [{"tag": t, "confidence": float(c)} for t, c in zip(tags, confs)],
    })


def write_train_records(rng, sizes: Sizes, blocks, path: Path) -> dict:
    """The reference corpus: its tag content is fixed (content seed 0).

    The run's seed shuffles record order and draws collections and
    confidences. EM's iteration count, and so train time, depends
    chaotically on the tag content, so varying it would make train time
    differ from seed to seed by far more than any change under test.
    """
    n = sizes.train_images
    content = np.random.default_rng(0)
    labels = content.integers(0, N_BLOCKS, size=n)
    tags = [None] * n
    for b in range(N_BLOCKS):
        idx = np.flatnonzero(labels == b)
        draws = sample_without_replacement(
            content, popularity(len(blocks[b])), len(idx), sizes.tags_per_image)
        for row, j in enumerate(idx):
            tags[j] = [blocks[b][t] for t in draws[row]]
    order = rng.permutation(n)
    collections = rng.integers(0, sizes.train_collections, size=n)
    confs = np.round(rng.uniform(0.5, 1.0, size=(n, sizes.tags_per_image)), 3)
    with open(path, "w", encoding="utf-8") as f:
        for pos, j in enumerate(order):
            f.write(_record_line(f"img{j:06d}", f"c{collections[pos]:03d}",
                                 tags[j], confs[pos]) + "\n")
    return {"n_images": n, "labels": labels[order].tolist()}


def album_sizes(rng, sizes: Sizes) -> list[int]:
    """A few planted large albums plus heavy-tailed small ones.

    Small-album sizes are evenly spaced quantiles of a log-normal, so every
    seed gets the same size mix (and a comparable p50) in another order.
    """
    small_total = sizes.album_images - sum(sizes.big_albums)
    mean = sizes.album_median * math.exp(sizes.album_sigma ** 2 / 2)
    n = max(1, int(round(small_total / mean)))
    z = np.sqrt(2.0) * erfinv(2.0 * (np.arange(n) + 0.5) / n - 1.0)
    small = np.maximum(1, np.round(sizes.album_median
                                   * np.exp(sizes.album_sigma * z))).astype(int)
    small = np.minimum(small, sizes.big_albums[0] // 2)
    out = list(sizes.big_albums) + small.tolist()
    return [out[i] for i in rng.permutation(len(out))]


def write_albums(rng, sizes: Sizes, blocks, album_dir: Path) -> dict:
    album_dir.mkdir()
    lo, hi = sizes.album_tags
    albums = []
    for a, size in enumerate(album_sizes(rng, sizes)):
        labels = rng.integers(0, N_BLOCKS, size=size)
        n_tags = rng.integers(lo, hi + 1, size=size)
        lines = []
        for j in range(size):
            b = int(labels[j])
            k = min(int(n_tags[j]), len(blocks[b]))
            draw = sample_without_replacement(rng, popularity(len(blocks[b])),
                                              1, k)[0]
            tags = [blocks[b][t] for t in draw]
            if rng.random() < 0.1:  # a tag the vocabulary does not know
                tags.append(f"unk{int(rng.integers(0, 1000)):03d}")
            confs = np.round(rng.uniform(0.3, 1.0, size=len(tags)), 3)
            lines.append(_record_line(f"a{a:04d}i{j:05d}", f"album{a:04d}",
                                      tags, confs))
        path = album_dir / f"album{a:04d}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        albums.append({"file": path.name, "n_images": size})
    return {"albums": albums}


def vocab_words(blocks) -> list[str]:
    return sorted(t for block in blocks for t in block)


def vocab_digest(words: list[str]) -> str:
    """SHA-256 over the ordered word list, as the model file records it."""
    return hashlib.sha256("\n".join(words).encode("utf-8")).hexdigest()


def planted_model(rng, blocks, words: list[str], topic_blocks,
                  eps: float = 0.02, concentration: float | None = None
                  ) -> np.ndarray:
    """K x M P(w|z): topic k puts 1-eps of its mass on block topic_blocks[k]."""
    pos = {w: i for i, w in enumerate(words)}
    pwz = np.full((len(topic_blocks), len(words)), eps / len(words))
    for k, b in enumerate(topic_blocks):
        p = popularity(len(blocks[b]))
        if concentration is not None:
            p = rng.dirichlet(concentration * len(p) * p)
        cols = [pos[t] for t in blocks[b]]
        pwz[k, cols] += (1.0 - eps) * p
    return pwz / pwz.sum(axis=1, keepdims=True)


def write_model(path: Path, pwz: np.ndarray, digest: str) -> None:
    """A model file in the program's documented JSON format."""
    k, m = pwz.shape
    payload = {
        "format_version": 1, "n_topics": k, "n_words": m, "seed": 0,
        "vocab_hash": digest, "n_iters": 0, "final_log_likelihood": 0.0,
        "topic_prior": [1.0 / k] * k, "word_given_topic": pwz.tolist(),
    }
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def write_vocab(path: Path, words: list[str]) -> None:
    path.write_text("".join(w + "\n" for w in words), encoding="utf-8")


def write_taxonomy(rng, sizes: Sizes, blocks, out: Path) -> None:
    """WordNet-like hypernym DAG, lexicon and sense counts.

    root -> three abstract nodes -> one branch head per block (lemma: the
    name's second anchor) -> anchor node (first anchor) -> a random
    subtree of internal nodes (a few with a second parent) -> tag leaves.
    Distractor branches without anchors hold the tags' secondary senses.
    """
    parents: dict[str, list[str]] = {"entity": []}
    lexicon: dict[str, list[str]] = {}
    abstract = [f"abstract{i}" for i in range(3)]
    for s in abstract:
        parents[s] = ["entity"]

    def subtree(prefix: str, top: str, n_internal: int) -> list[str]:
        internal = [top]
        for i in range(n_internal):
            s = f"{prefix}.n{i:03d}"
            ps = [internal[int(rng.integers(0, len(internal)))]]
            if i > 4 and rng.random() < 0.1:
                other = internal[int(rng.integers(1, len(internal)))]
                if other not in ps:
                    ps.append(other)
            parents[s] = ps
            internal.append(s)
        return internal

    distractor_nodes = []
    for d in range(sizes.distractor_branches):
        head = f"d{d}.head"
        parents[head] = [abstract[d % len(abstract)]]
        lexicon.setdefault(f"misc{d}", []).append(head)
        distractor_nodes.extend(subtree(f"d{d}", head, 40))

    for b, (_name, a1, a2) in enumerate(TOPIC_NAMES):
        head, anchor = f"b{b}.head", f"b{b}.anchor"
        parents[head] = [abstract[b % len(abstract)]]
        parents[anchor] = [head]
        lexicon.setdefault(a2, []).append(head)
        lexicon.setdefault(a1, []).append(anchor)
        internal = subtree(f"b{b}", anchor, max(8, len(blocks[b]) // 3))
        for t in blocks[b]:
            leaf = f"{t}.n01"
            parents[leaf] = [internal[int(rng.integers(1, len(internal)))]]
            senses = [leaf]
            for extra in range(int(rng.choice(4, p=[0.3, 0.3, 0.25, 0.15]))):
                s = f"{t}.n{extra + 2:02d}"
                parents[s] = [distractor_nodes[
                    int(rng.integers(0, len(distractor_nodes)))]]
                senses.append(s)
            lexicon[t] = senses

    with open(out / "taxonomy.tsv", "w", encoding="utf-8") as f:
        for s, ps in parents.items():
            f.write(f"{s}\t{','.join(ps)}\n")
    with open(out / "lexicon.tsv", "w", encoding="utf-8") as f:
        for token, ids in lexicon.items():
            f.write(f"{token}\t{','.join(ids)}\n")
    counts = rng.zipf(1.6, size=len(parents)).clip(max=10000)
    with open(out / "counts.tsv", "w", encoding="utf-8") as f:
        for s, c in zip(parents, counts):
            f.write(f"{s}\t{int(c)}\n")


def write_ref_corpus(rng, sizes: Sizes, blocks, path: Path) -> int:
    """One document per line; returns the number of tokens written.

    A document draws ``ref_block_tokens`` tokens from one block by
    popularity (repeats allowed) and ``ref_general_tokens`` from words
    outside the vocabulary, in shuffled order.
    """
    n = sizes.ref_docs
    n_block, n_general = sizes.ref_block_tokens, sizes.ref_general_tokens
    labels = rng.integers(0, N_BLOCKS, size=n)
    docs = [None] * n
    for b in range(N_BLOCKS):
        idx = np.flatnonzero(labels == b)
        p = popularity(len(blocks[b]))
        draws = rng.choice(len(p), size=(len(idx), n_block), p=p)
        for row, j in enumerate(idx):
            docs[j] = [blocks[b][t] for t in draws[row]]
    general = rng.integers(0, len(GENERAL_WORDS), size=(n, n_general))
    n_tokens = 0
    with open(path, "w", encoding="utf-8") as f:
        for j in range(n):
            toks = docs[j] + [GENERAL_WORDS[t] for t in general[j]]
            toks = [toks[t] for t in rng.permutation(len(toks))]
            n_tokens += len(toks)
            f.write(" ".join(toks) + "\n")
    return n_tokens


def generate(workload: str, seed: int, sizes: Sizes, out: Path) -> dict:
    """Write every input of one workload into ``out`` (which must not exist)."""
    out.mkdir(parents=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    blocks = block_tags(sizes)
    meta = {"workload": workload, "seed": seed, "sizes": asdict(sizes),
            "blocks": blocks, "names": [n for n, _a1, _a2 in TOPIC_NAMES]}
    words = vocab_words(blocks)
    if workload == "train-20k":
        meta.update(write_train_records(rng, sizes, blocks, out / "records.jsonl"))
    elif workload == "organize-albums":
        write_vocab(out / "vocab.txt", words)
        write_model(out / "model.json",
                    planted_model(rng, blocks, words, list(range(N_BLOCKS))),
                    vocab_digest(words))
        meta.update(write_albums(rng, sizes, blocks, out / "albums"))
    elif workload == "describe-topics":
        write_vocab(out / "vocab.txt", words)
        write_taxonomy(rng, sizes, blocks, out)
        meta["ref_tokens"] = write_ref_corpus(rng, sizes, blocks,
                                              out / "ref_corpus.txt")
        meta["models"] = []
        for k in sizes.model_ks:
            topic_blocks = [t % N_BLOCKS for t in range(k)]
            pwz = planted_model(rng, blocks, words, topic_blocks,
                                concentration=2.0)
            write_model(out / f"model_k{k}.json", pwz, vocab_digest(words))
            meta["models"].append({"file": f"model_k{k}.json", "k": k,
                                   "topic_blocks": topic_blocks})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return meta
