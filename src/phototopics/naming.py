"""Automatic topic naming against a fixed set of two-word topic names.

Each candidate name carries two anchor tokens ("pets", "animals"). A
topic's score for a name is the sum, over its top tags and the two
anchors, of the taxonomy word similarity; the argmax name wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from importlib import resources

import numpy as np

from .exceptions import ValidationError
from .plsa import DEFAULT_TOP_WORDS, PlsaModel, top_words
from .corpus import Vocabulary
from .taxonomy import TaxonomyGraph, max_lin_similarity, read_tsv

NULL_TOPIC_NAME = "Null"

# The eight shipped topic names.
DEFAULT_TOPIC_NAMES = (
    "Interior and Objects",
    "Pets and Animals",
    "Nature and Landscape",
    "Food and Drinks",
    "Street-view and Architecture",
    "People and Portraits",
    "Sport and Adventure",
    "Text and Visual",
)


@dataclass(frozen=True)
class TopicNameDef:
    """A display name plus its two anchor tokens.

    An anchor may pin explicit synset ids to bypass the lemma index and
    remove sense ambiguity.
    """

    name: str
    anchors: tuple[str, str]
    pinned_synsets: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())

    def __post_init__(self):
        if not self.name:
            raise ValidationError("topic name must be non-empty")
        if len(self.anchors) != 2:
            raise ValidationError("a topic name needs exactly two anchors")


@dataclass(frozen=True)
class TopicNaming:
    """Result for one topic."""

    topic: int
    name: str
    scores: tuple[float, ...]
    duplicate: bool


def parse_name_defs(stream) -> list[TopicNameDef]:
    """Read a name-defs TSV: ``display<TAB>anchor1[:synset]<TAB>anchor2[:synset]``.

    A pinned anchor may list several synsets separated by commas after
    the colon.
    """
    defs = []
    for _lineno, (name, *fields) in read_tsv(stream, "name-defs", 3):
        anchors = []
        pinned = []
        for raw in fields:
            token, _, synsets = raw.partition(":")
            pinned.append(tuple(s.strip() for s in synsets.split(",") if s.strip()))
            anchors.append(token.strip().lower())
        defs.append(TopicNameDef(name=name, anchors=(anchors[0], anchors[1]),
                                 pinned_synsets=(pinned[0], pinned[1])))
    if not defs:
        raise ValidationError("name-defs file contains no definitions")
    return defs


def default_name_defs() -> list[TopicNameDef]:
    """The eight shipped topic names with their content-word anchors."""
    text = resources.files("phototopics.data").joinpath("topic_names.tsv").read_text("utf-8")
    return parse_name_defs(text.splitlines())


def _anchor_similarity(graph: TaxonomyGraph, tag: str, anchor: str,
                       pinned: tuple[str, ...]) -> float:
    return max_lin_similarity(graph, graph.lemma_index.get(tag.lower(), ()),
                              pinned or graph.lemma_index.get(anchor, ()))


def score_topic_names(top_tags: list[str], defs: list[TopicNameDef],
                      graph: TaxonomyGraph) -> np.ndarray:
    """One summed-similarity score per candidate name.

    score(name) = sum over tags and the name's two anchors of the best
    Lin similarity across sense pairs; tags unknown to the lexicon
    contribute 0.
    """
    return _score_names(top_tags, defs, partial(_anchor_similarity, graph))


def _score_names(top_tags, defs, similarity) -> np.ndarray:
    """``score_topic_names`` with ``similarity(tag, anchor, pinned)``."""
    if not top_tags:
        raise ValidationError("need at least one top tag")
    if not defs:
        raise ValidationError("need at least one name definition")
    scores = np.zeros(len(defs))
    for i, d in enumerate(defs):
        total = 0.0
        for tag in top_tags:
            for anchor, pinned in zip(d.anchors, d.pinned_synsets):
                total += similarity(tag, anchor, pinned)
        scores[i] = total
    return scores


def name_topics(model: PlsaModel, vocab: Vocabulary, defs: list[TopicNameDef],
                graph: TaxonomyGraph, n_top: int = DEFAULT_TOP_WORDS,
                distinct: bool = False) -> list[TopicNaming]:
    """Assign a name to every topic by argmax score.

    Per-topic argmax by default (duplicates allowed but flagged); with
    ``distinct=True`` a one-to-one assignment maximizing the total score
    is computed instead. A topic whose scores are all zero is named
    "Null" and flagged. Each (tag, anchor) pair's similarity is found
    once per call.
    """
    similarity = cache(partial(_anchor_similarity, graph))
    score_rows = []
    for k in range(model.n_topics):
        tags = [w for w, _p in top_words(model, vocab, k, n_top)]
        score_rows.append(_score_names(tags, defs, similarity))
    score_matrix = np.vstack(score_rows)

    if distinct:
        from scipy.optimize import linear_sum_assignment

        if len(defs) < model.n_topics:
            raise ValidationError(
                "distinct naming needs at least as many names as topics")
        _, cols = linear_sum_assignment(-score_matrix)
        names = [defs[c].name for c in cols]
    else:
        names = [defs[int(np.argmax(row))].name for row in score_rows]
    for k, row in enumerate(score_rows):
        if not np.any(row > 0.0):
            names[k] = NULL_TOPIC_NAME

    counts = Counter(names)
    result = []
    for k, name in enumerate(names):
        flagged = counts[name] > 1 or name == NULL_TOPIC_NAME
        result.append(TopicNaming(topic=k, name=name,
                                  scores=tuple(float(x) for x in score_matrix[k]),
                                  duplicate=flagged))
    return result
