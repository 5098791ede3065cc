"""Hypernym DAG with information content, LCS and Lin similarity.

The graph is a simplified stand-in for a WordNet noun hierarchy: synset
ids connected by hypernym (ancestor) edges, a lemma index from tokens to
synsets, and an IC value per synset. File formats are plain TSV (see
``load_taxonomy``).
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field

from .exceptions import ValidationError


@dataclass
class TaxonomyGraph:
    """Immutable after load; queries only read it, apart from the memo
    in which ``hops_up`` keeps each synset's map."""

    parents: dict[str, tuple[str, ...]]
    lemma_index: dict[str, tuple[str, ...]]
    ic: dict[str, float]
    _hops: dict[str, dict[str, int]] = field(default_factory=dict, init=False,
                                             repr=False, compare=False)

    def roots(self) -> list[str]:
        return sorted(s for s, ps in self.parents.items() if not ps)

    def ancestors(self, synset: str) -> set[str]:
        """All ancestors of a synset, including itself."""
        return set(self.hops_up(synset))

    def hops_up(self, synset: str) -> dict[str, int]:
        """Shortest upward hop count from a synset to each of its ancestors.

        Each synset's map is computed once and kept on the graph, so the
        returned dict is shared by every caller and must not be modified.
        """
        dist = self._hops.get(synset)
        if dist is None:
            _check_known(self, synset)
            dist = {synset: 0}  # breadth-first, so the first hop count is the least
            queue = deque([synset])
            while queue:
                s = queue.popleft()
                for p in self.parents[s]:
                    if p not in dist:
                        dist[p] = dist[s] + 1
                        queue.append(p)
            self._hops[synset] = dist
        return dist


def _check_known(graph: TaxonomyGraph, synset: str) -> None:
    if synset not in graph.parents:
        raise ValidationError(f"unknown synset {synset!r}")


def read_tsv(stream, what: str, n_fields: int):
    """Yield ``(line number, stripped fields)`` for each line of a TSV stream.

    Blank lines and lines starting with ``#`` are skipped; every other
    line must hold exactly ``n_fields`` tab-separated fields. ``what``
    names the file kind in errors.
    """
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ValidationError(f"malformed {what} line {lineno}: "
                                  f"expected {n_fields} tab-separated fields")
        yield lineno, [f.strip() for f in fields]


def split_ids(text: str) -> tuple[str, ...]:
    """The comma-separated synset ids of ``text``, stripped, blanks dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _read_values(stream, what: str, parents) -> dict[str, float]:
    """``synset<TAB>value`` lines, one per synset; each value a finite
    number >= 0."""
    values = {}
    for lineno, (synset, text) in read_tsv(stream, what, 2):
        if synset not in parents:
            raise ValidationError(f"{what} entry references unknown synset {synset!r}")
        if synset in values:
            raise ValidationError(
                f"malformed {what} line {lineno}: synset {synset!r} is listed twice")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise ValidationError(f"malformed {what} line {lineno}: {text!r} "
                                  "is not a finite number >= 0")
        values[synset] = value
    return values


def load_taxonomy(taxonomy_stream, lexicon_stream,
                  ic_stream=None, counts_stream=None) -> TaxonomyGraph:
    """Load the synset DAG, lemma index and IC values.

    Taxonomy TSV: ``synset_id<TAB>comma-separated-parent-ids`` (empty
    parents field for roots). Lexicon TSV: ``token<TAB>synset-ids``.
    IC TSV gives precomputed values; a counts TSV gives raw sense-tagged
    frequencies from which IC is derived via ``compute_ic``. With neither,
    IC defaults to 0 everywhere with a warning.
    """
    parents: dict[str, tuple[str, ...]] = {}
    for lineno, (synset, parent_field) in read_tsv(taxonomy_stream, "taxonomy", 2):
        if synset in parents:
            raise ValidationError(
                f"malformed taxonomy line {lineno}: synset {synset!r} is listed twice")
        parents[synset] = split_ids(parent_field)
    for s, ps in parents.items():
        for p in ps:
            if p not in parents:
                raise ValidationError(f"synset {s!r} names unknown parent {p!r}")
    graph = TaxonomyGraph(parents=parents, lemma_index={},
                          ic=dict.fromkeys(parents, 0.0))
    # The edge p -> s closes a cycle exactly when s is an ancestor of p.
    for s, ps in parents.items():
        for p in ps:
            if s in graph.hops_up(p):
                raise ValidationError(
                    f"taxonomy contains a cycle through edge {p!r} -> {s!r}")

    for lineno, (token, synset_field) in read_tsv(lexicon_stream, "lexicon", 2):
        ids = split_ids(synset_field)
        for s in ids:
            if s not in parents:
                raise ValidationError(
                    f"lexicon token {token!r} references unknown synset {s!r}")
        token = token.lower()
        if token in graph.lemma_index:
            raise ValidationError(f"malformed lexicon line {lineno}: token {token!r} "
                                  "is listed twice (tokens are case-insensitive)")
        graph.lemma_index[token] = ids

    if ic_stream is not None:
        graph.ic.update(_read_values(ic_stream, "ic", parents))
    elif counts_stream is not None:
        graph.ic = compute_ic(graph, _read_values(counts_stream, "counts", parents))
    else:
        warnings.warn("no IC source given; all IC values set to 0",
                      RuntimeWarning, stacklevel=2)
    return graph


def compute_ic(graph: TaxonomyGraph, counts: dict[str, float]) -> dict[str, float]:
    """Derive IC from raw sense frequencies.

    Each synset's cumulative count is its own count plus that of every
    descendant, counted once per synset regardless of how many paths lead
    up (DAG-aware). IC(s) = -log((cumulative + 1) / (total + |synsets|))
    with add-one smoothing; roots are then clamped to the minimum IC.
    The ancestors are walked without filling the graph's hop-map memo;
    each ancestor's total adds the counts in the order they are listed.
    """
    if any(c < 0 for c in counts.values()):
        raise ValidationError("raw counts must be non-negative")
    total = sum(counts.values())
    if not 0 < total < math.inf:
        raise ValidationError("total raw count must be positive and finite")
    parents = graph.parents
    n = len(parents)
    cumulative = dict.fromkeys(parents, 0.0)
    for s, c in counts.items():
        if c == 0:
            continue
        _check_known(graph, s)
        seen = {s}
        stack = [s]
        while stack:
            for p in parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        for a in seen:
            cumulative[a] += c
    ic = {s: -math.log((cumulative[s] + 1.0) / (total + n)) for s in graph.parents}
    min_ic = min(ic.values())
    for r in graph.roots():
        ic[r] = min_ic
    return ic


def lcs(graph: TaxonomyGraph, s1: str, s2: str) -> str | None:
    """Lowest common subsumer: the common ancestor with maximal IC.

    Ties go to the ancestor minimizing the combined upward hop distance
    from both synsets, then to synset-id order. A node counts as its own
    ancestor. Returns None when the synsets share no ancestor.
    """
    h1 = graph.hops_up(s1)
    h2 = graph.hops_up(s2)
    common = h1.keys() & h2.keys()
    if not common:
        return None
    return min(common, key=lambda a: (-graph.ic[a], h1[a] + h2[a], a))


def lin_similarity(graph: TaxonomyGraph, s1: str, s2: str) -> float:
    """2 * IC(LCS) / (IC(s1) + IC(s2)); 0 without an LCS or with zero ICs."""
    subsumer = lcs(graph, s1, s2)
    if subsumer is None:
        return 0.0
    denom = graph.ic[s1] + graph.ic[s2]
    if denom <= 0.0:
        return 0.0
    return 2.0 * graph.ic[subsumer] / denom


def word_similarity(graph: TaxonomyGraph, w1: str, w2: str) -> float:
    """Max Lin similarity over all sense pairs; unknown words score 0."""
    return max_lin_similarity(graph, graph.lemma_index.get(w1.lower(), ()),
                              graph.lemma_index.get(w2.lower(), ()))


def max_lin_similarity(graph: TaxonomyGraph, senses1, senses2) -> float:
    """Max Lin similarity over all pairs of the two sense lists; 0 if either is empty."""
    best = 0.0
    for a in senses1:
        for b in senses2:
            sim = lin_similarity(graph, a, b)
            if sim > best:
                best = sim
    return best
