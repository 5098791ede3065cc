import io
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phototopics.exceptions import ValidationError
from phototopics.taxonomy import (
    TaxonomyGraph,
    compute_ic,
    lcs,
    lin_similarity,
    load_taxonomy,
    word_similarity,
)

from conftest import random_dag_graph, toy_graph


def _load(tax, lex="", ic=None, counts=None):
    return load_taxonomy(
        io.StringIO(tax), io.StringIO(lex),
        ic_stream=io.StringIO(ic) if ic is not None else None,
        counts_stream=io.StringIO(counts) if counts is not None else None,
    )


class TestLoadTaxonomy:
    def test_three_node_chain(self):
        g = _load("root\t\nanimal\troot\ndog\tanimal\n", "dog\tdog\n",
                  ic="root\t0\n")
        assert g.roots() == ["root"]
        assert g.lemma_index["dog"] == ("dog",)

    def test_cycle_detected_naming_an_edge(self):
        with pytest.raises(ValidationError, match="cycle"):
            _load("root\tdog\ndog\troot\n", ic="root\t0\n")

    def test_cycle_error_names_an_edge_on_the_cycle(self):
        # a and b both hang below c, and c below b: only b <-> c is a cycle
        with pytest.raises(ValidationError, match="edge 'c' -> 'b'"):
            _load("a\tc\nb\tc\nc\tb\n", ic="a\t0\n")

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(ValidationError, match="edge 'a' -> 'a'"):
            _load("root\t\na\troot,a\n", ic="root\t0\n")

    def test_cycle_rejected_before_the_lexicon_is_read(self):
        class Unread(io.StringIO):
            def __iter__(self):
                raise AssertionError("lexicon read")

        with pytest.raises(ValidationError, match="cycle"):
            load_taxonomy(io.StringIO("a\tb\nb\ta\n"), Unread())

    def test_duplicate_synset_rejected_naming_the_line(self):
        with pytest.raises(ValidationError, match="taxonomy line 3: synset 'a'"):
            _load("r\t\na\tr\na\tq\nq\tr\n", ic="r\t0\n")

    def test_duplicate_token_after_lowercasing_rejected_naming_the_line(self):
        with pytest.raises(ValidationError, match="lexicon line 2: token 'dog'"):
            _load("root\t\n", "dog\troot\nDog\troot\n", ic="root\t0\n")

    def test_two_roots_allowed(self):
        g = _load("r1\t\nr2\t\na\tr1\n", ic="r1\t0\n")
        assert g.roots() == ["r1", "r2"]

    def test_lemma_to_unknown_synset_rejected(self):
        with pytest.raises(ValidationError, match="unknown synset"):
            _load("root\t\n", "dog\tnope\n", ic="root\t0\n")

    @pytest.mark.parametrize("kind", ["ic", "counts"])
    @pytest.mark.parametrize("value", ["abc", "x1", "", "inf", "nan", "-1", "1e400"])
    def test_bad_value_rejected_naming_the_line(self, kind, value):
        with pytest.raises(ValidationError, match=f"malformed {kind} line 3"):
            _load("root\t\na\troot\n", **{kind: f"root\t1\n# note\na\t{value}\n"})

    @pytest.mark.parametrize("kind", ["ic", "counts"])
    def test_duplicate_value_rejected_naming_the_line(self, kind):
        with pytest.raises(ValidationError,
                           match=f"malformed {kind} line 3: synset 'a' is listed twice"):
            _load("root\t\na\troot\n", **{kind: "a\t1\nroot\t1\na\t5\n"})

    def test_missing_ic_warns_and_zeroes(self):
        with pytest.warns(RuntimeWarning):
            g = _load("root\t\n")
        assert g.ic["root"] == 0.0


class TestComputeIc:
    def test_single_root_is_zero(self):
        g = _load("root\t\n", counts="root\t7\n")
        assert g.ic["root"] == pytest.approx(0.0, abs=1e-15)

    def test_chain_hand_propagation(self):
        # counts {b: 1}, 3 synsets: every cumulative count is 1,
        # IC = -log(2/4) = log 2 everywhere, roots clamped to the minimum
        g = _load("root\t\na\troot\nb\ta\n", counts="b\t1\n")
        for s in ("root", "a", "b"):
            assert g.ic[s] == pytest.approx(math.log(2), abs=1e-12)

    def test_monotone_down_the_dag(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_dag_graph(rng)
            for s, ps in g.parents.items():
                for p in ps:
                    assert g.ic[p] <= g.ic[s] + 1e-12

    def test_zero_total_rejected(self):
        g = _load("root\t\n", ic="root\t0\n")
        with pytest.raises(ValidationError):
            compute_ic(g, {"root": 0.0})

    def test_infinite_total_rejected(self):
        g = _load("root\t\na\troot\n", ic="root\t0\n")
        with pytest.raises(ValidationError, match="finite"):
            compute_ic(g, {"root": 1e308, "a": 1e308})


def _exhaustive_ancestors(graph, synset):
    """Transitive-closure oracle, independent of TaxonomyGraph.ancestors."""
    result = {synset}
    changed = True
    while changed:
        changed = False
        for s in list(result):
            for p in graph.parents[s]:
                if p not in result:
                    result.add(p)
                    changed = True
    return result


def _exhaustive_hops(graph, synset):
    dist = {synset: 0}
    frontier = [synset]
    while frontier:
        nxt = []
        for s in frontier:
            for p in graph.parents[s]:
                if p not in dist:
                    dist[p] = dist[s] + 1
                    nxt.append(p)
        frontier = nxt
    return dist


def _exhaustive_lcs(graph, s1, s2):
    common = _exhaustive_ancestors(graph, s1) & _exhaustive_ancestors(graph, s2)
    if not common:
        return None
    h1, h2 = _exhaustive_hops(graph, s1), _exhaustive_hops(graph, s2)
    best = None
    for a in sorted(common):
        key = (-graph.ic[a], h1[a] + h2[a], a)
        if best is None or key < best[0]:
            best = (key, a)
    return best[1]


class TestLcs:
    def test_self(self):
        g = toy_graph()
        assert lcs(g, "n_dog", "n_dog") == "n_dog"

    def test_siblings(self):
        g = toy_graph()
        assert lcs(g, "n_dog", "n_cat") == "n_animal"

    def test_diamond_tie_broken_by_hops(self):
        # two common ancestors with equal IC; p2 is one hop from both
        # leaves while p1 is two hops from y
        tax = "root\t\np1\troot\np2\troot\nmid\tp1\nx\tmid,p2\ny\tp2\n"
        ic = "root\t0\np1\t1.0\np2\t1.0\nmid\t2.0\nx\t3.0\ny\t3.0\n"
        g = _load(tax, ic=ic)
        assert lcs(g, "x", "y") == "p2"
        assert _exhaustive_lcs(g, "x", "y") == "p2"

    def test_forest_without_common_ancestor(self):
        g = _load("r1\t\nr2\t\n", ic="r1\t0\n")
        assert lcs(g, "r1", "r2") is None

    def test_unknown_synset_rejected(self):
        g = toy_graph()
        with pytest.raises(ValidationError):
            lcs(g, "n_dog", "nope")

    def test_matches_exhaustive_oracle_on_random_dags(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_dag_graph(rng, max_nodes=20)
            nodes = sorted(g.parents)
            pairs = rng.integers(0, len(nodes), size=(15, 2))
            for i, j in pairs:
                s1, s2 = nodes[i], nodes[j]
                assert lcs(g, s1, s2) == _exhaustive_lcs(g, s1, s2)


class TestLinSimilarity:
    def test_self_similarity_is_one(self):
        g = toy_graph()
        assert lin_similarity(g, "n_dog", "n_dog") == pytest.approx(1.0)

    def test_toy_value(self):
        g = toy_graph()
        assert lin_similarity(g, "n_dog", "n_cat") == pytest.approx(
            1.4 / 3.8, abs=1e-12)

    def test_root_lcs_with_zero_ic_gives_zero(self):
        g = _load("root\t\na\troot\nb\troot\n",
                  ic="root\t0\na\t1.0\nb\t1.0\n")
        assert lin_similarity(g, "a", "b") == 0.0

    def test_symmetry_and_range_on_random_dags(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_dag_graph(rng, max_nodes=25)
            nodes = sorted(g.parents)
            for i, j in rng.integers(0, len(nodes), size=(10, 2)):
                a = lin_similarity(g, nodes[i], nodes[j])
                b = lin_similarity(g, nodes[j], nodes[i])
                assert a == b
                assert 0.0 <= a <= 1.0 + 1e-12


class TestWordSimilarity:
    def test_self_word(self):
        g = toy_graph()
        assert word_similarity(g, "dog", "dog") == pytest.approx(1.0)

    def test_unknown_word_is_zero(self):
        g = toy_graph()
        assert word_similarity(g, "qwerty", "dog") == 0.0

    def test_dog_cat_matches_lin_oracle(self):
        g = toy_graph()
        assert word_similarity(g, "dog", "cat") == pytest.approx(
            1.4 / 3.8, abs=1e-12)

    def test_max_over_senses(self):
        tax = "root\t\nanimal\troot\nbank1\tanimal\nbank2\troot\ndog\tanimal\n"
        ic = "root\t0\nanimal\t1.0\nbank1\t2.0\nbank2\t2.0\ndog\t2.0\n"
        lex = "bank\tbank1,bank2\ndog\tdog\n"
        g = _load(tax, lex, ic=ic)
        # bank1 shares the animal subtree with dog, bank2 only the root
        assert word_similarity(g, "bank", "dog") == pytest.approx(
            2 * 1.0 / 4.0, abs=1e-12)


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(seed=seeds, data=st.data())
def test_hops_up_memo_matches_a_fresh_graph_in_any_order(seed, data):
    loaded = random_dag_graph(np.random.default_rng(seed), max_nodes=20)

    def fresh():
        return TaxonomyGraph(loaded.parents, loaded.lemma_index, loaded.ic)

    g = fresh()
    order = data.draw(st.permutations(sorted(g.parents)))
    first = {s: g.hops_up(s) for s in order}
    for s in order:
        assert g.hops_up(s) is first[s]
        assert first[s] == fresh().hops_up(s) == loaded.hops_up(s)
        assert first[s] == _exhaustive_hops(g, s)


@PROPERTY
@given(seed=seeds, data=st.data())
def test_back_edge_rejected_naming_an_edge_on_a_cycle(seed, data):
    g = random_dag_graph(np.random.default_rng(seed), max_nodes=20)
    child = data.draw(st.sampled_from(sorted(g.parents)))
    # a parent below (or at) the child closes a cycle through it
    below = sorted(s for s in g.parents if child in _exhaustive_ancestors(g, s))
    parent = data.draw(st.sampled_from(below))
    # relabel so that id order says nothing about the hierarchy
    ids = sorted(g.parents)
    new_id = dict(zip(ids, data.draw(st.permutations(ids))))
    parents = {s: ps + (parent,) if s == child else ps for s, ps in g.parents.items()}
    parents = {new_id[s]: tuple(map(new_id.get, ps)) for s, ps in parents.items()}
    tax = "".join(f"{s}\t{','.join(ps)}\n" for s, ps in parents.items())
    with pytest.raises(ValidationError, match="cycle") as exc:
        load_taxonomy(io.StringIO(tax), io.StringIO(""))
    p, s = re.search(r"edge '(.+)' -> '(.+)'", str(exc.value)).groups()
    assert p in parents[s]
    assert s in _exhaustive_ancestors(SimpleNamespace(parents=parents), p)


@PROPERTY
@given(seed=seeds, data=st.data())
def test_compute_ic_matches_a_recount_bit_for_bit(seed, data):
    g = random_dag_graph(np.random.default_rng(seed), max_nodes=20)
    synsets = sorted(g.parents)
    order = data.draw(st.permutations(synsets))
    counts = {s: data.draw(st.sampled_from([0.0, 1.0, 0.1, 3.7, 1e6]))
              for s in order}
    if not sum(counts.values()):
        counts[order[0]] = 1.0
    # each ancestor's count is added to in the order of ``counts``
    cumulative = dict.fromkeys(synsets, 0.0)
    for s, c in counts.items():
        if c:
            for a in _exhaustive_ancestors(g, s):
                cumulative[a] += c
    total, n = sum(counts.values()), len(synsets)
    expected = {s: -math.log((cumulative[s] + 1.0) / (total + n)) for s in synsets}
    for r in g.roots():
        expected[r] = min(expected.values())
    fresh = TaxonomyGraph(g.parents, g.lemma_index, {})
    assert compute_ic(fresh, counts) == expected
    assert fresh._hops == {}


def test_ic_counts_load_keeps_no_more_hop_maps_than_ic():
    rng = np.random.default_rng(11)
    g = random_dag_graph(rng, max_nodes=60)
    tax = "".join(f"{s}\t{','.join(ps)}\n" for s, ps in g.parents.items())
    ic = "".join(f"{s}\t1\n" for s in g.parents)
    with_ic = _load(tax, ic=ic)
    with_counts = _load(tax, counts=ic)
    assert len(with_counts._hops) <= len(with_ic._hops) < len(g.parents)
