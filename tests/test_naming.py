import io
import re

import numpy as np
import pytest

from phototopics.exceptions import ValidationError
from phototopics.naming import (
    DEFAULT_TOPIC_NAMES,
    TopicNameDef,
    default_name_defs,
    name_topics,
    parse_name_defs,
    score_topic_names,
)

from conftest import ANIMAL_WORDS, FOOD_WORDS, food_animal_setup, toy_graph


class TestTopicNameDef:
    @pytest.mark.parametrize("name, anchors", [
        (5, ("a", "b")), ("", ("a", "b")), (None, ("a", "b")),
        ("X", (1, 2)), ("X", ("a", None)), ("X", "ab"), ("X", ["a", "b"]),
        ("X", ("a",)), ("X", ("a", "b", "c")),
    ], ids=repr)
    def test_name_and_anchors_must_be_text(self, name, anchors):
        with pytest.raises(ValidationError, match="^a topic name needs a non-empty str name "
                                                  "and a tuple of two str anchors; got "):
            TopicNameDef(name, anchors)

    def test_integer_too_long_to_print_rejected(self):
        with pytest.raises(ValidationError, match="got an integer of 16610 bits and "):
            TopicNameDef(10**5000, ("a", "b"))

    @pytest.mark.parametrize("pinned", [
        ("n_dog", "n_animal"),  # one string per anchor, once read as the synset 'n'
        [(), ()], ((), (), ()), ((),), ((1,), ()),
        (["n_dog"], ()), None,
    ], ids=repr)
    def test_pinned_synsets_must_be_two_tuples_of_str(self, pinned):
        message = ("pinned synsets must be a tuple of two tuples of str ids; "
                   f"got {pinned!r}")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            TopicNameDef("X", ("dog", "animal"), pinned_synsets=pinned)

    @pytest.mark.parametrize("anchors, pinned", [
        ((10**5000, "b"), ((), ())), (("a", "b"), ((10**5000,), ())),
    ], ids=["anchor", "pinned"])
    def test_container_of_an_integer_too_long_to_print_rejected(self, anchors, pinned):
        with pytest.raises(ValidationError, match="got .*a tuple holding an integer "
                                                  "too long to print$"):
            TopicNameDef("X", anchors, pinned)


class TestParseNameDefs:
    def test_plain_anchors(self):
        defs = parse_name_defs(io.StringIO("Pets and Animals\tpets\tanimals\n"))
        assert defs[0] == TopicNameDef("Pets and Animals", ("pets", "animals"))

    def test_pinned_synsets(self):
        defs = parse_name_defs(io.StringIO("Pets and Animals\tpets:n_pet\tanimals:n1,n2\n"))
        assert defs[0].pinned_synsets == (("n_pet",), ("n1", "n2"))

    def test_fields_stripped(self):
        defs = parse_name_defs(io.StringIO(" Pets and Animals \t pets \t animals:n1 \n"))
        assert defs[0] == TopicNameDef("Pets and Animals", ("pets", "animals"),
                                       ((), ("n1",)))

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValidationError):
            parse_name_defs(io.StringIO("Name\tonly-one-anchor\n"))

    def test_default_defs_ship_the_eight_names(self):
        defs = default_name_defs()
        assert tuple(d.name for d in defs) == DEFAULT_TOPIC_NAMES
        assert all(len(d.anchors) == 2 for d in defs)


class TestScoreTopicNames:
    def test_unknown_tags_score_zero(self):
        g = toy_graph()
        defs = [TopicNameDef("Pets and Animals", ("pets", "animals"))]
        scores = score_topic_names(["qwerty", "zxcv"], defs, g)
        assert scores.tolist() == [0.0]

    def test_single_dog_tag_toy_values(self):
        g = toy_graph()
        defs = [TopicNameDef("Pets and Animals", ("pet", "animal")),
                TopicNameDef("Food and Drinks", ("food", "drink"))]
        scores = score_topic_names(["dog"], defs, g)
        # only the "animal" anchor is in the lexicon; lin(dog, animal) = 1.4/2.7
        assert scores[0] == pytest.approx(2 * 0.7 / 2.7, abs=1e-12)
        assert scores[1] == 0.0

    def test_zero_similarity_tag_never_changes_scores(self):
        graph, model, vocab = food_animal_setup()
        defs = default_name_defs()
        base = score_topic_names(FOOD_WORDS, defs, graph)
        padded = score_topic_names(FOOD_WORDS + ["qwerty"], defs, graph)
        np.testing.assert_allclose(padded, base, atol=1e-15)

    def test_empty_inputs_rejected(self):
        g = toy_graph()
        with pytest.raises(ValidationError):
            score_topic_names([], [TopicNameDef("X", ("a", "b"))], g)
        with pytest.raises(ValidationError):
            score_topic_names(["dog"], [], g)


class TestNameTopics:
    def test_food_and_animal_topics_named(self):
        graph, model, vocab = food_animal_setup()
        result = name_topics(model, vocab, default_name_defs(), graph, n_top=10)
        assert result[0].name == "Food and Drinks"
        assert result[1].name == "Pets and Animals"
        assert not result[0].duplicate and not result[1].duplicate

    def test_ic_scaling_leaves_assignment_unchanged(self):
        defs = default_name_defs()
        graph1, model, vocab = food_animal_setup(ic_scale=1.0)
        graph3, _, _ = food_animal_setup(ic_scale=3.0)
        r1 = name_topics(model, vocab, defs, graph1)
        r3 = name_topics(model, vocab, defs, graph3)
        assert [r.name for r in r1] == [r.name for r in r3]

    def test_identical_topics_flagged_duplicate(self):
        graph, model, vocab = food_animal_setup()
        twin = type(model)(np.vstack([model.word_given_topic[0]] * 2),
                           np.zeros((0, 2)), np.array([0.5, 0.5]), seed=0)
        result = name_topics(twin, vocab, default_name_defs(), graph)
        assert result[0].name == result[1].name == "Food and Drinks"
        assert result[0].duplicate and result[1].duplicate

    def test_single_def_names_everything(self):
        # anchor both topics on something similar to food and animal words
        graph, model, vocab = food_animal_setup()
        defs = [TopicNameDef("Pets and Food", ("pets", "food"))]
        result = name_topics(model, vocab, defs, graph)
        assert all(r.name == "Pets and Food" for r in result)

    def test_all_zero_scores_named_null(self):
        graph, model, vocab = food_animal_setup()
        defs = [TopicNameDef("Nowhere", ("qq", "ww"))]
        result = name_topics(model, vocab, defs, graph)
        assert all(r.name == "Null" and r.duplicate for r in result)

    def test_distinct_mode_gives_one_to_one(self):
        graph, model, vocab = food_animal_setup()
        twin = type(model)(np.vstack([model.word_given_topic[0]] * 2),
                           np.zeros((0, 2)), np.array([0.5, 0.5]), seed=0)
        result = name_topics(twin, vocab, default_name_defs(), graph,
                             distinct=True)
        assert len({r.name for r in result}) == 2

    def test_deterministic(self):
        graph, model, vocab = food_animal_setup()
        r1 = name_topics(model, vocab, default_name_defs(), graph)
        r2 = name_topics(model, vocab, default_name_defs(), graph)
        assert r1 == r2

    def test_topics_score_as_score_topic_names(self):
        """Each topic's scores are ``score_topic_names`` of its top tags, bit
        for bit; the twin topics share theirs."""
        graph, model, vocab = food_animal_setup()
        twin = type(model)(np.vstack([model.word_given_topic[0]] * 2),
                           np.zeros((0, 2)), np.array([0.5, 0.5]), seed=0)
        defs = default_name_defs()
        want = score_topic_names(FOOD_WORDS, defs, graph)
        result = name_topics(twin, vocab, defs, graph)
        for r in result:
            assert r.scores == tuple(want)
