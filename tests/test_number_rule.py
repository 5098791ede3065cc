"""Every real-number argument of the library is checked by
``corpus.check_number``: a finite Python or numpy real, not a bool, inside
the argument's interval is taken as a ``float``, and anything else raises
``ValidationError`` naming the argument and its interval."""

import io
import json
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phototopics.coherence import CorpusStats, avg_npmi, uci_score, umass_score
from phototopics.corpus import TagTableBuilder, check_number
from phototopics.exceptions import ValidationError
from phototopics.pipeline import fetch_tags, load_category_scores
from phototopics.plsa import PlsaModel, assign_topics, em_step, init_model, train
from phototopics.taxonomy import compute_ic, load_taxonomy

from conftest import make_corpus

MAX = sys.float_info.max
TINY = math.ulp(0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

X = make_corpus([[1, 0], [1, 1], [0, 1]])
MODEL = init_model(2, 3, seed=0, n_docs=2)
STATS = CorpusStats(2, {"a": 1, "b": 1}, {("a", "b"): 1})
GRAPH = load_taxonomy(io.StringIO("root\t\na\troot\n"), io.StringIO(""),
                      ic_stream=io.StringIO(""))


def _fetch_timeout(v):
    """The timeout ``fetch_tags`` hands the HTTP client; no request is sent."""
    with mock.patch("urllib.request.urlopen", side_effect=OSError("no request")) as urlopen:
        fetch_tags("http://127.0.0.1:1", ["a"], timeout=v)
    return urlopen.call_args.kwargs["timeout"]


def _score(v):
    line = json.dumps({"image_id": "a", "topic": "Text and Visual",
                       "category": "screenshot", "score": v})
    return load_category_scores([line]).by_image["a"][0][2]


def _scores(v):
    """The three coherence scores all take ``epsilon`` by the one rule."""
    for score in (uci_score, umass_score, avg_npmi):
        score(["a", "b"], STATS, epsilon=v)


def _likelihood(v):
    payload = json.loads(MODEL.to_json())
    payload["final_log_likelihood"] = v
    return PlsaModel.from_json(json.dumps(payload)).final_log_likelihood


# Each call puts the value in the argument's place and returns the float
# it holds, or None where the argument is not kept.
# argument -> (its interval, values just outside it, values at or next to
# its ends, the call)
# ``train``'s tol and the scores' epsilon keep the ids of the classes that
# once held them, TrainConfig and CoherenceConfig.
LIBRARY = {
    "TrainConfig.tol": ("(0, inf)", [0.0], [TINY, MAX],
                        lambda v: train(X, n_topics=2, tol=v) and None),
    "CoherenceConfig.epsilon": ("(0, inf)", [0.0], [1e-150, 1e150], _scores),
    "assign_topics.threshold": ("[0, 1]", [-TINY, ABOVE_ONE], [0.0, 1.0],
                                lambda v: assign_topics(np.full((1, 2), 0.5), v) and None),
    "em_step.smoothing": ("[0, inf)", [-TINY], [0.0, 1e300],
                          lambda v: em_step(MODEL, X, smoothing=v) and None),
    "fetch_tags.timeout": ("(0, inf)", [0.0], [TINY, MAX], _fetch_timeout),
    "compute_ic.raw count": ("[0, inf)", [-TINY], [0.0, 1e300],
                             lambda v: compute_ic(GRAPH, {"root": 1.0, "a": v}) and None),
}
# arguments read from JSON, whose messages name where they were read
FILES = {
    "load_category_scores.score": ("[0, 1]", [-TINY, ABOVE_ONE], [0.0, 1.0], _score),
    "from_json.final_log_likelihood": ("(-inf, inf)", [], [-MAX, MAX],
                                                 _likelihood),
}
BOUNDARIES = {**LIBRARY, **FILES}
PREFIX = {"load_category_scores.score": "malformed score line 1: ",
          "from_json.final_log_likelihood": "malformed model: "}
NOT_NUMBERS = [True, "0.5", None, math.nan, math.inf, -math.inf, 10**400, -10**400]


def _rejected(boundary):
    interval, outside, _inside, _call = BOUNDARIES[boundary]
    # null is a saved model's unknown log-likelihood
    allowed = [None] if boundary.endswith("final_log_likelihood") else []
    return [v for v in NOT_NUMBERS if v not in allowed] + outside


CASES = [(b, i) for b in BOUNDARIES for i in range(len(_rejected(b)))]


@pytest.mark.parametrize("boundary, which", CASES)
def test_outside_the_rule_rejected(boundary, which):
    interval, _outside, _inside, call = BOUNDARIES[boundary]
    value = _rejected(boundary)[which]
    name = boundary.rsplit(".", 1)[1]
    message = (f"{PREFIX.get(boundary, '')}{name} must be a finite number in "
               f"{interval}; got {value!r}")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_interval_ends_accepted_as_float(boundary):
    _interval, _outside, inside, call = BOUNDARIES[boundary]
    for value in inside:
        held = call(value)
        assert held is None or (type(held) is float and held == value)


@pytest.mark.parametrize("boundary", LIBRARY)
@pytest.mark.parametrize("value", [np.float32(0.25), np.int64(1)], ids=["float32", "int64"])
def test_numpy_real_held_as_float(boundary, value):
    held = LIBRARY[boundary][3](value)
    assert held is None or (type(held) is float and held == float(value))


def test_integer_too_long_to_print_rejected():
    with pytest.raises(ValidationError, match=r"^x must be a finite number in \(-inf, inf\); "
                                              "got an integer of 16610 bits$"):
        check_number(10**5000, "x")


def test_check_number_returns_a_float():
    assert check_number(np.float64(2.5), "x") == 2.5
    assert type(check_number(np.uint8(3), "x", "[0, 3]")) is float


def _confidence_agrees(value):
    """``TagTableBuilder`` keeps a decoded JSON confidence exactly when the
    rule takes it, and keeps the rule's float."""
    decoded = json.loads(json.dumps(value))
    try:
        want = check_number(decoded, "confidence", "[0, 1]")
    except ValidationError:
        want = None
    builder = TagTableBuilder()
    try:
        builder.add({"image_id": "a", "collection_id": "c",
                     "tags": [{"tag": "x", "confidence": decoded}]})
    except ValidationError:
        assert want is None
    else:
        assert builder.build().confidences.tolist() == [want]


@pytest.mark.parametrize("value", [
    -0.0, 0, 1, 0.5, 1.0, -TINY, ABOVE_ONE, 2, -1, True, False, None, "1", "0.5",
    math.nan, math.inf, -math.inf, 10**400, -10**400, 2**1024 - 1, [], {}],
    ids=lambda v: repr(v)[:12])
def test_tag_confidence_agrees_with_the_rule(value):
    _confidence_agrees(value)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.text(max_size=3)))
def test_tag_confidence_agrees_with_the_rule_on_any_json_scalar(value):
    _confidence_agrees(value)
