"""Mutated inputs keep every command inside its exit-code contract.

Each example mutates one valid input file of one command (conftest's
``valid_inputs``) and runs ``cli.main`` in-process. The exit code must be
0, 2, 3 or 4, a non-zero exit must say why on stderr, and no exception
may escape ``main``: under the ``phototopics`` script one would exit 1
with a traceback. The program's own RuntimeWarnings (a topic that lost
its mass, a pair floored with epsilon) are allowed; any other warning,
a numpy floating-point one included, fails the example.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phototopics.cli import main

from conftest import SWEEP_COMMANDS

# input kind -> how it is written
FORMATS = {"records": "jsonl", "scores": "jsonl", "model": "json", "names": "json",
           "vocab": "text", "ref-corpus": "text", "taxonomy": "tsv",
           "lexicon": "tsv", "ic": "tsv", "counts": "tsv", "name-defs": "tsv"}
# command -> the input kinds it reads (as SWEEP_COMMANDS passes them)
READS = {
    "build-vocab": ["records"],
    "train": ["records", "vocab"],
    "fold-in": ["model", "vocab", "records"],
    "name-topics": ["model", "vocab", "taxonomy", "lexicon", "ic", "name-defs"],
    "name-topics-counts": ["counts"],
    "coherence": ["model", "vocab", "ref-corpus"],
    "organize": ["records", "model", "vocab", "scores", "names"],
}
EXAMPLES = 12  # per (command, input) pair, to keep the module to a few seconds
ALLOWED_WARNINGS = r"topic \d+ lost all mass|.*floored with epsilon"

DELETE = object()
# json.dumps writes the bare floats as NaN and Infinity, which json.loads reads
JSON_VALUES = [10**400, 1e308, float("nan"), float("inf"), "NaN", "\ud800", [], {}, True]
FIELD_TEXTS = ["", " ", "x", "-1", "0", "1e308", "nan", "inf", "root", "a,b", ":"]


def _paths(node, path=()):
    """The path of every node of a decoded JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


def _replace(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value`` or deleted."""
    if not path:
        return [] if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def json_node(draw, text):
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from([DELETE, *JSON_VALUES]))
    return json.dumps(_replace(doc, path, value))


@st.composite
def json_line_node(draw, text):
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = draw(json_node(lines[i]))
    return "\n".join(lines) + "\n"


@st.composite
def line_edit(draw, text):
    lines = text.splitlines(keepends=True)
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    op = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(j, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "".join(lines)


@st.composite
def tsv_field(draw, text):
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split("\t")
    fields[draw(st.integers(0, len(fields) - 1))] = draw(
        st.sampled_from(FIELD_TEXTS) | st.text(max_size=4))
    lines[i] = "\t".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def byte_edits(draw, data: bytes):
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "delete", "insert"]))
        i = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "insert" or not data:
            data.insert(i, draw(st.integers(0, 255)))
        elif op == "delete":
            del data[i]
        else:
            data[i] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


def mutations(kind: str, data: bytes):
    """Every way to mutate one valid input file of ``kind``."""
    text = data.decode("utf-8")
    texts = [line_edit(text)]
    if FORMATS[kind] == "json":
        texts.append(json_node(text))
    elif FORMATS[kind] == "jsonl":
        texts.append(json_line_node(text))
    elif FORMATS[kind] == "tsv":
        texts.append(tsv_field(text))
    return st.one_of(*(t.map(lambda s: s.encode("utf-8", "surrogatepass"))
                       for t in texts), byte_edits(data))


@pytest.mark.parametrize("command, kind", [
    (command, kind) for command, kinds in READS.items() for kind in kinds])
@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_keeps_the_exit_code_contract(tmp_path, valid_inputs,
                                                    command, kind, data):
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(data.draw(mutations(kind, Path(valid_inputs[kind]).read_bytes())))
    argv = SWEEP_COMMANDS[command]({**valid_inputs, kind: str(bad),
                                    "out": str(tmp_path / "out")})
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", ALLOWED_WARNINGS, RuntimeWarning)
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert code == 0 or err.getvalue().strip()
