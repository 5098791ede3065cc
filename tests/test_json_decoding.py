"""Every JSON input is decoded by ``corpus.decode_json``. A second decode
path would choose its own exceptions to catch, and malformed JSON that
slipped past them would exit 1 with a traceback instead of 2."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phototopics"


def _decoders(tree: ast.AST) -> set[str]:
    """Names of the functions that decode JSON: they use ``json.load``,
    ``json.loads`` or ``json.JSONDecoder``, import one of them from
    ``json``, or call a ``.json()`` method. Code outside any function
    counts as ``<module>``."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "json"
                and node.attr in ("load", "loads", "JSONDecoder")):
            found.add(function)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "json"):
            found.add(function)
        if isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                a.name in ("load", "loads", "JSONDecoder") for a in node.names):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_guard_finds_each_way_to_decode():
    source = ("import json\nfrom json import loads\n"
              "def a(t): return json.loads(t)\n"
              "def b(f): return json.load(f)\n"
              "def c(resp): return resp.json()\n"
              "def d(): return json.dumps([])\n")
    assert _decoders(ast.parse(source)) == {"<module>", "a", "b", "c"}


def test_json_is_decoded_in_one_function():
    found = {(path.name, function)
             for path in sorted(PACKAGE.glob("*.py"))
             for function in _decoders(ast.parse(path.read_text("utf-8")))}
    assert found == {("corpus.py", "decode_json")}
