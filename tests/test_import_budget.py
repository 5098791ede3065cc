"""What the package imports, and what it depends on.

Importing the package and its CLI loads numpy and the standard library
only: scipy is imported by ``name-topics --distinct`` alone, and the HTTP
client of ``fetch-tags`` (``urllib.request``, which brings ``http.client``
and ``ssl``) by ``fetch-tags`` alone, since each costs import time on
every command. The third-party modules the source imports are exactly
the runtime dependencies ``pyproject.toml`` declares.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_package_import_loads_only_numpy_and_stdlib():
    code = ("import sys, numpy; before = set(sys.modules); "
            "import phototopics, phototopics.cli; "
            "print(' '.join(set(sys.modules) - before))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout.split())
    top_level = {m.split(".")[0] for m in loaded}
    assert top_level - set(sys.stdlib_module_names) == {"phototopics"}
    assert not loaded & {"urllib.request", "http.client", "ssl"}


def test_third_party_imports_are_the_declared_dependencies():
    block = re.search(r"^dependencies = \[(.*?)\]",
                      (ROOT / "pyproject.toml").read_text("utf-8"),
                      re.MULTILINE | re.DOTALL).group(1)
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in re.findall(r'"([^"]+)"', block)}
    imported = set()
    for path in (SRC / "phototopics").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared
