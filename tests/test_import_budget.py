import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_loads_only_numpy_and_stdlib():
    """Third-party modules such as scipy and requests cost import time and
    memory, so importing the package and its CLI loads none beyond numpy.
    Only the commands that need them import them (``name-topics
    --distinct`` and ``fetch-tags``)."""
    code = ("import sys, numpy; before = set(sys.modules); "
            "import phototopics, phototopics.cli; "
            "print(' '.join({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"phototopics"}
