"""Start-up imports no SciPy.

SciPy serves only the offline fits, confidence intervals and a few
model helpers, yet importing it costs about a second, paid again by
every spawned pool worker.  So ``src/repro`` imports it only inside the functions that
call it.  The first check reads the source with :mod:`ast`, as
``tests/obs/test_layering.py`` does: this test process has SciPy
loaded already, so its ``sys.modules`` cannot tell.  The second
imports each entry point in a fresh interpreter and reads that one's.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _module_level_imports(tree: ast.AST):
    """Yield ``(lineno, module)`` for every import outside a function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module
        yield from _module_level_imports(node)


def test_no_module_level_scipy_import():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.relative_to(SRC)}:{lineno} imports {module}"
            for lineno, module in _module_level_imports(tree)
            if module.split(".")[0] == "scipy"
        )
    assert offenders == []


def test_walker_sees_nested_module_level_imports():
    tree = ast.parse(
        "try:\n    import scipy.stats\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy import special\n"
        "def f():\n    from scipy import optimize\n"
    )
    assert [m for _, m in _module_level_imports(tree)] == [
        "scipy.stats",
        "scipy",
    ]


@pytest.mark.parametrize(
    "snippet",
    [
        "import repro.service",
        "import repro.experiments.runner",
        "from repro.parallel.backends import _warm_import; _warm_import()",
    ],
)
def test_entry_point_loads_no_scipy(snippet):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        f"{snippet}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(k for k in sys.modules"
        " if k.split('.')[0] == 'scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
