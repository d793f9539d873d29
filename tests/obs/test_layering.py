"""``repro.obs`` is the low layer: it imports no service code.

The service and adaptive layers record into ``repro.obs``; the reverse
import would tie telemetry to what it observes.  The check reads the
source with :mod:`ast` (lazy imports inside functions included),
because importing ``repro`` loads every subpackage, so ``sys.modules``
cannot tell who imported what.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.obs

HIGHER_LAYERS = ("repro.service", "repro.adaptive")


def _imported_modules(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = "repro.obs".rsplit(".", node.level - 1)[0]
                module = ".".join(filter(None, (package, node.module)))
            else:
                module = node.module
            yield module
            # ``from repro import service`` names the subpackage.
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_obs_imports_no_service_or_adaptive_module():
    obs_dir = Path(repro.obs.__file__).parent
    offenders = [
        f"{path.name} imports {module}"
        for path in sorted(obs_dir.glob("*.py"))
        for module in _imported_modules(path)
        if any(
            module == layer or module.startswith(layer + ".")
            for layer in HIGHER_LAYERS
        )
    ]
    assert offenders == []
