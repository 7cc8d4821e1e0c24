"""The public API: every exported name and every benchmark-traced function exists.

``perfbench/spans.py`` patches the functions it traces by dotted name; it is
read here as text, so deleting one of them fails this fast test rather than
only the benchmark's own suite.
"""

import ast
import importlib
from pathlib import Path

import spanlab as sl

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_targets() -> list[str]:
    targets = set()
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(name, "id", None) in ("TARGETS", "SETUP_TARGETS") for name in node.targets
        ):
            targets.update(ast.literal_eval(node.value))
    return sorted(targets)


def _resolves(target: str) -> bool:
    module, _, rest = target.partition(".")
    owner = importlib.import_module(f"spanlab.{module}")
    for part in rest.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_targets_resolve():
    targets = _traced_targets()
    assert targets  # the two tables were found
    assert [t for t in targets if not _resolves(t)] == []


def test_public_names_exist():
    assert [name for name in sl.__all__ if not hasattr(sl, name)] == []
