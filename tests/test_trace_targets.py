"""The benchmark's tracer wraps functions by name: every name must resolve."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    """(owner, attribute) of every TARGETS entry, read from the source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [
                (entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts
            ]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = _targets()
    assert len(targets) >= 20
    for owner, attribute in targets:
        module, _, cls = owner.partition(":")
        holder = importlib.import_module(module)
        if cls:
            holder = getattr(holder, cls)
        assert callable(getattr(holder, attribute, None)), f"{owner}.{attribute}"
