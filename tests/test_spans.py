"""The benchmark's layer spans bind module globals of wpcn_ee by name."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_bindings() -> tuple:
    """BINDINGS of perfbench/spans.py, read from the source without running it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no BINDINGS in perfbench/spans.py")


def test_every_span_binding_resolves():
    # a span-only import deleted from the package breaks only the traced
    # benchmark run, with an AttributeError
    bindings = span_bindings()
    assert bindings
    missing = [
        (module, name)
        for module, name, _ in bindings
        if not hasattr(importlib.import_module(f"wpcn_ee.{module}"), name)
    ]
    assert missing == []
