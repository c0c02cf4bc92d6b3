"""The benchmark's trace mode wraps public functions of the package by name
(``perfbench/tracing.py``, ``TRACED``); every name must still exist, or only
``perfbench/run.py --trace 1`` would notice."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> dict:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED in perfbench/tracing.py")


def test_every_traced_name_exists():
    traced = _traced()
    assert traced
    missing = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"gabwin.{mod}"), fn, None))]
    assert missing == []
