"""The traced benchmark wraps program functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def read_layers():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def test_every_traced_layer_resolves():
    layers = read_layers()
    assert layers
    for module, path in layers:
        obj = importlib.import_module("unirat." + module)
        for part in path.split("."):
            assert hasattr(obj, part), "unirat.%s has no %s" % (module, path)
            obj = getattr(obj, part)
        assert callable(obj)
