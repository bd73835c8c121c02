"""The benchmark wraps program functions and reads program attributes by
name; each must exist."""

import ast
import importlib
from pathlib import Path

from unirat.exactcore import PrimeField
from unirat.groebner import buchberger
from unirat.mpoly import parse_poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def read_spans_constant(name):
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no %s" % name)


def test_every_traced_layer_resolves():
    layers = read_spans_constant("LAYERS")
    assert layers
    for module, path in layers:
        obj = importlib.import_module("unirat." + module)
        for part in path.split("."):
            assert hasattr(obj, part), "unirat.%s has no %s" % (module, path)
            obj = getattr(obj, part)
        assert callable(obj)


def test_every_attribute_the_workloads_read_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in ("certify", "cli", "pipeline")}
    assert ("certify", "_screen_prime") in reads
    for module, name in sorted(reads):
        assert hasattr(importlib.import_module("unirat." + module), name), \
            "unirat.%s has no %s" % (module, name)


def test_every_name_the_benchmark_imports_resolves():
    # `from unirat[.<module>] import <name>` in any benchmark file
    imports = [(node.module, alias.name)
               for path in sorted(PERFBENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module
               and (node.module + ".").startswith("unirat.")
               for alias in node.names]
    assert ("unirat.exactcore", "PrimeField") in imports
    for module, name in imports:
        if not hasattr(importlib.import_module(module), name):
            # a submodule, as in `from unirat import cli`
            importlib.import_module(module + "." + name)


def test_every_groebner_counter_the_benchmark_reads_is_a_stat():
    counters = read_spans_constant("GB_COUNTERS")
    assert "reductions_to_zero" in counters
    gens = [parse_poly(t, nvars=3, field=PrimeField(10007))
            for t in ("x0^2 + x1*x2", "x1^2 + x0*x2", "x2^2 + x0*x1")]
    stats = buchberger(gens).stats
    for key in counters + ("early_stop", "max_degree"):
        assert key in stats, "buchberger stats have no %r" % key
