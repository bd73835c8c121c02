"""Every function and method of unirat runs in some command.

The commands below run in-process under `sys.setprofile`, which records
the code of every Python call they make: `parametrize`, `verify` and
`replay` on reverse_p5, `parametrize` and `replay` on n8_cubes, `replay` of
the stored n8 certify report, `certify --prime 10007`, a small
`experiment lemma-singdim`, `build-example`, `parametrize` on an instance
whose slice form has rank four, which only the exact determinant can
refuse, and `reverse_build`.  A
function that none of them calls is dead code, and goes, unless ALLOWED
names it with the reason it stays.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import unirat
from unirat import cli, pipeline
from unirat.cli import main

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
N8_CERTIFY = ROOT / "perfbench" / "data" / "n8_certify.json"
SOURCE = Path(unirat.__file__).resolve().parent

# module.qualified_name of each function the commands do not call, and why
# it stays
ALLOWED = {
    # error paths: the commands above succeed or stop at an obstruction
    "certify.AbsorptionFails.__init__",
    "certify.IdentityFails.__init__",
    "certify.NotEmptyModP.__init__",
    "certify.RankDeficient.__init__",
    "certify._nonzero_witness",  # the point of a failed symbolic identity
    "cli._Parser.error",
    "groebner.DegreeCeilingExceeded.__init__",
    "slp._wrong",  # the message of a malformed field
    # dunders, which Python calls by protocol: reprs, hashing, equality and
    # reflected operators that only the tests and a debugger use
    "exactcore.ExactMatrix.__eq__",
    "exactcore.ExactMatrix.__repr__",
    "exactcore.PrimeField.__hash__",
    "exactcore.PrimeField.__repr__",
    "exactcore.RationalField.__reduce__",
    "exactcore.RationalField.__repr__",
    "mpoly.MPoly.__repr__",
    "mpoly.MPoly.__rmul__",
    "mpoly.ParameterRing.__hash__",
    "mpoly.ParameterRing.__repr__",
    "slp.NodeRef.__neg__",
    "slp.NodeRef.__radd__",
    "slp.NodeRef.__rmul__",
    "slp.NodeRef.__rsub__",
    # the arithmetic of GF(p) elements and the GF(p) text, which the
    # reprs above and the tests use; the commands work mod p in plain ints
    "exactcore.PrimeField.format",
    "exactcore.PrimeFieldElem.__add__",
    "exactcore.PrimeFieldElem.__eq__",
    "exactcore.PrimeFieldElem.__hash__",
    "exactcore.PrimeFieldElem.__mul__",
    "exactcore.PrimeFieldElem.__neg__",
    "exactcore.PrimeFieldElem.__pow__",
    "exactcore.PrimeFieldElem.__repr__",
    "exactcore.PrimeFieldElem.__sub__",
    "exactcore.PrimeFieldElem.__truediv__",
    "exactcore.PrimeFieldElem._check",
    # traced by name in perfbench/spans.py LAYERS, which
    # tests/test_bench_layers.py requires to resolve
    "exactcore.rank",
    "geom.stereographic_param",
    "pipeline.parametrize_H4",
    "pipeline.parametrize_Y4",
    # read by perfbench/workloads.py
    "groebner.GroebnerBasis.polys",
}


def defined():
    """{(file name, qualified name)} of every def in the package."""
    names = set()

    def walk(body, file, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add((file, prefix + node.name))
                walk(node.body, file, prefix + node.name + ".<locals>.")
            elif isinstance(node, ast.ClassDef):
                walk(node.body, file, prefix + node.name + ".")

    for path in sorted(SOURCE.glob("*.py")):
        walk(ast.parse(path.read_text()).body, path.name, "")
    return names


def commands(work):
    """The argument lists of the probed commands with their exit codes."""
    p5, n8 = str(INSTANCES / "reverse_p5.json"), str(INSTANCES / "n8_cubes.json")
    out = {name: str(work / name) for name in (
        "p5.slp.json", "p5.report.json", "n8.slp.json", "n8.report.json",
        "n8.certify.json", "singdim.json", "example.json", "rank4.json",
        "rank4.slp.json")}
    # F = f^2 + x5^4 with f of rank four: singular mod P, so only
    # det_fraction_free can confirm that f has no rank five
    (work / "rank4.json").write_text(json.dumps({
        "version": 1, "n": 5, "alpha": "1", "f": "x0^2 + x1^2 + x2^2 - x4^2",
        "F": "x0^4 + 2*x0^2*x1^2 + x1^4 + 2*x0^2*x2^2 + 2*x1^2*x2^2 + x2^4"
             " - 2*x0^2*x4^2 - 2*x1^2*x4^2 - 2*x2^2*x4^2 + x4^4 + x5^4"}))
    return [
        (["parametrize", "--instance", p5, "--out", out["p5.slp.json"],
          "--report", out["p5.report.json"]], 0),
        (["verify", "--slp", out["p5.slp.json"], "--instance", p5], 0),
        (["replay", "--report", out["p5.report.json"]], 0),
        (["parametrize", "--instance", n8, "--out", out["n8.slp.json"],
          "--report", out["n8.report.json"]], 2),
        (["replay", "--report", out["n8.report.json"]], 0),
        (["replay", "--report", str(N8_CERTIFY)], 0),
        (["certify", "--instance", n8, "--prime", "10007",
          "--report", out["n8.certify.json"]], 0),
        (["experiment", "lemma-singdim", "--trials", "4",
          "--report", out["singdim.json"]], 0),
        (["build-example", "--n", "8", "--out", out["example.json"]], 0),
        (["parametrize", "--instance", out["rank4.json"],
          "--out", out["rank4.slp.json"]], 64),
    ]


def test_every_function_runs_in_some_command(tmp_path, monkeypatch):
    # as in a new process, the first command builds the parser
    monkeypatch.setattr(cli, "_parser", None)
    called = set()

    def probe(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sink = io.StringIO()
    sys.setprofile(probe)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv, _ in commands(tmp_path):
                codes.append(main(argv))
            pipeline.reverse_build(seed=0)
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in commands(tmp_path)], sink.getvalue()

    reached = {(Path(code.co_filename).name, code.co_qualname)
               for code in called
               if Path(code.co_filename).resolve().parent == SOURCE}
    unreached = sorted("%s.%s" % (file[:-3], name)
                       for file, name in defined() - reached)
    dead = [name for name in unreached if name not in ALLOWED]
    assert not dead, "no command calls:\n" + "\n".join(dead)
    # an allowance for a function that now runs is stale
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, "allowed but called:\n" + "\n".join(stale)
