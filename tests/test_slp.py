import copy
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unirat import slp
from unirat.certify import COORDINATE_BOUND, IdentityFails, check_on_variety
from unirat.exactcore import QQ, BadPrime, rank_mod_p
from unirat.mpoly import MPoly
from unirat.pipeline import load_instance, run_pass
from unirat.slp import (
    ArityMismatch,
    ChartVanishes,
    MalformedInput,
    SlpBuilder,
    SlpMap,
    same_program,
    write_json,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def conic_map():
    b = SlpBuilder(1)
    t = b.inputs[0]
    return b.finish([b.const(1), t, t * t], chart=0)


def identity_map(n):
    b = SlpBuilder(n)
    return b.finish(list(b.inputs))


def stereographic_sphere(chart=4):
    # A^4 -> {x0^2+x1^2+x2^2+x3^2 = x4^2}, base point (0,0,0,1,1),
    # image of v is q(v)*(0,0,0,1,1) - 2*v3*(v0,v1,v2,v3,0)
    b = SlpBuilder(4)
    v0, v1, v2, v3 = b.inputs
    q = v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
    two_b = v3 + v3
    outs = [-(two_b * v0), -(two_b * v1), -(two_b * v2), q - two_b * v3, q]
    return b.finish(outs, chart=chart)


# -- evaluation ------------------------------------------------------------


def test_identity_eval():
    m = identity_map(3)
    assert m.eval([Fraction(1), Fraction(2), Fraction(3)]) == [1, 2, 3]


def test_conic_eval():
    m = conic_map()
    assert m.eval([Fraction(2)]) == [1, 2, 4]
    assert m.degree_bounds == (0, 1, 2)


def test_eval_is_generic_over_polynomials():
    m = stereographic_sphere()
    xs = [MPoly.variable(i, 4, QQ) for i in range(4)]
    out = m.eval(xs, lift=lambda c: MPoly.const(4, c, QQ))
    # the image satisfies the sphere equation identically
    s = out[0] * out[0] + out[1] * out[1] + out[2] * out[2] + out[3] * out[3]
    assert (s - out[4] * out[4]).is_zero()


def test_eval_arity_checked():
    with pytest.raises(ArityMismatch):
        conic_map().eval([Fraction(1), Fraction(2)])


# -- scaled-integer evaluation against an oracle ---------------------------------


def oracle_eval(program, point, const=lambda c: c):
    """The outputs of a program by a node-by-node interpreter written here,
    apart from slp.py: values are whatever the point holds (Fractions or
    sympy expressions), and `const` carries each constant."""
    vals = []
    for node in program.nodes:
        op = node[0]
        if op == "input":
            vals.append(point[node[1]])
        elif op == "const":
            vals.append(const(node[1]))
        elif op == "add":
            vals.append(vals[node[1]] + vals[node[2]])
        elif op == "sub":
            vals.append(vals[node[1]] - vals[node[2]])
        else:
            vals.append(vals[node[1]] * vals[node[2]])
    return [vals[o] for o in program.outputs]


def fraction_constructions(fn):
    """How many Fractions fn() constructs, counted by a profile hook on the
    constructors of fractions.Fraction."""
    codes = {Fraction.__new__.__code__}
    coprime = getattr(Fraction, "_from_coprime_ints", None)
    if coprime is not None:  # arithmetic results skip __new__ from 3.12 on
        codes.add(coprime.__func__.__code__)
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.fixture(scope="module")
def reverse_p5():
    """The reverse_p5 quartic and the program `parametrize --seed 0` writes."""
    H = load_instance(INSTANCES / "reverse_p5.json")
    return H, run_pass(H, seed=0).program


def mixed_denominators():
    """Constants 2/3, -5/7 and 1/6, so L is never a power of two; outputs
    that are an input node, a constant node, a sub of a node from itself,
    and a sub whose operands have different e but equal values."""
    b = SlpBuilder(2)
    x, y = b.inputs
    two_thirds, five_sevenths = b.const(Fraction(2, 3)), b.const(Fraction(-5, 7))
    sixth = b.const(Fraction(1, 6))
    s = x * two_thirds + y * five_sevenths
    cube = (x * y - sixth) * x + y * y * y * five_sevenths
    outs = [s, cube, x, five_sevenths, s - s, x * sixth * b.const(6) - x,
            s * cube * sixth - y]
    return b.finish(outs)


def test_scaled_eval_matches_oracle_on_reverse_p5(reverse_p5):
    _, program = reverse_p5
    rng = random.Random(27)
    bound = 2 ** 40
    for k in range(12):
        ints = [rng.randint(-bound, bound) for _ in range(4)]
        # plain ints and Fractions with denominator 1 alike
        point = ints if k % 2 else [Fraction(c) for c in ints]
        out = program.eval(point)
        assert out == oracle_eval(program, [Fraction(c) for c in ints])
        assert all(type(v) is Fraction for v in out)
    for _ in range(12):
        point = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
                 for _ in range(4)]
        assert program.eval(point) == oracle_eval(program, point)


def test_scaled_eval_matches_oracle_when_L_is_not_a_power_of_two():
    m = mixed_denominators()
    assert math.lcm(*(n[1].denominator for n in m.nodes if n[0] == "const")) == 42
    rng = random.Random(3)
    for _ in range(40):
        point = [Fraction(rng.randint(-50, 50), rng.randint(1, 5)) for _ in range(2)]
        out = m.eval(point)
        assert out == oracle_eval(m, point)
        assert out[2] == point[0] and out[3] == Fraction(-5, 7)
        assert out[4] == out[5] == 0
    assert m.eval([3, -2]) == oracle_eval(m, [Fraction(3), Fraction(-2)])


def test_scaled_eval_matches_sympy():
    import sympy as sp
    m = mixed_denominators()
    xs = sp.symbols("x0:2")
    exprs = oracle_eval(m, xs, const=lambda c: sp.Rational(c.numerator, c.denominator))
    point = [Fraction(-9, 4), Fraction(11, 5)]
    subs = {x: sp.Rational(c.numerator, c.denominator) for x, c in zip(xs, point)}
    for got, expr in zip(m.eval(point), exprs):
        want = sp.expand(expr).subs(subs)
        assert (got.numerator, got.denominator) == (want.p, want.q)


def test_eval_at_an_integer_point_builds_only_the_output_fractions(reverse_p5):
    _, program = reverse_p5
    rng = random.Random(1)
    point = [Fraction(rng.randint(-2 ** 40, 2 ** 40)) for _ in range(4)]
    # the hook sees Fraction arithmetic: a Fraction sweep builds one value
    # per add, sub and mul node, 774 of them
    arithmetic = sum(node[0] != "input" and node[0] != "const" for node in program.nodes)
    assert arithmetic > 770
    assert fraction_constructions(lambda: oracle_eval(program, point)) >= arithmetic
    assert (fraction_constructions(lambda: program.eval(point))
            <= program.out_arity + program.in_arity)


@pytest.mark.parametrize("entry", [0.5, 2.0, True, "3", None],
                         ids=["float", "integral-float", "bool", "string", "null"])
def test_rational_eval_refuses_other_entries(entry):
    with pytest.raises(TypeError):
        stereographic_sphere().eval([Fraction(1), 2, entry, Fraction(1, 3)])


def test_rational_eval_refuses_ring_elements_without_lift():
    import sympy as sp
    with pytest.raises(TypeError):
        conic_map().eval([sp.Integer(2)])
    with pytest.raises(TypeError):
        conic_map().eval([MPoly.variable(0, 1, QQ)])


def test_tampered_reverse_p5_program_is_disproved_at_the_oracle_point(reverse_p5):
    H, program = reverse_p5
    nodes = [("const", Fraction(1, 3)) if n[0] == "const" and n[1].denominator == 2
             else n for n in program.nodes]
    assert nodes != list(program.nodes)
    bad = SlpMap(program.in_arity, nodes, program.outputs, chart=program.chart)
    with pytest.raises(IdentityFails) as err:
        check_on_variety(bad, H.F, seed=0)
    # the first point that the seed draws, valued by the oracle
    rng = random.Random(0)
    point = [Fraction(rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND))
             for _ in range(bad.in_arity)]
    value = H.F.evaluate(oracle_eval(bad, point))
    assert value != 0
    assert err.value.point == [str(c) for c in point]
    assert err.value.value == value


# -- jacobian ----------------------------------------------------------------


P61 = 2 ** 61 - 1


def mod(x, p=P61):
    """The rational x as a residue mod p."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def test_conic_jacobian_chart0():
    m = conic_map()
    j = m.jacobian([Fraction(1)], P61)
    assert j == [[1], [2]]
    assert rank_mod_p(j, P61) == 1


def test_jacobian_matches_divided_differences_exactly():
    # raw outputs are quadratic, so 2*D(h) - D(2h) recovers the derivative
    # with no error term at all; the residues mod p must agree with it
    m = stereographic_sphere(chart=None)
    p = [Fraction(1), Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    j = m.jacobian(p, P61)
    h = Fraction(1, 1024)
    base = m.eval(p)
    for i in range(4):
        d1 = []
        d2 = []
        for scale, sink in ((h, d1), (2 * h, d2)):
            shifted = list(p)
            shifted[i] = shifted[i] + scale
            vals = m.eval(shifted)
            sink.extend((vals[r] - base[r]) / scale for r in range(5))
        for r in range(5):
            assert mod(2 * d1[r] - d2[r]) == j[r][i]


def test_stereographic_jacobian_rank():
    m = stereographic_sphere()
    point = [Fraction(1)] * 4
    j = m.jacobian(point, P61)
    assert len(j) == 4 and all(len(row) == 4 for row in j)
    assert rank_mod_p(j, P61) == 3
    # rank mod p only bounds the rank over QQ from below; sympy gives it
    import sympy as sp
    v = sp.symbols("v0:4")
    out = m.eval(list(v), lift=lambda c: sp.Rational(c.numerator, c.denominator))
    chart = sp.Matrix([out[k] / out[4] for k in range(4)])
    jac = chart.jacobian(v).subs(dict(zip(v, point)))
    assert jac.rank() == 3


def test_jacobian_mod_p():
    m = conic_map()
    assert m.jacobian([Fraction(2)], 10007) == [[1], [4]]
    # at t = 1/3 the rows are w^2 * d(out/w) for w = 1: residues of 1 and 2/3
    assert m.jacobian([Fraction(1, 3)], 10007) == [[1], [mod(Fraction(2, 3), 10007)]]
    with pytest.raises(BadPrime):
        m.jacobian([Fraction(1, 10007)], 10007)


def test_chart_vanishes():
    b = SlpBuilder(1)
    t = b.inputs[0]
    m = b.finish([t, t + b.const(1)], chart=0)
    with pytest.raises(ChartVanishes):
        m.jacobian([Fraction(0)], P61)
    # a chart coordinate that is nonzero over QQ but zero mod p
    with pytest.raises(ChartVanishes):
        m.jacobian([Fraction(10007)], 10007)


# -- serialization -------------------------------------------------------------


def test_roundtrip_conic():
    m = conic_map()
    m2 = SlpMap.from_json(json.loads(json.dumps(m.to_json(), sort_keys=True)))
    assert m2.eval([Fraction(3)]) == [1, 3, 9]
    assert m2.chart == m.chart
    assert m2.degree_bounds == m.degree_bounds


def test_roundtrip_stereographic_behavioral():
    m = stereographic_sphere()
    m2 = SlpMap.from_json(json.loads(json.dumps(m.to_json(), sort_keys=True)))
    rng = random.Random(7)
    for _ in range(5):
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(4)]
        assert m2.eval(p) == m.eval(p)


def test_roundtrip_preserves_fractions(tmp_path):
    b = SlpBuilder(1)
    m = b.finish([b.inputs[0] * b.const(Fraction(-7, 3))])
    path = tmp_path / "scale.slp.json"
    m.save(path)
    m2 = SlpMap.from_json(json.loads(path.read_text()))
    assert m2.eval([Fraction(3)]) == [Fraction(-7)]


def test_a_program_builds_its_document_once(tmp_path):
    m = stereographic_sphere()
    doc = m.to_json()
    assert m.to_json() is doc
    path = tmp_path / "sphere.slp.json"
    m.save(path)
    assert m.to_json() is doc
    assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"


def test_write_json_splices_a_repeated_object(tmp_path, monkeypatch):
    # one dict object at three places the writer meets: a top-level value,
    # inside two entries of a list of documents, and under a nested object;
    # and once more inside a nested list, which is encoded in one call
    program = stereographic_sphere().to_json()
    shared = {"b": [1, 2.5, None, True], "a": "\u00e9x", "c": {}}
    doc = {"z": shared, "certificates": [{"phi": program, "k": 1},
                                         {"phi": program, "s": shared}],
           "nested": {"deep": {"phi": program}, "list": [shared, [shared]]},
           "empty": {}, "n": -3}
    encoded = []
    encode = slp._encode
    monkeypatch.setattr(slp, "_encode", lambda v: encoded.append(v) or encode(v))
    path = tmp_path / "shared.json"
    write_json(path, doc)
    assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"
    # the program's node list is encoded once for its three occurrences
    assert sum(v is program["nodes"] for v in encoded) == 1


def test_same_program_reads_ints_strictly():
    doc = stereographic_sphere().to_json()
    twin = json.loads(json.dumps(doc))
    assert same_program(twin, doc) and same_program(doc, doc)
    # == takes true and 1.0 for 1, the reader does not
    for path in (("version",), ("in_arity",), ("chart",), ("outputs", 0),
                 ("degree_bounds", 1), ("nodes", 0, "args", 0)):
        bad = json.loads(json.dumps(doc))
        target = bad
        for key in path[:-1]:
            target = target[key]
        value = target[path[-1]]
        for other in (float(value), bool(value) if value in (0, 1) else None):
            if other is None:
                continue
            target[path[-1]] = other
            assert bad == doc
            assert not same_program(bad, doc)
    twin["nodes"][-1]["args"][0] += 1
    assert not same_program(twin, doc)


def test_cyclic_node_list_rejected():
    doc = {
        "version": 1, "in_arity": 1, "out_arity": 1,
        "nodes": [{"op": "input", "args": [0]},
                  {"op": "add", "args": [0, 2]},
                  {"op": "add", "args": [1, 0]}],
        "outputs": [2],
    }
    with pytest.raises(MalformedInput):
        SlpMap.from_json(doc)


def test_self_reference_rejected():
    with pytest.raises(MalformedInput):
        SlpMap(1, [("input", 0), ("mul", 1, 1)], [1])


def test_tampered_degree_bounds_rejected():
    m = conic_map()
    doc = copy.deepcopy(m.to_json())  # the program's document is shared
    doc["degree_bounds"] = [0, 1, 99]
    with pytest.raises(MalformedInput):
        SlpMap.from_json(doc)


def test_unknown_op_rejected():
    doc = {"version": 1, "in_arity": 1, "out_arity": 1,
           "nodes": [{"op": "pow", "args": [0, 0]}], "outputs": [0]}
    with pytest.raises(MalformedInput):
        SlpMap.from_json(doc)


MISSING = object()


@pytest.mark.parametrize("path, value, message", [
    ((), ("nodes", 5), "nodes must be a list"),
    (("nodes", 0), ("args", 0), "node 0: args must be a list"),
    (("nodes", 0), ("args", None), "node 0: args must be a list"),
    (("nodes", 2), ("args", [[0], 0]), "node 2"),
    ((), ("degree_bounds", 3), "degree_bounds must be a list"),
    ((), ("degree_bounds", [[2], 2, 2]), "degree_bounds"),
    ((), ("chart", [0]), "chart"),
    # only JSON integers index: nothing is truncated or parsed from text
    (("nodes", 0), ("args", [0.9]), "node 0"),
    (("nodes", 2), ("args", ["0", 0]), "node 2"),
    (("nodes", 2), ("args", [0, False]), "node 2"),
    ((), ("outputs", [1, "0", 2]), "outputs"),
    ((), ("outputs", 5), "outputs must be a list"),
    ((), ("chart", 1.5), "chart"),
    ((), ("in_arity", True), "in_arity"),
    ((), ("out_arity", 3.0), "out_arity"),
    ((), ("degree_bounds", [0, 1, 2.0]), "degree_bounds"),
    # every writer writes the bounds, so a program has one encoding
    ((), ("degree_bounds", MISSING), "degree_bounds is missing"),
    ((), ("out_arity", 2), "output count disagrees with arity"),
    # whole messages, as the node reader words them; nodes: input 0,
    # const 1, mul 0 0
    (("nodes", 2), ("args", [True, 0]),
     "node 2: args[0] must be an integer, not a boolean"),
    (("nodes", 2), ("args", [1.0, 0]), "node 2: args[0] must be an integer, not a float"),
    (("nodes", 2), ("args", ["1", 0]), "node 2: args[0] must be an integer, not a string"),
    (("nodes", 2), ("args", [0, True]),
     "node 2: args[1] must be an integer, not a boolean"),
    (("nodes", 1), ("args", [0]), "node 1: const takes 0 operands"),
    (("nodes", 1), ("value", MISSING), "node 1: value is missing"),
    (("nodes", 1), ("value", "1/0"), "node 1: zero denominator in '1/0'"),
    (("nodes", 2), ("args", [0, 3]), "forward or self reference at node 2"),
    (("nodes", 2), ("args", [2, 0]), "forward or self reference at node 2"),
    (("nodes", 2), ("args", [-1, 0]), "forward or self reference at node 2"),
    (("nodes", 2), ("args", [0, 0, 0]), "node 2: mul takes 2 operands"),
    (("nodes", 2), ("op", "div"), "unknown op 'div' at node 2"),
    (("nodes", 0), ("args", [1]), "input index out of range at node 0"),
    (("nodes", 0), ("args", [-1]), "input index out of range at node 0"),
], ids=["nodes", "args-int", "args-null", "arg-list",
        "bounds", "bound-list", "chart", "arg-float", "arg-string",
        "arg-bool", "output-string", "outputs-int", "chart-float",
        "in-arity-bool", "out-arity-float", "bound-float", "bounds-missing",
        "out-arity-count", "arg-true", "arg-one-float", "arg-one-string",
        "second-arg-true", "const-operand", "value-missing",
        "value-zero-denominator", "forward", "self", "negative",
        "three-operands", "unknown-op", "input-range", "input-negative"])
def test_malformed_fields_rejected(path, value, message):
    doc = copy.deepcopy(conic_map().to_json())
    target = doc
    for key in path:
        target = target[key]
    if value[1] is MISSING:
        del target[value[0]]
    else:
        target[value[0]] = value[1]
    with pytest.raises(MalformedInput, match=re.escape(message)):
        SlpMap.from_json(doc)


def test_all_zero_outputs_rejected():
    with pytest.raises(MalformedInput):
        SlpMap(1, [("const", Fraction(0))], [0])


# -- degree bound soundness -----------------------------------------------------


def random_program(rng, n_inputs, n_ops):
    b = SlpBuilder(n_inputs)
    pool = list(b.inputs) + [b.const(rng.randint(-3, 3)) for _ in range(2)]
    for _ in range(n_ops):
        op = rng.choice(("add", "sub", "mul"))
        x, y = rng.choice(pool), rng.choice(pool)
        pool.append(b._emit(op, x, y))
    out = pool[-1]
    return b, out


def test_degree_bound_never_undershoots_expansion():
    rng = random.Random(42)
    for _ in range(30):
        b, out = random_program(rng, 2, rng.randint(1, 8))
        try:
            m = b.finish([out])
        except MalformedInput:
            continue  # the random expression collapsed to literal zero
        xs = [MPoly.variable(i, 2, QQ) for i in range(2)]
        val = m.eval(xs, lift=lambda c: MPoly.const(2, c, QQ))[0]
        assert val.total_degree() <= m.degree_bounds[0]


def test_builder_shares_repeated_subexpressions():
    b = SlpBuilder(2)
    x, y = b.inputs
    s = x + y
    m = b.finish([s * s])
    # inputs, one add, one mul
    assert len(m) == 4


def test_finish_keeps_only_the_nodes_an_output_reaches():
    b = SlpBuilder(3)
    x, y, z = b.inputs
    dead = (x + y) * (x + y)  # reaches no output
    half = b.const(Fraction(1, 2))
    live = x * half - y
    dead * z
    m = b.finish([live, live * live], chart=0)
    # the inputs stay, z among them, and the operands are renumbered
    assert m.nodes == (("input", 0), ("input", 1), ("input", 2),
                       ("const", Fraction(1, 2)), ("mul", 0, 3), ("sub", 4, 1),
                       ("mul", 5, 5))
    assert m.outputs == (5, 6) and m.in_arity == 3
    assert m.eval([Fraction(4), Fraction(1), Fraction(9)]) == [1, 1]
    assert m.degree_bounds == (1, 2)


def test_a_slice_keeps_the_nodes_of_its_parent():
    # slices share the values swept at a point, so they share the nodes;
    # here the cube reaches only the dropped output
    b = SlpBuilder(1)
    t = b.inputs[0]
    m = b.finish([t, t * t, t * t * t])
    part = m.slice(m.outputs[:2], chart=0)
    assert part.nodes == m.nodes and len(part) == 3
    assert part.eval([Fraction(3)]) == [3, 9]


def test_a_slice_checks_its_outputs_as_the_constructor_does():
    # a slice skips the node pass, so it keeps its parent's degree bounds,
    # and refuses each bad output list or chart with the constructor's
    # message
    b = SlpBuilder(2)
    x, y = b.inputs
    m = b.finish([x * y, x * x * y, b.const(0), x - y])
    assert m.outputs == (2, 4, 5, 6)
    part = m.slice((2, 4, 5), chart=1)
    assert part.nodes is m.nodes
    assert part.degree_bounds == SlpMap(2, m.nodes, (2, 4, 5), chart=1).degree_bounds
    assert part.degree_bounds == (2, 3, 0)
    for outputs, chart in [((), None), ((2, 99), None), ((2, 4), 2), ((2, -1), 0),
                           ((5, 5), None)]:
        with pytest.raises(MalformedInput) as want:
            SlpMap(m.in_arity, m.nodes, outputs, chart=chart)
        with pytest.raises(MalformedInput) as got:
            m.slice(outputs, chart=chart)
        assert str(got.value) == str(want.value)


def squarings(k):
    """The nodes of x0 and k squarings of it."""
    return [("input", 0)] + [("mul", i, i) for i in range(k)]


def test_node_degree_cap():
    assert slp.MAX_NODE_DEGREE == 1024
    # x0^1024 is the largest power the cap admits
    m = SlpMap(1, squarings(10), [10])
    assert m.degree_bounds == (1024,)
    with pytest.raises(MalformedInput,
                       match="^node 11 has degree 1025, above the cap of 1024$"):
        SlpMap(1, squarings(10) + [("mul", 10, 0)], [11])
    # a node that reaches no output counts: the sweeps evaluate it
    with pytest.raises(MalformedInput, match="node 11 has degree 2048"):
        SlpMap(1, squarings(40), [0])
    # the builder drops such a node before the cap sees it
    b = SlpBuilder(1)
    t = b.inputs[0]
    for _ in range(40):
        t = t * t
    assert len(b.finish([b.inputs[0]])) == 1
