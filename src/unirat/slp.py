"""Straight-line programs for polynomial maps.

A map is a list of nodes (inputs, rational constants, add, sub and mul) plus
a set of output node indices.  With no division the tracked degree bounds
hold for every program the format accepts.  Evaluation and forward-mode
differentiation walk the node list once; programs stay small even when their
expanded polynomial form would be enormous.

A program's JSON document is built at most once per SlpMap, on first use.
Every certificate, report and instance document that embeds the program
shares that one document object, so it is read-only.
`write_json` encodes a dict object that a document holds more than once a
single time and splices its text in at each occurrence.

At a rational point the sweep runs in scaled integers.  L is the lcm of the
denominators of the program's constants and of the point's coordinates, and
each node holds an int N standing for N / L^e, where the exponent e counts
how often a denominator entered: 0 or 1 at an input or constant, the larger
operand's e at add and sub, the sum at mul.  Every step is exact, so the
outputs Fraction(N, L^e) equal the values of a Fraction sweep, with one gcd
per output instead of one per node.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import lcm

from .exactcore import format_rational, parse_rational, residue

# how many args the node of each op lists in a program file
_OPERANDS = {"input": 1, "const": 0, "add": 2, "sub": 2, "mul": 2}


class MalformedInput(ValueError):
    """A document fails a structural invariant: a field is missing or of
    the wrong JSON type, or a program has a cycle, a bad arity or a bad op."""


_REQUIRED = object()
_JSON_NAMES = {type(None): "null", bool: "a boolean", int: "an integer",
               float: "a float", str: "a string", list: "a list", dict: "an object"}


def _wrong(field, kind, value):
    return MalformedInput("%s must be %s, not %s" % (
        field, _JSON_NAMES[kind], _JSON_NAMES.get(type(value), type(value).__name__)))


def read(doc, key, kind, default=_REQUIRED):
    """doc[key] when it is exactly of type `kind`: a bool is not an int
    and a float is not an int.  An absent key gives `default`; anything
    else raises MalformedInput naming the field."""
    try:
        value = doc[key]
    except KeyError:
        if default is _REQUIRED:
            raise MalformedInput("%s is missing" % key)
        return default
    except TypeError:
        raise _wrong("a document holding %s" % key, dict, doc)
    if type(value) is not kind:
        raise _wrong(key, kind, value)
    return value


def read_list(doc, key, kind, default=_REQUIRED):
    """read(doc, key, list, default) whose entries are all exactly of type
    `kind`."""
    values = read(doc, key, list, default)
    if values is not default:
        for value in values:
            if type(value) is not kind:
                pos = next(i for i, v in enumerate(values) if type(v) is not kind)
                raise _wrong("%s[%d]" % (key, pos), kind, values[pos])
    return values


# json.dumps(value, sort_keys=True) without building an encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _holds_documents(value):
    """Whether value is a list of objects that hold objects, such as a
    report's certificates, each of which carries a program."""
    return type(value) is list and any(
        type(v) is dict for entry in value if type(entry) is dict
        for v in entry.values())


def _repeated(items):
    """The ids of the dict objects that write_json meets more than once in
    the (key, value, split) items of a document."""
    seen, repeated = set(), set()
    todo = [entry for _, value, split in items
            for entry in (value if split else (value,))]
    while todo:
        value = todo.pop()
        if type(value) is dict:
            if id(value) in seen:
                repeated.add(id(value))
            else:
                seen.add(id(value))
                todo.extend(value.values())
    return repeated


def write_json(path, doc):
    """Write the document as json.dumps(doc, sort_keys=True) + "\n", byte
    for byte, with the C encoder.

    The writer meets the top-level values one at a time, the entries of a
    top-level list of objects that hold objects (a report's certificates)
    one at a time, and the values of every object it meets, at any depth;
    any other value, such as a program's node list, is encoded in one call.
    So the text of a large report is never held whole.  A dict object that
    the writer meets more than once, such as the shared document of a
    program that several certificates embed, is encoded once and its text
    spliced in at each occurrence.  A document with no such object is
    written one top-level value or entry per encoder call.  Document keys
    are strings."""
    # split: whether the writer meets the value's entries one at a time
    items = [(key, doc[key], _holds_documents(doc[key])) for key in sorted(doc)]
    repeated = _repeated(items)
    texts = {}

    def text(value):
        if type(value) is not dict or not repeated:
            return _encode(value)
        found = texts.get(id(value))
        if found is None:
            found = "{%s}" % ", ".join("%s: %s" % (_encode(key), text(value[key]))
                                       for key in sorted(value))
            if id(value) in repeated:
                texts[id(value)] = found
        return found

    with open(path, "w") as fh:
        fh.write("{")
        for i, (key, value, split) in enumerate(items):
            fh.write("%s%s: " % (", " if i else "", _encode(key)))
            if split:
                fh.write("[")
                for j, entry in enumerate(value):
                    fh.write(", " + text(entry) if j else text(entry))
                fh.write("]")
            else:
                fh.write(text(value))
        fh.write("}\n")


class ChartVanishes(ArithmeticError):
    """The recorded dehomogenization coordinate is zero at this point."""


class ArityMismatch(ValueError):
    pass


def _validate(in_arity, nodes, outputs, chart):
    if in_arity < 0 or not outputs:
        raise MalformedInput("arities must be positive")
    for idx, node in enumerate(nodes):
        op = node[0]
        if op == "input":
            if not (0 <= node[1] < in_arity):
                raise MalformedInput("input index out of range at node %d" % idx)
        elif op == "const":
            if not isinstance(node[1], Fraction):
                raise MalformedInput("constant is not rational at node %d" % idx)
        elif _OPERANDS.get(op) == 2:
            a, b = node[1], node[2]
            # acyclicity: operands always refer to strictly earlier nodes
            if not (0 <= a < idx and 0 <= b < idx):
                raise MalformedInput("forward or self reference at node %d" % idx)
        else:
            raise MalformedInput("unknown op %r at node %d" % (op, idx))
    for o in outputs:
        if not (0 <= o < len(nodes)):
            raise MalformedInput("output index %d out of range" % o)
    if chart is not None and not (0 <= chart < len(outputs)):
        raise MalformedInput("chart coordinate out of range")
    if all(nodes[o] == ("const", Fraction(0)) for o in outputs):
        raise MalformedInput("all outputs are literally zero")


def _degree_bounds(nodes):
    deg = []
    for node in nodes:
        op = node[0]
        if op == "input":
            deg.append(1)
        elif op == "const":
            deg.append(0)
        elif op in ("add", "sub"):
            deg.append(max(deg[node[1]], deg[node[2]]))
        else:  # mul: the degrees add; without division the bound is sound
            deg.append(deg[node[1]] + deg[node[2]])
    return deg


class SlpMap:
    """Immutable polynomial map given by a straight-line program."""

    def __init__(self, in_arity, nodes, outputs, chart=None):
        _validate(in_arity, nodes, outputs, chart)
        self.in_arity = in_arity
        self.out_arity = len(outputs)
        self.nodes = tuple(tuple(n) for n in nodes)
        self.outputs = tuple(outputs)
        self.chart = chart
        node_deg = _degree_bounds(self.nodes)
        self.degree_bounds = tuple(node_deg[o] for o in self.outputs)
        self._const_lcm = lcm(*(n[1].denominator for n in self.nodes
                                if n[0] == "const"))
        # rational point -> {output node: value}, shared with the output
        # slices of this map (see slice and eval)
        self._values = {}
        # the document, built on first use (to_json)
        self._doc = None

    def __len__(self):
        return len(self.nodes)

    def slice(self, outputs, chart=None):
        """The map with this map's nodes and the given output nodes.  The
        two share the values eval finds at rational points, so a point at
        which either was evaluated is not swept again for the other."""
        m = SlpMap(self.in_arity, self.nodes, outputs, chart=chart)
        m._values = self._values
        return m

    # -- evaluation -----------------------------------------------------------

    def _check_arity(self, point):
        if len(point) != self.in_arity:
            raise ArityMismatch(
                "map takes %d inputs, got %d" % (self.in_arity, len(point)))

    def _sweep(self, point, lift):
        """Node values over a ring whose elements support + - *; `lift`
        carries each rational constant into that ring."""
        vals = []
        for node in self.nodes:
            op = node[0]
            if op == "input":
                vals.append(point[node[1]])
            elif op == "const":
                vals.append(lift(node[1]))
            elif op == "add":
                vals.append(vals[node[1]] + vals[node[2]])
            elif op == "sub":
                vals.append(vals[node[1]] - vals[node[2]])
            else:
                vals.append(vals[node[1]] * vals[node[2]])
        return vals

    def _scaled_sweep(self, point):
        """Node values N / L^e at a rational point, as parallel lists of the
        int numerators N and the exponents e, and the common base L."""
        L = lcm(self._const_lcm, *(x.denominator for x in point))
        nums, exps = [], []
        for node in self.nodes:
            op = node[0]
            if op == "mul":
                a, b = node[1], node[2]
                nums.append(nums[a] * nums[b])
                exps.append(exps[a] + exps[b])
            elif op == "add" or op == "sub":
                a, b = node[1], node[2]
                na, nb, ea, eb = nums[a], nums[b], exps[a], exps[b]
                # bring the side with the smaller e up to the larger one
                if ea < eb:
                    na, ea = na * L ** (eb - ea), eb
                elif eb < ea:
                    nb = nb * L ** (ea - eb)
                nums.append(na + nb if op == "add" else na - nb)
                exps.append(ea)
            else:
                x = point[node[1]] if op == "input" else node[1]
                d = x.denominator
                if d == 1:
                    nums.append(x.numerator)
                    exps.append(0)
                else:
                    nums.append(x.numerator * (L // d))
                    exps.append(1)
        return nums, exps, L

    def eval(self, point, lift=None):
        """The outputs at `point`.

        Without `lift` the point is rational: its entries must be ints or
        Fractions, and anything else raises TypeError.  The sweep runs over
        plain ints: L is the lcm of the denominators of the constants and
        of the coordinates, and each node holds an int N standing for
        N / L^e.  An input or constant has e = 0 when it is an integer and
        e = 1 otherwise, add and sub scale the side with the smaller e by a
        power of L, and mul adds the e's.  No step rounds or divides, so
        each output Fraction(N, L^e) is exactly the output's value.  The
        values at each rational point are kept, for this map and the maps
        sliced from it or from which it was sliced (see slice), so the
        certificates that draw the same points sweep them once.

        With `lift` the entries live in any ring with + - * (polynomials,
        builder nodes, sympy expressions) and `lift` carries each rational
        constant into that ring.
        """
        self._check_arity(point)
        if lift is not None:
            vals = self._sweep(point, lift)
            return [vals[o] for o in self.outputs]
        for x in point:
            if type(x) is not int and type(x) is not Fraction:
                raise TypeError("a rational point takes ints and Fractions, not %s"
                                % type(x).__name__)
        known = self._values.setdefault(tuple(point), {})
        if not all(o in known for o in self.outputs):
            nums, exps, L = self._scaled_sweep(point)
            known.update((o, Fraction(nums[o], L ** exps[o])) for o in self.outputs)
        return [known[o] for o in self.outputs]

    def jacobian(self, point, p):
        """Jacobian of the affine-chart outputs at a rational point, as rows
        of plain ints mod the prime p.

        The point and the constants are reduced mod p; a denominator that p
        divides raises BadPrime.  With a recorded chart c and w = out_c, row
        m != c is dv_m*w - v_m*dw, which is w^2 * d(out_m/out_c), so the
        rows have the rank of the chart's Jacobian with no division; a w
        that vanishes mod p raises ChartVanishes.  Without a chart the raw
        outputs are differentiated.
        """
        self._check_arity(point)
        lift = lambda x: residue(x, p)
        n = self.in_arity
        zero = [0] * n
        vals = []
        # ders[idx] is the gradient of node idx w.r.t. all inputs
        ders = []
        for node in self.nodes:
            op = node[0]
            if op == "input":
                vals.append(lift(point[node[1]]))
                grad = [0] * n
                grad[node[1]] = 1
                ders.append(grad)
            elif op == "const":
                vals.append(lift(node[1]))
                ders.append(zero)
            else:
                a, b = vals[node[1]], vals[node[2]]
                da, db = ders[node[1]], ders[node[2]]
                if op == "add":
                    vals.append((a + b) % p)
                    ders.append([(x + y) % p for x, y in zip(da, db)])
                elif op == "sub":
                    vals.append((a - b) % p)
                    ders.append([(x - y) % p for x, y in zip(da, db)])
                else:
                    vals.append(a * b % p)
                    ders.append([(a * y + b * x) % p for x, y in zip(da, db)])
        if self.chart is None:
            return [list(ders[o]) for o in self.outputs]
        c = self.outputs[self.chart]
        w, dw = vals[c], ders[c]
        if w == 0:
            raise ChartVanishes(
                "chart coordinate %d vanishes at point mod %d" % (self.chart, p))
        return [[(dv_j * w - vals[o] * dw_j) % p for dv_j, dw_j in zip(ders[o], dw)]
                for pos, o in enumerate(self.outputs) if pos != self.chart]

    # -- serialization --------------------------------------------------------

    def to_json(self):
        """The program's document, built on first use; every later call
        returns that same object, and the certificates, reports and
        instances that embed the program share it.  It is read-only: a
        caller that edits it edits a copy.deepcopy of it."""
        if self._doc is not None:
            return self._doc
        nodes = []
        for node in self.nodes:
            if node[0] == "input":
                nodes.append({"op": "input", "args": [node[1]]})
            elif node[0] == "const":
                nodes.append({"op": "const", "args": [],
                              "value": format_rational(node[1])})
            else:
                nodes.append({"op": node[0], "args": [node[1], node[2]]})
        doc = {
            "version": 1,
            "in_arity": self.in_arity,
            "out_arity": self.out_arity,
            "nodes": nodes,
            "outputs": list(self.outputs),
            "degree_bounds": list(self.degree_bounds),
        }
        if self.chart is not None:
            doc["chart"] = self.chart
        self._doc = doc
        return doc

    @classmethod
    def from_json(cls, doc):
        if read(doc, "version", int) != 1:
            raise MalformedInput("unsupported program version")
        nodes = []
        for idx, entry in enumerate(read(doc, "nodes", list)):
            try:
                op = read(entry, "op", str)
                args = read_list(entry, "args", int)
                # an unknown op is left to _validate
                if len(args) != _OPERANDS.get(op, len(args)):
                    raise MalformedInput("%s takes %d operands" % (op, _OPERANDS[op]))
                if op == "const":
                    args = [parse_rational(read(entry, "value", str))]
            except ValueError as exc:  # a MalformedInput or a bad constant
                raise MalformedInput("node %d: %s" % (idx, exc))
            nodes.append((op, *args))
        outputs = read_list(doc, "outputs", int)
        if read(doc, "out_arity", int) != len(outputs):
            raise MalformedInput("output count disagrees with arity")
        m = cls(read(doc, "in_arity", int), nodes, outputs,
                chart=read(doc, "chart", int, None))
        if read_list(doc, "degree_bounds", int) != list(m.degree_bounds):
            raise MalformedInput("degree bounds do not match the node list")
        return m

    def save(self, path):
        write_json(path, self.to_json())


def same_program(doc, known):
    """Whether the document `doc` reads as `known`, a program document that
    SlpMap.from_json accepted: equal as a value, with an int wherever the
    reader takes one.  == alone takes true and 1.0 for 1, which the reader
    refuses.  So a reader of several documents parses each program once."""
    if doc != known:
        return False
    ints = [doc[key] for key in ("version", "in_arity", "out_arity", "chart")
            if key in doc]
    lists = [node["args"] for node in doc["nodes"]]
    lists += [doc["outputs"], doc["degree_bounds"]]
    return set(map(type, chain(ints, *lists))) <= {int}


# -- construction helper -------------------------------------------------------


class NodeRef:
    """Handle to a builder node; arithmetic builds new nodes."""

    __slots__ = ("builder", "index")

    def __init__(self, builder, index):
        self.builder = builder
        self.index = index

    def _coerce(self, other):
        if isinstance(other, NodeRef):
            if other.builder is not self.builder:
                raise ValueError("mixing nodes from different builders")
            return other
        return self.builder.const(other)

    def __add__(self, other):
        return self.builder._emit("add", self, self._coerce(other))

    def __radd__(self, other):
        return self.builder._emit("add", self._coerce(other), self)

    def __sub__(self, other):
        return self.builder._emit("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return self.builder._emit("sub", self._coerce(other), self)

    def __mul__(self, other):
        return self.builder._emit("mul", self, self._coerce(other))

    def __rmul__(self, other):
        return self.builder._emit("mul", self._coerce(other), self)

    def __neg__(self):
        return self.builder.const(-1) * self

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise TypeError("node powers must be nonnegative integers")
        if e == 0:
            return self.builder.const(1)
        acc = self
        for _ in range(e - 1):
            acc = acc * self
        return acc


class SlpBuilder:
    """Assembles an SlpMap; identical subexpressions share one node."""

    def __init__(self, n_inputs):
        self.nodes = []
        self._memo = {}
        self.inputs = [self._raw(("input", i)) for i in range(n_inputs)]
        self.n_inputs = n_inputs

    def _raw(self, node):
        key = node
        found = self._memo.get(key)
        if found is not None:
            return found
        self.nodes.append(node)
        ref = NodeRef(self, len(self.nodes) - 1)
        self._memo[key] = ref
        return ref

    def const(self, value):
        return self._raw(("const", Fraction(value)))

    def _emit(self, op, a, b):
        return self._raw((op, a.index, b.index))

    def finish(self, outputs, chart=None):
        return SlpMap(self.n_inputs, list(self.nodes),
                      [o.index for o in outputs], chart=chart)
