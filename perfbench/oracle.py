"""Computations made apart from the program, for checking its outputs.

Polynomials are read from their text with Python's own arithmetic, programs
are interpreted from their JSON node lists, and the algebra the benchmark
compares against comes from sympy.  Nothing here imports `unirat`.  sympy is
imported lazily, after the metrics are taken, so its import counts in
neither `setup_s` nor `peak_rss_mb`.
"""

import re
from fractions import Fraction

_VAR = re.compile(r"\b([a-z])(\d+)\b")

# fresh points each written program must map into {F = 0}, and the draws
# allowed for them (a draw at a pole or onto the zero vector is redrawn)
MAP_POINTS = 10
MAP_DRAWS = 100
# random points of the hyperplane at which F must be positive
POSITIVE_POINTS = 100
# the n8 quartic is F = f^2 + x5*c1 with this f
N8_F = "x0^2 + x1^2 + x2^2 + x3^2 - x4^2"


def poly_fn(text):
    """A function of a coordinate list that evaluates the polynomial `text`
    (the program's `x0^2 + 2*x0*x1 - 1/16*x3` grammar) in exact arithmetic."""
    # every integer literal that is neither a variable index nor an exponent
    # becomes a Fraction, so 1/16 stays exact
    expr = re.sub(r"(?<![\w*])(\d+)", r"F(\1)", text.replace("^", "**"))
    code = compile(expr, "<poly>", "eval")
    names = sorted(set(_VAR.findall(text)), key=lambda m: int(m[1]))

    def value(x):
        env = {"%s%s" % m: x[int(m[1])] for m in names}
        return eval(code, {"__builtins__": {}, "F": Fraction}, env)
    return value


def eval_program(doc, point):
    """Outputs of a straight-line program (its JSON form) at a point.
    Raises ZeroDivisionError at a pole."""
    vals = []
    for node in doc["nodes"]:
        op, args = node["op"], node["args"]
        if op == "input":
            vals.append(Fraction(point[args[0]]))
        elif op == "const":
            vals.append(Fraction(node["value"]))
        elif op == "add":
            vals.append(vals[args[0]] + vals[args[1]])
        elif op == "sub":
            vals.append(vals[args[0]] - vals[args[1]])
        elif op == "mul":
            vals.append(vals[args[0]] * vals[args[1]])
        elif op == "div":
            vals.append(vals[args[0]] / vals[args[1]])
        else:
            raise ValueError("unknown op %r" % op)
    return [vals[o] for o in doc["outputs"]]


def maps_into(program, F_text, rng):
    """Number of fresh rational points (out of MAP_POINTS) that the program
    maps into {F = 0}; points that hit a pole or the zero vector are redrawn."""
    F = poly_fn(F_text)
    good = 0
    tried = 0
    for _ in range(MAP_DRAWS):
        if tried == MAP_POINTS:
            break
        pt = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
              for _ in range(program["in_arity"])]
        try:
            out = eval_program(program, pt)
        except ZeroDivisionError:
            continue
        if not any(out):
            continue
        tried += 1
        good += F(out) == 0
    return good if tried == MAP_POINTS else -1


def positive_on_hyperplane(F_text, nvars, chart, rng):
    """F > 0 at POSITIVE_POINTS random nonzero rational points of
    {x_chart = 0}."""
    F = poly_fn(F_text)
    for _ in range(POSITIVE_POINTS):
        pt = [Fraction(rng.randint(-30, 30), rng.randint(1, 7))
              for _ in range(nvars)]
        pt[chart] = Fraction(0)
        if not any(pt):
            pt[(chart + 1) % nvars] = Fraction(1)
        if not F(pt) > 0:
            return False
    return True


# -- sympy ---------------------------------------------------------------------------


def _sympy_poly(text, nvars, sp):
    xs = sp.symbols("x0:%d" % nvars)
    expr = sp.sympify(text.replace("^", "**"),
                      locals={"x%d" % i: xs[i] for i in range(nvars)})
    return expr, xs


def partials_vanish_at(F_text, nvars, point):
    """Every partial derivative of F is zero at `point` (sympy)."""
    import sympy as sp
    F, xs = _sympy_poly(F_text, nvars, sp)
    at = dict(zip(xs, point))
    return all(sp.diff(F, x).subs(at) == 0 for x in xs)


def section_obstruction(F_text, n):
    """t-coefficients 0..6 of c1 = (F - N8_F^2)/x5 on the pencil of
    sections x_i = b_i*x5 (i >= 6), restricted to the circle conic
    (1 - t^2, 2t, 0, 0, 1 + t^2) with x5 = 0 (sympy expressions in b_i)."""
    import sympy as sp
    F, xs = _sympy_poly(F_text, n + 1, sp)
    f, _ = _sympy_poly(N8_F, 5, sp)
    bs = {i: sp.Symbol("b%d" % i) for i in range(6, n + 1)}
    sec = F.subs({xs[i]: bs[i] * xs[5] for i in bs}, simultaneous=True)
    c1 = sp.cancel(sp.expand(sec - f ** 2) / xs[5])
    t = sp.Symbol("t")
    conic = {xs[0]: 1 - t ** 2, xs[1]: 2 * t, xs[2]: 0, xs[3]: 0,
             xs[4]: 1 + t ** 2, xs[5]: 0}
    on = sp.Poly(sp.expand(c1.subs(conic, simultaneous=True)), t)
    return [sp.expand(on.coeff_monomial(t ** d)) for d in range(7)], bs


def same_obstruction(stored, F_text, n):
    """The stored obstruction strings equal the sympy computation."""
    import sympy as sp
    want, bs = section_obstruction(F_text, n)
    if len(stored) != len(want):
        return False
    names = {str(b): b for b in bs.values()}
    for s, w in zip(stored, want):
        if sp.expand(sp.sympify(s.replace("^", "**"), locals=names) - w) != 0:
            return False
    return True


def groebner_grevlex(polys_text, nvars, p):
    """Reduced grevlex basis mod p (sympy), each element as a dict
    {exponent tuple: coefficient in [0, p)}, monic, sorted by leading term."""
    import sympy as sp
    xs = sp.symbols("x0:%d" % nvars)
    gens = [_sympy_poly(t, nvars, sp)[0] for t in polys_text]
    G = sp.groebner(gens, *xs, modulus=p, order="grevlex")
    out = []
    for g in G.exprs:
        P = sp.Poly(g, *xs, modulus=p)
        lc = int(P.LC(order="grevlex")) % p
        inv = pow(lc, p - 2, p)
        out.append({m: int(c) * inv % p for m, c in P.terms()})
    return sorted(out, key=lambda d: sorted(d))


def dimension_of_basis(basis, nvars):
    """Projective dimension of the zero set of a grevlex Gröbner basis, given
    as exponent dicts: the size of the largest variable subset that holds no
    leading monomial's support, minus one."""
    def grevlex(exp):
        return (sum(exp), tuple(-e for e in reversed(exp)))
    masks = [sum(1 << i for i, e in enumerate(max(g, key=grevlex)) if e)
             for g in basis]
    if any(m == 0 for m in masks):
        return -2  # the unit ideal
    best = 0
    for s in range(1 << nvars):
        if all(m & ~s for m in masks):
            best = max(best, bin(s).count("1"))
    return best - 1
