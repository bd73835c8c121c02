"""From quartics doubled along a quadric surface to explicit parametrizations.

Fixed coordinates throughout.  Inside P^n we single out the slice
M = {x5 = ... = xn = 0} with intrinsic coordinates x0..x4, a rank-five
quadratic form f on those coordinates and the quadric surface Q = {f = 0}.
A quartic {F = 0} is *doubled along Q* when F restricted to M equals
alpha * f^2.

For a quartic threefold Y = {F5 = 0} in P^5 the working object lives one
dimension up.  In P^6, with vertex e6 = (0:...:0:1), let K be the cone over
Q.  Quadrics through K are exactly q = x5*l + lambda*f (l linear), and for
lambda != 0 each pairs with a residual cubic c so that

    lambda * F5 = alpha * f * q + lambda * x5 * c .

The intersection {q = 0, c = 0} projects from e6 back onto Y.  It contains
the cone S over a chosen conic on Q, again with vertex e6, and is swept out
by lines through fiber quadrics sitting inside the tangent spaces along S;
that sweep is what ci23_parametrize turns into a division-free program.

A doubled quartic in P^n (n >= 6) is treated through the pencil of its P^5
sections x_i = b_i * x5 (i >= 6): run_pass makes the same pass with
coefficients in the polynomial ring QQ[b6..bn], whose parameters stay live
program inputs.
P^5 itself is the pencil with no parameters.

Whether the construction can start at all is a linear question: the cubic c
must vanish on the conic, and since f already does, the only condition is
lambda * c1(conic(t)) = 0 where c1 = (F5 - alpha*f^2)/x5.  A nonzero
c1(conic(t)) therefore forces lambda = 0, every available quadric
degenerates, and the instance is reported as obstructed.  Otherwise every
(l, lambda) qualifies and the witness is q = x5*x6 + f, nondegenerate
because f has rank five.

reverse_build runs the same pass from the other end: it picks a cubic c1
vanishing on the conic, so the condition above holds by construction, and
runs run_pass on F5 = alpha*f^2 + x5*c1.
"""

import itertools
import json
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .exactcore import (QQ, BadPrime, ExactMatrix, P, det_fraction_free, kernel_basis,
                        parse_rational, rank_mod_p, residue)
from .geom import (
    ConstructionFailed,
    LineInsideCubic,
    TangentsCoincide,
    project_from_point,
    residual_formula,
    stereo_image,
    two_row_kernel,
)
from .mpoly import (
    MPoly,
    NotDivisible,
    ParameterRing,
    format_poly,
    gram_matrix,
    monomials,
    parse_poly,
)
from .slp import SlpBuilder, SlpMap, read, read_list, write_json

__all__ = [
    "LambdaZero",
    "SectionSingular",
    "NotDivisible",
    "ConeSplit",
    "QuarticInstance",
    "Ci23Instance",
    "SolverReport",
    "PipelineRun",
    "sphere_form",
    "circle_conic",
    "decompose_cone",
    "solve_quadric_system",
    "flatten_params",
    "ci23_parametrize",
    "reverse_build",
    "solve_stage",
    "generic_section",
    "run_pass",
    "parametrize_Y4",
    "parametrize_H4",
    "build_real_example",
    "instance_to_json",
    "instance_from_json",
    "save_instance",
    "load_instance",
]


class LambdaZero(ArithmeticError):
    """The witness quadric has no f-component, so the cone identity degenerates."""


class SectionSingular(ConstructionFailed):
    """The vertex direction is a singular point of the fiber quadric."""


# -- canonical ingredients ---------------------------------------------------------


def sphere_form():
    """x0^2 + x1^2 + x2^2 + x3^2 - x4^2, the standard rank-five form with a conic."""
    return parse_poly("x0^2 + x1^2 + x2^2 + x3^2 - x4^2", nvars=5)


def circle_conic():
    """t -> (1 - t^2, 2t, 0, 0, 1 + t^2), the Pythagorean circle on {sphere_form = 0}."""
    b = SlpBuilder(1)
    t = b.inputs[0]
    one = b.const(1)
    zero = b.const(0)
    t2 = t * t
    outs = [one - t2, t + t, zero, zero, one + t2]
    return b.finish(outs, chart=4)


def _conic_polys(conic):
    """The five coordinate polynomials of a conic program on the slice M."""
    if conic.in_arity != 1 or conic.out_arity != 5:
        raise ValueError("a conic program takes one parameter to five slice coordinates")
    t = MPoly.variable(0, 1, QQ)
    cs = conic.eval([t], lift=lambda c: MPoly.const(1, c, QQ))
    if all(p.total_degree() <= 0 for p in cs):
        raise ValueError("a constant image is not a conic")
    return cs


def _cone_surface(conic):
    """(t, u) -> conic(t) + u * e6, the cone over the conic inside P^6."""
    b = SlpBuilder(2)
    t, u = b.inputs
    g = conic.eval([t], lift=b.const)
    outs = list(g) + [b.const(0), u]
    return b.finish(outs, chart=conic.chart)


def _to_field(p, fld):
    return p if p.field == fld else p.map_coefficients(fld, fld.coerce)


def _compose_poly(p, coords):
    """p evaluated on polynomial coordinates; the result is over p's field."""
    fld = p.field
    conv = [ci if ci.field == fld else ci.map_coefficients(fld, fld.coerce)
            for ci in coords]
    m = conv[0].nvars
    return p.evaluate(conv, lift=lambda c: MPoly.const(m, fld.coerce(c), fld))


def _univariate_coeffs(p, through_degree):
    return [p.coefficient((d,)) for d in range(through_degree + 1)]


def _mod_p(x):
    """x mod P: the lift of the rehearsal into plain ints."""
    return residue(x, P)


def _nondegenerate(q):
    """Whether the Gram matrix of the quadratic form q is invertible.

    Full rank mod P proves it.  A rank that falls short mod P, a
    denominator that P divides, or coefficients in QQ[b6..bn] leave the
    answer to the exact determinant, the only test that may confirm a zero.
    """
    G = gram_matrix(q)
    if G.field == QQ:
        try:
            rows = [[_mod_p(x) for x in row] for row in G.rows]
        except BadPrime:
            rows = None
        if rows and rank_mod_p(rows, P) == G.nrows:
            return True
    return not G.field.is_zero(det_fraction_free(G))


# -- instance types ----------------------------------------------------------------


@dataclass(frozen=True)
class ConeSplit:
    """q = x5*l + lam*f together with the residual cubic of the cone identity."""

    c: MPoly
    c1: MPoly
    l: MPoly
    lam: object


@dataclass(frozen=True)
class QuarticInstance:
    """A quartic in P^n that restricts to alpha * f^2 on the slice M."""

    n: int
    F: MPoly
    f: MPoly
    alpha: Fraction = Fraction(1)
    gamma_coord: Optional[int] = None
    cubics: Optional[tuple] = None
    conic: Optional[SlpMap] = None
    epsilon: Optional[Fraction] = None
    seeds: Optional[dict] = None

    def __post_init__(self):
        if self.F.nvars != self.n + 1:
            raise ValueError("quartic arity does not match the ambient dimension")
        if self.F.total_degree() != 4 or not self.F.is_homogeneous():
            raise ValueError("F must be a homogeneous quartic")
        if self.f.nvars != 5 or self.f.total_degree() != 2 or not self.f.is_homogeneous():
            raise ValueError("f must be a quadratic form in the five slice coordinates")
        if not _nondegenerate(self.f):
            raise ValueError("f must have rank five")
        rest = self.F
        for i in range(5, self.n + 1):
            rest = rest.set_variable_zero(i)
        want = (self.f * self.f).scale(self.alpha).extend_variables(self.n + 1)
        want = _to_field(want, self.F.field)
        if not rest == want:
            raise ValueError("F does not restrict to alpha * f^2 on the slice M")


@dataclass(frozen=True)
class Ci23Instance:
    """A quadric-cubic intersection in P^6 that is a cone fibration over a conic.

    The cone (t, u) -> conic(t) + u * e6 over the conic, with its vertex at
    the last coordinate point e6, must land inside both hypersurfaces.
    """

    q: MPoly
    c: MPoly
    conic: SlpMap

    def __post_init__(self):
        if self.q.nvars != 7 or self.c.nvars != 7:
            raise ValueError("the complete intersection lives in P^6")
        if self.q.total_degree() != 2 or self.c.total_degree() != 3:
            raise ValueError("expected a quadric and a cubic")
        if not _nondegenerate(self.q):
            raise ValueError("the quadric of the pencil must be nondegenerate")
        tt = MPoly.variable(0, 2, QQ)
        uu = MPoly.variable(1, 2, QQ)
        coords = _cone_surface(self.conic).eval(
            [tt, uu], lift=lambda c: MPoly.const(2, c, QQ))
        for poly in (self.q, self.c):
            if not _compose_poly(poly, coords).is_zero():
                raise ValueError("the cone surface does not lie inside the intersection")


@dataclass(frozen=True)
class SolverReport:
    """Quadrics q = x5*l + lambda*f through the cone K compatible with the conic.

    Those quadrics form a space of vector dimension 8 (projective 7) for
    every accepted instance, since (x5, f) is the prime ideal of K when f
    has rank five (see solve_quadric_system).  obstruction records the
    t-coefficients of c1 on the conic, where c1 = (F5 - alpha*f^2)/x5.
    When they all vanish every (l, lambda) is compatible, solution_dim is 8
    and the witness is x5*x6 + f; otherwise every compatible quadric has
    lambda = 0, solution_dim is 7 and there is no witness.
    """

    vector_dim = 8
    proj_dim = 7

    obstruction: tuple
    witness: Optional[MPoly]
    c1: MPoly

    @property
    def feasible(self):
        return self.witness is not None

    @property
    def solution_dim(self):
        return 8 if self.feasible else 7


@dataclass(frozen=True)
class PipelineRun:
    """Every stage of one pass of run_pass.

    solver is the witness search, its c1 and obstruction included, and
    section the P^5 quartic it searched; params names the section
    parameters over which its coefficients live (empty on P^5).  A run is
    obstructed exactly when solver is not feasible, and then the later
    stages stay None.  Otherwise ci and phi are the complete intersection
    over the parameter ring and its sweep, and program is the final map.
    timings holds perf_counter seconds per stage.
    """

    solver: SolverReport
    params: tuple
    section: QuarticInstance
    timings: dict
    ci: Optional[Ci23Instance] = None
    phi: Optional[SlpMap] = None
    program: Optional[SlpMap] = None


# -- cone decomposition ------------------------------------------------------------


def _section_c1(Y, fld):
    """c1 = (F5 - alpha*f^2)/x5 over fld, the cubic of the cone identity.

    Raises NotDivisible when F5 does not restrict to alpha*f^2 on x5 = 0.
    """
    f6 = _to_field(Y.f.extend_variables(6), fld)
    c1 = _to_field(Y.F, fld) - (f6 * f6).scale(fld.coerce(Y.alpha))
    return c1.exact_divide(MPoly.variable(5, 6, fld))


def decompose_cone(Y, q):
    """Split lambda*F5 = alpha*f*q + lambda*x5*c for a quadric q through the cone.

    Y must be a QuarticInstance with n = 5 and q a quadric on P^6 of the
    shape x5*l + lambda*f.  Raises LambdaZero when q has no f-component and
    NotDivisible when F5 - alpha*f^2 is not a multiple of x5.
    """
    if Y.n != 5:
        raise ValueError("the cone decomposition starts from a quartic threefold in P^5")
    if q.nvars != 7 or q.total_degree() != 2 or not q.is_homogeneous():
        raise ValueError("the witness quadric lives on P^6")
    fld = q.field
    f7 = _to_field(Y.f.extend_variables(7), fld)
    q0 = q.set_variable_zero(5)
    exp0, c0 = f7.leading_term()
    lam = q0.coefficient(exp0) / c0
    if not q0 == f7.scale(lam):
        raise ValueError("the quadric does not contain the doubled cone")
    if fld.is_zero(lam):
        raise LambdaZero("the witness quadric degenerates to x5 * l")
    x5_7 = MPoly.variable(5, 7, fld)
    l = (q - f7.scale(lam)).exact_divide(x5_7)
    if l.total_degree() != 1:
        raise ValueError("the x5-part of the witness quadric is not linear")
    c1 = _section_c1(Y, fld)
    alpha = fld.coerce(Y.alpha)
    c = c1.extend_variables(7) - (l * f7).scale(alpha / lam)
    lhs = (_to_field(Y.F, fld).extend_variables(7).scale(lam)
           - (f7 * q).scale(alpha) - (x5_7 * c).scale(lam))
    if not lhs.is_zero():
        raise ArithmeticError("cone decomposition identity failed")
    return ConeSplit(c=c, c1=c1, l=l, lam=lam)


# -- the linear system for the witness quadric -------------------------------------


def flatten_params(p):
    """A polynomial over QQ[b6..bn] as a QQ polynomial whose variables
    x0..x5 are followed by b6..bn; a QQ polynomial is returned as it is."""
    if p.field == QQ:
        return p
    return MPoly(p.nvars + p.field.nvars, QQ,
                 {e + be: bc for e, c in p.terms.items() for be, bc in c.terms.items()})


def solve_quadric_system(Y, conic):
    """The quadrics q = x5*l + lambda*f through the cone K whose residual
    cubic keeps the conic inside the intersection, and a nondegenerate
    witness when one exists.

    The quadrics through the cone K = {x5 = 0, f = 0} form a space of
    dimension 8 (a P^7) for every accepted Y, with no count needed: f has
    rank five, a quadratic form of rank at least three is irreducible, so
    (x5, f) is prime and is the ideal of K, and its degree-2 part
    x5*R_1 + <f> has dimension 7 + 1.

    The conditions are the t-coefficients of lambda*c1(conic(t)) -
    alpha*l(conic(t))*f(conic(t)) through 3 deg(conic).  Since f vanishes
    on the conic they read lambda * c1(conic(t)) = 0: all eight (l, lambda)
    qualify when c1 vanishes on the conic, and then q = x5*x6 + f is a
    witness (rank seven, as f has rank five); otherwise lambda = 0 leaves
    seven, each of rank at most two.
    """
    if Y.n != 5:
        raise ValueError("the witness quadric search starts from a quartic threefold")
    g5 = _conic_polys(conic)
    if not _compose_poly(Y.f, g5).is_zero():
        raise ValueError("the conic does not lie on the quadric surface {f = 0}")
    fld = Y.F.field
    c1 = _section_c1(Y, fld)
    top = 3 * max(g.total_degree() for g in g5)
    obstruction = tuple(_univariate_coeffs(
        _compose_poly(c1, g5 + [MPoly.zero(1, QQ)]), top))
    witness = None
    if all(fld.is_zero(co) for co in obstruction):
        witness = (MPoly.variable(5, 7, fld) * MPoly.variable(6, 7, fld)
                   + _to_field(Y.f.extend_variables(7), fld))
    return SolverReport(obstruction=obstruction, witness=witness, c1=c1)


# -- sweeping the intersection -----------------------------------------------------


def _dot(xs, ys):
    """sum x_i * y_i, folded from the left; ring-generic."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def _fiber_frame(q, grad_q, grad_c, plan, lift=None):
    """Directions of the fiber quadric at one surface point, with q's Gram
    matrix on them.

    The directions are the two_row_kernel columns of the two gradients at
    the plan's span, followed by the vertex column.  Ring-generic, with
    lift embedding the coefficients of q; on program nodes the kernel is
    emitted first, then the lifted Gram entries, then the products.
    """
    if lift is None:
        lift = lambda cc: cc
    n = q.nvars
    i1, i2 = plan["pivots"]
    w = two_row_kernel(grad_q, grad_c, i1, i2, lift(q.field.zero))
    free = [j for j in range(n) if j not in plan["pivots"]]
    reps = [w[free.index(j)] for j in plan["span"] + (n - 1,)]
    G = gram_matrix(q)
    grows = [[lift(G.entry(i, j)) for j in range(n)] for i in range(n)]
    gr = [[_dot(row, rep) for row in grows] for rep in reps]
    return reps, [[_dot(a, g) for g in gr] for a in reps]


def _plan_fiber(q0, c0, s0):
    """Pivot and basis bookkeeping for the fiber construction at one point.

    q0 and c0 carry their coefficients, and s0 its coordinates, as residues
    mod P.  Every choice rests on a residue that is nonzero mod P, so the
    value it stands for is nonzero over QQ; the symbolic replay reuses the
    recorded indices.  The common tangent space of {q0 = 0} and {c0 = 0} at
    s0 is spanned, modulo s0 itself, by three kernel columns plus the vertex
    direction; the latter must be a smooth point of the fiber quadric.
    """
    n = q0.nvars
    a0 = [q0.partial_derivative(j).evaluate(s0, _mod_p) % P for j in range(n)]
    b0 = [c0.partial_derivative(j).evaluate(s0, _mod_p) % P for j in range(n)]
    pivots = next(((i1, i2) for i1, i2 in itertools.combinations(range(n), 2)
                   if (a0[i1] * b0[i2] - a0[i2] * b0[i1]) % P), None)
    if pivots is None:
        raise TangentsCoincide(
            "the tangent spaces of the pencil members coincide at the surface point")
    if n - 1 in pivots:
        raise ConstructionFailed("the vertex direction escaped the common tangent space")
    free = [j for j in range(n) if j not in pivots]
    drop = next((j for j in free if j != n - 1 and s0[j] % P), None)
    if drop is None:
        raise ConstructionFailed("the surface point is supported on the pivot columns only")
    span = tuple(j for j in free if j not in (drop, n - 1))
    plan = {"pivots": pivots, "drop": drop, "span": span}
    _, gram = _fiber_frame(q0, a0, b0, plan, lift=_mod_p)
    # the vertex direction is isotropic (_dry_plan checks q exactly) and
    # must not be in the radical of the fiber form
    if not any(row[-1] % P for row in gram):
        raise SectionSingular("the vertex direction is singular on the fiber quadric")
    return plan


def _fiber_construction(q, c, s, chart_vals, plan, lift=None):
    """One point of {q = 0, c = 0} from a surface point s and two chart values.

    Division-free, so it runs on plain rationals for rehearsal and on
    program nodes for the final map; lift embeds coefficients of q and c
    into the carrier ring.  Returns (point, tau-coefficients of c on the
    swept line).
    """
    if lift is None:
        lift = lambda cc: cc
    n = q.nvars
    grad_q = [q.partial_derivative(j).evaluate(s, lift) for j in range(n)]
    grad_c = [c.partial_derivative(j).evaluate(s, lift) for j in range(n)]
    zero = lift(q.field.zero)
    one = lift(q.field.one)
    reps, fiber_gram = _fiber_frame(q, grad_q, grad_c, plan, lift)
    pbar = [zero] * (len(reps) - 1) + [one]
    dbar = [one, chart_vals[0], chart_vals[1], zero]
    img = stereo_image(fiber_gram, pbar, dbar)
    d_amb = [_dot(img, [rep[i] for rep in reps]) for i in range(n)]
    g = c.restrict_to_line(list(s), d_amb, lift)
    return residual_formula(g[2], g[3], list(s), d_amb), g


def _dry_plan(q0, c0, conic, rng):
    """Rehearsal mod P at up to six seeded surface points: fix the plan and
    an output chart.

    The draws t, u and v are rationals.  The coefficients of q0 and c0 and
    the coordinates of the surface point and of v are lifted to residues
    mod P, and the division-free construction runs on plain ints, with
    every test that something is nonzero taken mod P.  The returned point
    is the residue of the fiber point; ci23_parametrize checks its program
    against it, and checks exactly that the program's value lies on
    {q0 = 0, c0 = 0}.
    """
    n = q0.nvars
    # G[n-1][n-1] = 0 exactly: the vertex e[n-1] lies on {q0 = 0}, and the
    # vertex direction of every fiber frame, D * e[n-1], is isotropic
    if q0.coefficient((0,) * (n - 1) + (2,)) != 0:
        raise ArithmeticError("the cone vertex does not lie on the quadric")
    qp, cp = (p.map_coefficients(QQ, _mod_p) for p in (q0, c0))
    last = None
    for _ in range(6):
        t0 = Fraction(rng.randint(-19, 19), 1 + rng.randint(0, 5))
        u0 = Fraction(1 + rng.randint(0, 9), 1 + rng.randint(0, 3))
        s0 = [_mod_p(x) for x in conic.eval([t0])] + [0, _mod_p(u0)]
        try:
            plan = _plan_fiber(qp, cp, s0)
        except ConstructionFailed as err:
            last = err
            continue
        for _ in range(4):
            v0 = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            pt0, g = _fiber_construction(qp, cp, s0, [_mod_p(v) for v in v0],
                                         plan, lift=_mod_p)
            if not (g[2] % P or g[3] % P):
                last = LineInsideCubic("a swept tangent line lies inside the cubic")
                continue
            pt0 = [x % P for x in pt0]
            if not any(pt0):
                last = ConstructionFailed("the fiber construction degenerated at rehearsal")
                continue
            chart = next(i for i, x in enumerate(pt0) if x)
            return plan, {"t": t0, "u": u0, "v": v0, "point": pt0, "chart": chart}
    raise last if last is not None else TangentsCoincide("no usable surface point found")


def ci23_parametrize(inst, seed=0):
    """Sweep the intersection by (t, u) on the cone surface plus two fiber
    chart coordinates, as one program with seven outputs.

    Over a surface point s the common tangent space carries a quadric whose
    smooth point in the vertex direction projects the fiber onto a chart;
    the third intersection of each projected line with the cubic is the
    output.  Coefficients may be polynomials in section parameters
    b6..bn, the names of inst.q.field; those stay live program inputs ahead
    of (t, u, v1, v2), so one program covers the whole pencil, and the plan
    is rehearsed mod P (see _dry_plan) at seeded rational b0 (up to six
    draws).  The coefficients lie in the ring QQ[b6..bn], so the program
    never divides.  The built program is then evaluated exactly at the
    rehearsal's input: its value must reduce to the rehearsal's point mod P
    and must lie on the intersection over QQ.
    Raises a ConstructionFailed, such as TangentsCoincide, SectionSingular
    or LineInsideCubic, when every draw degenerates, and BadPrime, without
    another draw, when P divides a denominator of the rehearsal.
    """
    fld = inst.q.field
    k = len(getattr(fld, "names", ()))
    rng = random.Random(seed)
    for attempt in range(6 if k else 1):
        b0 = [Fraction(rng.randint(-5, 5)) for _ in range(k)]
        q0, c0 = inst.q, inst.c
        if k:
            q0, c0 = (p.map_coefficients(QQ, lambda r: r.evaluate(b0))
                      for p in (q0, c0))
        try:
            plan, dry = _dry_plan(q0, c0, inst.conic, random.Random(seed + attempt))
            break
        except ConstructionFailed as err:  # BadPrime is not retried
            last = err
    else:
        raise last
    b = SlpBuilder(k + 4)
    lift = b.const
    if k:
        lift = lambda co: co.evaluate(b.inputs[:k], lift=b.const)
    t, u, v1, v2 = b.inputs[k:]
    g = inst.conic.eval([t], lift=b.const)
    s_refs = list(g) + [b.const(0), u]
    point, _ = _fiber_construction(inst.q, inst.c, s_refs, (v1, v2), plan,
                                   lift=lift)
    slp = b.finish(point, chart=dry["chart"])
    point = slp.eval(b0 + [dry["t"], dry["u"], dry["v"][0], dry["v"][1]])
    if [_mod_p(x) for x in point] != dry["point"]:
        raise ArithmeticError("symbolic replay diverged from the rehearsal")
    if q0.evaluate(point) != 0 or c0.evaluate(point) != 0:
        raise ArithmeticError("a fiber point escaped the intersection")
    return slp


# -- building matched pairs --------------------------------------------------------


def _conic_vanishing_cubics(conic):
    """Basis of the cubics on P^5 vanishing on the conic (a 49-dim space)."""
    g6 = list(_conic_polys(conic)) + [MPoly.zero(1, QQ)]
    top = 3 * max(g.total_degree() for g in g6)
    mons = monomials(6, 3)
    cols = []
    for e in mons:
        pe = MPoly(6, QQ, {e: Fraction(1)})
        cols.append(_univariate_coeffs(_compose_poly(pe, g6), top))
    rows = [[cols[m][d] for m in range(len(mons))] for d in range(top + 1)]
    ker = kernel_basis(ExactMatrix(QQ, rows, ncols=len(mons)))
    if len(ker) != len(mons) - 7:
        raise ArithmeticError(
            "conic-vanishing cubics: unexpected dimension %d" % len(ker))
    return mons, ker


def reverse_build(f=None, conic=None, alpha=Fraction(1), c1=None, seed=0):
    """Build a matched (intersection, quartic threefold) pair from scratch.

    Chooses a cubic c1 vanishing on the conic (the solvability condition),
    forms F5 = alpha*f^2 + x5*c1 and runs the forward pass on it: the
    witness is q = x5*x6 + f with residual cubic c.  Up to eight seeded
    cubics are drawn until the pass goes through.  The final program is
    then certified as parametrize certifies it, on {F5 = 0} and of
    Jacobian rank 4, so its image is dense in the quartic threefold.
    Returns (Ci23Instance, QuarticInstance).
    """
    # certify imports this module, so its checks are imported on use
    from .certify import check_dominant, check_on_variety
    if f is None:
        f = sphere_form()
    if conic is None:
        conic = circle_conic()
    alpha = Fraction(alpha)
    g5 = _conic_polys(conic)
    if not _compose_poly(f, g5).is_zero():
        raise ValueError("the conic must lie on {f = 0}")

    mons, ker = _conic_vanishing_cubics(conic)
    if c1 is not None:
        if c1.nvars != 6 or c1.total_degree() != 3:
            raise ValueError("c1 must be a cubic on P^5")
        if not _compose_poly(c1, g5 + [MPoly.zero(1, QQ)]).is_zero():
            raise ValueError("the chosen cubic does not vanish on the conic")

    rng = random.Random(seed)
    f6 = f.extend_variables(6)
    last = None
    for attempt in range(8):
        if c1 is not None:
            pick = c1
        else:
            terms = {}
            for idx in rng.sample(range(len(ker)), 6):
                cm = rng.randint(-2, 2)
                if cm == 0:
                    continue
                for m, entry in enumerate(ker[idx]):
                    if entry != 0:
                        acc = terms.get(mons[m], Fraction(0)) + cm * entry
                        if acc == 0:
                            terms.pop(mons[m], None)
                        else:
                            terms[mons[m]] = acc
            pick = MPoly(6, QQ, terms)
            if pick.is_zero():
                continue
        F5 = (f6 * f6).scale(alpha) + MPoly.variable(5, 6, QQ) * pick
        quart = QuarticInstance(n=5, F=F5, f=f, alpha=alpha, conic=conic,
                                seeds={"seed": seed, "attempt": attempt,
                                       "fiber_seed": seed + attempt})
        try:
            run = run_pass(quart, seed=seed + attempt)
        except ArithmeticError as err:
            if c1 is not None:
                raise
            last = err
            continue
        break
    else:
        raise last if last is not None else ArithmeticError("no usable cubic found")

    check_on_variety(run.program, F5, seed=seed)
    check_dominant(run.program, 4, seed=seed)
    return run.ci, quart


# -- the entry points: P^5 is the pencil with no parameters -------------------------


def generic_section(H):
    """The pencil x_i = b_i * x5 (i >= 6) of P^5 sections of a doubled
    quartic on P^n, as one QuarticInstance in P^5 with coefficients in the
    polynomial ring QQ[b6..bn], and the parameter names.

    The substitution only regroups exponents: a term c * x^e of F becomes
    (c * b6^e6 ... bn^en) * x0^e0 ... x4^e4 * x5^(e5 + e6 + ... + en), and
    distinct terms of F stay distinct, so nothing is added up.  The slice M and the surface Q are untouched,
    so every member of the pencil is again doubled along Q, which the
    QuarticInstance checks.
    """
    if H.n < 6:
        raise ValueError("sections need an ambient space of at least P^6")
    names = tuple("b%d" % i for i in range(6, H.n + 1))
    terms = {}
    for e, c in H.F.terms.items():
        terms.setdefault(e[:5] + (sum(e[5:]),), {})[e[6:]] = c
    F = MPoly(6, ParameterRing(names),
              {e: MPoly(len(names), QQ, cs) for e, cs in terms.items()})
    return QuarticInstance(n=5, F=F, f=H.f, alpha=H.alpha), names


def solve_stage(inst, conic):
    """The timed witness search on a doubled quartic in P^5, or on the
    generic section of one in P^n; the run is obstructed when its solver
    is not feasible."""
    Y, params = (inst, ()) if inst.n == 5 else generic_section(inst)
    t0 = time.perf_counter()
    rep = solve_quadric_system(Y, conic)
    return PipelineRun(solver=rep, params=params, section=Y,
                       timings={"solve_s": time.perf_counter() - t0})


def run_pass(inst, conic=None, seed=0):
    """One pass onto a doubled quartic in P^n (n >= 5), keeping every stage.

    Chains the witness search on the section pencil, the cone decomposition,
    the intersection sweep and the projection from the vertex; the
    obstruction ends the pass when every available quadric degenerates.
    The program takes the section parameters b6..bn (none on P^5) and
    (t, u, v1, v2) to the projected point y0..y5 followed by b_i * y5, so a
    single program covers the whole pencil.
    """
    if inst.n < 5:
        raise ValueError("expected a doubled quartic in P^n with n >= 5")
    if conic is None:
        conic = inst.conic if inst.conic is not None else circle_conic()
    run = solve_stage(inst, conic)
    if not run.solver.feasible:
        return run
    t0 = time.perf_counter()
    split = decompose_cone(run.section, run.solver.witness)
    ci = Ci23Instance(q=run.solver.witness, c=split.c, conic=conic)
    phi = ci23_parametrize(ci, seed=seed)
    proj = project_from_point(phi, 6)
    nodes, outs = list(proj.nodes), list(proj.outputs)
    for i in range(len(run.params)):
        # the input b_i is node i; reuse b_i * y5 where the sweep made it
        node = ("mul", i, outs[5])
        if node not in nodes:
            nodes.append(node)
        outs.append(nodes.index(node))
    rng = random.Random(seed + 13)
    for _ in range(6):
        args = [Fraction(rng.randint(-7, 7), 1 + rng.randint(0, 2))
                for _ in range(phi.in_arity)]
        vals = proj.eval(args)
        if any(x != 0 for x in vals):
            break
    else:
        raise ConstructionFailed("the projection collapsed the parametrized intersection")
    vals += [bi * vals[5] for bi in args[:len(run.params)]]
    if inst.F.evaluate(vals) != 0:
        raise ArithmeticError("a parametrized point escaped the quartic")
    chart = next(i for i, x in enumerate(vals) if x != 0)
    if len(nodes) == len(phi):
        # P^5, or each b_i * y5 already in the sweep: an output slice of
        # phi, so the certificates of both sweep their points once
        program = phi.slice(outs, chart=chart)
    else:
        program = SlpMap(phi.in_arity, nodes, outs, chart=chart)
    run.timings["sweep_s"] = time.perf_counter() - t0
    return replace(run, ci=ci, phi=phi, program=program)


def parametrize_Y4(Y, conic=None, seed=0):
    """Four-parameter program onto a quartic threefold, or the obstruction:
    the SlpMap of run_pass, or its SolverReport when the run is
    obstructed."""
    if Y.n != 5:
        raise ValueError("expected a quartic threefold in P^5")
    run = run_pass(Y, conic, seed=seed)
    return run.program if run.solver.feasible else run.solver


def parametrize_H4(H, conic=None, seed=0):
    """(n - 1)-parameter program onto a doubled quartic in P^n (n >= 6), or the
    obstruction blocking every member of the section pencil at once: the
    SlpMap of run_pass, or its SolverReport when the run is obstructed.
    """
    if H.n < 6:
        raise ValueError("sections need an ambient space of at least P^6")
    run = run_pass(H, conic, seed=seed)
    return run.program if run.solver.feasible else run.solver


# -- ready-made families -----------------------------------------------------------


def _example_quartic(n, f, alpha, cubics, epsilon):
    """alpha * f^2 + sum_{i>=5} x_i^4 + epsilon * sum_{i>=5} x_i * c_i on P^n,
    with c_i = cubics[i - 5] a cubic in the slice coordinates."""
    nv = n + 1
    f_n = f.extend_variables(nv)
    F = (f_n * f_n).scale(alpha)
    for i, cubic in zip(range(5, nv), cubics, strict=True):
        xi = MPoly.variable(i, nv, QQ)
        F = F + xi ** 4 + (xi * cubic.extend_variables(nv)).scale(epsilon)
    return F


def build_real_example(n=8, epsilon=Fraction(1, 16), seed=0, preset="seeded"):
    """A doubled quartic on P^n with real coefficients and no accidental cones:
    F = f^2 + sum_{i>=5} x_i^4 + epsilon * sum_{i>=5} x_i * c_i.

    The c_i are cubics in the slice coordinates: preset "cubes" takes
    c_i = x_{i-5}^3, preset "seeded" draws integer coefficients in [-2, 2].
    A small epsilon keeps the perturbation from creating real singular
    points away from the slice.
    """
    if n < 5:
        raise ValueError("the family starts at P^5")
    epsilon = Fraction(epsilon)
    f = sphere_form()
    rng = random.Random(seed)
    mons3 = monomials(5, 3)
    cubics = []
    for i in range(5, n + 1):
        if preset == "cubes":
            e = [0] * 5
            e[(i - 5) % 5] = 3
            cubic = MPoly(5, QQ, {tuple(e): Fraction(1)})
        elif preset == "seeded":
            terms = {}
            while not terms:
                for e in mons3:
                    cm = rng.randint(-2, 2)
                    if cm:
                        terms[e] = Fraction(cm)
            cubic = MPoly(5, QQ, terms)
        else:
            raise ValueError("unknown preset %r" % (preset,))
        cubics.append(cubic)
    F = _example_quartic(n, f, Fraction(1), cubics, epsilon)
    return QuarticInstance(n=n, F=F, f=f, alpha=Fraction(1), gamma_coord=4,
                           cubics=tuple(cubics), conic=circle_conic(),
                           epsilon=epsilon,
                           seeds={"seed": seed, "preset": preset})


# -- instance files ----------------------------------------------------------------


def instance_to_json(inst):
    """The instance document; a stored conic is embedded as its program's
    shared read-only document."""
    doc = {
        "version": 1,
        "n": inst.n,
        "F": format_poly(inst.F),
        "f": format_poly(inst.f),
        "alpha": str(inst.alpha),
        "M": "x5..x%d = 0" % inst.n,
    }
    if inst.gamma_coord is not None:
        doc["Gamma"] = {"vanishing_coordinate": inst.gamma_coord}
    if inst.conic is not None:
        doc["conic"] = inst.conic.to_json()
    if inst.cubics:
        doc["cubics"] = [format_poly(c) for c in inst.cubics]
    if inst.epsilon is not None:
        doc["epsilon"] = str(inst.epsilon)
    if inst.seeds:
        doc["seeds"] = inst.seeds
    return doc


def instance_from_json(doc):
    """The instance a document describes.  Its slice `M`, when stored, must
    be x5..xn = 0, and stored `cubics` and `epsilon` must rebuild its F as
    build_real_example does."""
    if type(doc) is not dict or read(doc, "version", int) != 1:
        raise ValueError("unsupported instance format")
    n = read(doc, "n", int)
    if read(doc, "M", str, None) not in (None, "x5..x%d = 0" % n):
        raise ValueError("the slice M must be x5..x%d = 0" % n)
    gamma = read(doc, "Gamma", dict, None)
    cubics = read_list(doc, "cubics", str, None)
    conic = read(doc, "conic", dict, None)
    epsilon = read(doc, "epsilon", str, None)
    inst = QuarticInstance(
        n=n,
        F=parse_poly(read(doc, "F", str), nvars=n + 1),
        f=parse_poly(read(doc, "f", str), nvars=5),
        alpha=parse_rational(read(doc, "alpha", str, "1")),
        gamma_coord=None if gamma is None
        else read(gamma, "vanishing_coordinate", int),
        cubics=None if cubics is None
        else tuple(parse_poly(s, nvars=5) for s in cubics),
        conic=None if conic is None else SlpMap.from_json(conic),
        epsilon=None if epsilon is None else parse_rational(epsilon),
        seeds=read(doc, "seeds", dict, None),
    )
    if inst.cubics is not None and inst.epsilon is not None and (
            len(inst.cubics) != n - 4 or inst.F != _example_quartic(
                n, inst.f, inst.alpha, inst.cubics, inst.epsilon)):
        raise ValueError("F is not alpha*f^2 + sum x_i^4 + epsilon * "
                         "sum x_i*c_i for the stored cubics and epsilon")
    return inst


def save_instance(inst, path):
    write_json(path, instance_to_json(inst))


def load_instance(path):
    with open(path) as fh:
        return instance_from_json(json.load(fh))
