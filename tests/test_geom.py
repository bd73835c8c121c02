import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from unirat.exactcore import P, QQ, ExactMatrix, kernel_basis, rank, residue
from unirat.geom import (
    ConstructionFailed,
    TangentsCoincide,
    project_from_point,
    residual_formula,
    stereographic_param,
)
from unirat.mpoly import MPoly, parse_poly
from unirat.pipeline import SectionSingular, _fiber_frame, _plan_fiber, sphere_form


def plan_mod_p(q, c, s):
    """_plan_fiber on the residues mod P of q, c and s, as _dry_plan calls it."""
    lift = lambda v: residue(v, P)
    return _plan_fiber(q.map_coefficients(QQ, lift), c.map_coefficients(QQ, lift),
                       [lift(v) for v in s])


def sphere5():
    return parse_poly("x0^2+x1^2+x2^2+x3^2-x4^2", nvars=5)


def pt(*coords):
    return [Fraction(c) for c in coords]


def proportional(a, b):
    """Whether two nonzero coordinate vectors name one projective point."""
    assert any(x != 0 for x in a) and any(x != 0 for x in b)
    return len(a) == len(b) and all(
        a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(len(a)))


def mpoly_inputs(n):
    return ([MPoly.variable(i, n, QQ) for i in range(n)],
            lambda c: MPoly.const(n, c, QQ))


# -- stereographic parametrization ----------------------------------------------


def chart_hyperplane(n, j):
    row = [Fraction(0)] * n
    row[j] = Fraction(1)
    return row


def test_stereographic_conic_is_standard():
    m = stereographic_param(parse_poly("x0*x2-x1^2", nvars=3), pt(1, 0, 0),
                            chart_hyperplane(3, 0))
    out = m.eval([Fraction(1), Fraction(3)])
    assert proportional(out, pt(1, 3, 9))


def test_stereographic_sphere_frozen_polynomials():
    m = stereographic_param(sphere5(), pt(1, 0, 0, 0, 1), chart_hyperplane(5, 0))
    xs, lift = mpoly_inputs(4)
    out = m.eval(xs, lift=lift)
    # chart coordinates (v1..v4) become ring variables (x0..x3)
    expect = [
        "x0^2+x1^2+x2^2-x3^2",
        "2*x3*x0",
        "2*x3*x1",
        "2*x3*x2",
        "x0^2+x1^2+x2^2+x3^2",
    ]
    for got, text in zip(out, expect):
        assert got == parse_poly(text, nvars=4)
    # the image satisfies the quadric identically
    comp = sphere5().evaluate(out, lift)
    assert comp.is_zero()


def test_stereographic_rejections():
    Q = sphere5()
    with pytest.raises(ValueError, match="not on the quadric"):
        stereographic_param(Q, pt(1, 0, 0, 0, 2), chart_hyperplane(5, 0))
    with pytest.raises(ValueError, match="singular"):
        stereographic_param(parse_poly("x0*x1", nvars=3), pt(0, 0, 1),
                            chart_hyperplane(3, 0))
    with pytest.raises(ValueError, match="passes through"):
        stereographic_param(Q, pt(1, 0, 0, 0, 1), chart_hyperplane(5, 1))
    with pytest.raises(ValueError, match="quadratic"):
        stereographic_param(parse_poly("x0^3", nvars=3), pt(0, 1, 0),
                            chart_hyperplane(3, 1))


# -- residual intersection -------------------------------------------------------
# the restriction of the cubic to the line base + tau*direction, then
# residual_formula on its tau^2 and tau^3 coefficients, as
# pipeline._fiber_construction forms the residual point


def test_residual_point_frozen():
    c = parse_poly("x1^2*x0 - x1^3", nvars=3)
    base, direction = pt(1, 0, 0), pt(0, 1, 0)
    g = c.restrict_to_line(base, direction)
    assert g[0] == 0 and g[1] == 0
    r = residual_formula(g[2], g[3], base, direction)
    assert proportional(r, pt(1, 1, 0))
    assert c.evaluate(r) == 0


def test_residual_point_at_infinity():
    c = parse_poly("x2^3 - x0*x1^2", nvars=3)
    base, direction = pt(1, 0, 0), pt(0, 1, 0)
    g = c.restrict_to_line(base, direction)
    assert g[0] == 0 and g[1] == 0 and g[3] == 0
    assert proportional(residual_formula(g[2], g[3], base, direction),
                        pt(0, 1, 0))


def test_residual_line_inside_cubic():
    # every coefficient vanishes, so the formula gives the zero vector
    c = parse_poly("x2^3", nvars=3)
    base, direction = pt(1, 0, 0), pt(0, 1, 0)
    g = c.restrict_to_line(base, direction)
    assert g == [0, 0, 0, 0]
    assert residual_formula(g[2], g[3], base, direction) == [0, 0, 0]


def test_residual_requires_tangency():
    c = parse_poly("x0^2*x1 + x1^3 + x2^3", nvars=3)
    g = c.restrict_to_line(pt(1, 0, 0), pt(0, 1, 0))
    assert g[0] == 0 and g[1] != 0


def test_residual_on_random_tangent_configurations():
    rng = random.Random(31)
    n = 4
    base = pt(1, 0, 0, 0)
    for _ in range(10):
        # random cubic through e0, then a direction inside its tangent cone
        terms = {}
        for combo in combinations_with_replacement(range(n), 3):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            if exp[0] == 3:
                continue  # keep e0 on the cubic
            terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
        c = MPoly(n, QQ, terms)
        if c.is_zero() or c.total_degree() != 3:
            continue
        grad = [c.partial_derivative(i).evaluate(base) for i in range(n)]
        ker = kernel_basis(ExactMatrix(QQ, [grad]))
        direction = list(ker[rng.randrange(len(ker))])
        if all(x == 0 for x in direction):
            continue
        g = c.restrict_to_line(base, direction)
        assert g[0] == 0 and g[1] == 0
        if g[2] == 0 and g[3] == 0:
            continue  # the line lies inside the cubic
        assert c.evaluate(residual_formula(g[2], g[3], base, direction)) == 0


# -- fiber quadric --------------------------------------------------------------


def worked_fiber():
    # q = x5*x6 + f and c = x0^2*x2 - x6*f at the cone point (3:4:0:0:5:0:0)
    x = [MPoly.variable(i, 7, QQ) for i in range(7)]
    f7 = sphere_form().extend_variables(7)
    q = x[5] * x[6] + f7
    c = x[0] ** 2 * x[2] - x[6] * f7
    s = [Fraction(v) for v in (3, 4, 0, 0, 5, 0, 0)]
    plan = plan_mod_p(q, c, s)
    gq = [q.partial_derivative(i).evaluate(s) for i in range(7)]
    gc = [c.partial_derivative(i).evaluate(s) for i in range(7)]
    reps, gram = _fiber_frame(q, gq, gc, plan)
    return q, s, gq, gc, reps, gram


def polar(q, a, b):
    both = [u + v for u, v in zip(a, b)]
    return (q.evaluate(both) - q.evaluate(a) - q.evaluate(b)) / 2


def test_fiber_quadric_worked_instance():
    q, s, gq, gc, reps, gram = worked_fiber()
    assert len(reps) == 4
    assert rank(ExactMatrix(QQ, gram)) == 4
    assert gram[0][0] == 2916
    assert gram[2][3] == 1458

    # oracle: the directions together with s span the generic kernel of
    # the stacked gradients
    ker = kernel_basis(ExactMatrix(QQ, [gq, gc]))
    frame = [list(r) for r in reps] + [s]
    assert len(ker) == 5 and rank(ExactMatrix(QQ, frame)) == 5
    assert rank(ExactMatrix(QQ, [list(v) for v in ker] + frame)) == 5
    # the Gram entries are the polar form of q on the directions
    for ra, row in zip(reps, gram):
        for rb, entry in zip(reps, row):
            assert entry == polar(q, ra, rb)


def test_fiber_quadric_generatrix_is_isotropic():
    q, s, gq, gc, reps, gram = worked_fiber()
    # the last direction is the vertex e6: isotropic, not in the radical
    assert reps[-1][:6] == [0] * 6 and reps[-1][6] != 0
    assert gram[-1][-1] == 0 and any(row[-1] != 0 for row in gram)
    # s itself sits in the radical of q restricted to the tangent space
    assert q.evaluate(s) == 0
    for r in reps:
        assert polar(q, s, r) == 0


def test_fiber_quadric_rejections():
    q = parse_poly("x0*x3-x1*x2", nvars=4)
    c = parse_poly("x0^3+x1^3+x2^3+x3^3", nvars=4)
    with pytest.raises(ConstructionFailed, match="escaped the common tangent space"):
        plan_mod_p(q, c, [Fraction(v) for v in (0, 0, 0, 1)])

    f = sphere5()
    with pytest.raises(TangentsCoincide):
        plan_mod_p(f, parse_poly("x0", nvars=5) * f,
                    [Fraction(v) for v in (1, 0, 0, 0, 1)])

    # a singular point of q leaves no pivot pair either
    q2 = parse_poly("x0*x1", nvars=4)
    c2 = parse_poly("x2^3+x3^3", nvars=4)
    with pytest.raises(TangentsCoincide):
        plan_mod_p(q2, c2, [Fraction(v) for v in (0, 0, 1, -1)])

    # c = x5*x0^2 pushes the vertex direction into the radical of the fiber
    q3 = parse_poly("x5*x6+x0^2+x1^2+x2^2+x3^2-x4^2", nvars=7)
    c3 = parse_poly("x5*x0^2", nvars=7)
    with pytest.raises(SectionSingular):
        plan_mod_p(q3, c3, [Fraction(v) for v in (3, 4, 0, 0, 5, 0, 0)])


# -- projection --------------------------------------------------------------------


def sphere_map():
    return stereographic_param(sphere5(), pt(1, 0, 0, 0, 1), chart_hyperplane(5, 0))


def test_projection_from_coordinate_point():
    # projecting from e_index deletes output index and keeps every node
    phi = sphere_map()
    args = pt(1, 2, -3, 5)
    full = phi.eval(args)
    for index in range(5):
        m = project_from_point(phi, index)
        assert m.nodes == phi.nodes
        assert m.outputs == phi.outputs[:index] + phi.outputs[index + 1:]
        assert (m.in_arity, m.out_arity, m.chart) == (4, 4, None)
        assert m.eval(args) == full[:index] + full[index + 1:]


def test_projection_rejects_a_center_off_the_coordinate_points():
    for index in (-1, 5):
        with pytest.raises(ValueError):
            project_from_point(sphere_map(), index)
