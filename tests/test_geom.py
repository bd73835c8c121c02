import random
from fractions import Fraction

import pytest

from unirat.exactcore import QQ, ExactMatrix, kernel_basis, rank
from unirat.geom import (
    LinearSubspace,
    LineInsideCubic,
    PointNotOnQuadric,
    ProjPoint,
    QuadricHypersurface,
    SingularBasePoint,
    TangentsCoincide,
    project_from_point,
    residual_point,
    stereographic_param,
)
from unirat.mpoly import MPoly, parse_poly
from unirat.pipeline import SectionSingular, _fiber_frame, _plan_fiber, sphere_form


def sphere5():
    return parse_poly("x0^2+x1^2+x2^2+x3^2-x4^2", nvars=5)


def pp(*coords):
    return ProjPoint([Fraction(c) for c in coords])


def mpoly_inputs(n):
    return ([MPoly.variable(i, n, QQ) for i in range(n)],
            lambda c: MPoly.const(n, c, QQ))


# -- points and subspaces -----------------------------------------------------


def test_projpoint_scaling_equality():
    assert pp(1, 2, 3) == pp(2, 4, 6)
    assert pp(1, 2, 3) != pp(1, 2, 4)
    assert pp(0, 1, 0) != pp(1, 0, 0)
    with pytest.raises(ValueError):
        pp(0, 0, 0)


def test_subspace_views_are_consistent():
    cut = ExactMatrix(QQ, [[Fraction(1), Fraction(0), Fraction(0)]])
    L = LinearSubspace(QQ, cutting=cut)
    assert L.cutting() is cut
    # the basis spans the kernel of the cutting system
    basis = L.basis()
    assert len(basis) == 2
    assert all(cut.mul_vector(v) == [0] for v in basis)


# -- stereographic parametrization ----------------------------------------------


def chart_hyperplane(n, j):
    row = [Fraction(0)] * n
    row[j] = Fraction(1)
    return LinearSubspace(QQ, cutting=ExactMatrix(QQ, [row]))


def test_stereographic_conic_is_standard():
    Q = QuadricHypersurface(parse_poly("x0*x2-x1^2", nvars=3))
    m = stereographic_param(Q, pp(1, 0, 0), chart_hyperplane(3, 0))
    out = m.eval([Fraction(1), Fraction(3)])
    assert ProjPoint(out) == pp(1, 3, 9)


def test_stereographic_sphere_frozen_polynomials():
    Q = QuadricHypersurface(sphere5())
    m = stereographic_param(Q, pp(1, 0, 0, 0, 1), chart_hyperplane(5, 0))
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
    comp = Q.form.evaluate(out, lift)
    assert comp.is_zero()


def test_stereographic_rejections():
    Q = QuadricHypersurface(sphere5())
    with pytest.raises(PointNotOnQuadric):
        stereographic_param(Q, pp(1, 0, 0, 0, 2), chart_hyperplane(5, 0))
    rank2 = QuadricHypersurface(parse_poly("x0*x1", nvars=3))
    with pytest.raises(SingularBasePoint):
        stereographic_param(rank2, pp(0, 0, 1), chart_hyperplane(3, 0))
    with pytest.raises(ValueError):
        stereographic_param(Q, pp(1, 0, 0, 0, 1), chart_hyperplane(5, 1))


# -- residual intersection -------------------------------------------------------


def test_residual_point_frozen():
    c = parse_poly("x1^2*x0 - x1^3", nvars=3)
    r = residual_point(c, pp(1, 0, 0), pp(0, 1, 0))
    assert r == pp(1, 1, 0)
    assert c.evaluate(list(r.coords)) == 0


def test_residual_point_at_infinity():
    c = parse_poly("x2^3 - x0*x1^2", nvars=3)
    r = residual_point(c, pp(1, 0, 0), pp(0, 1, 0))
    assert r == pp(0, 1, 0)


def test_residual_line_inside_cubic():
    c = parse_poly("x2^3", nvars=3)
    with pytest.raises(LineInsideCubic):
        residual_point(c, pp(1, 0, 0), pp(0, 1, 0))


def test_residual_requires_tangency():
    c = parse_poly("x0^2*x1 + x1^3 + x2^3", nvars=3)
    with pytest.raises(ValueError):
        residual_point(c, pp(1, 0, 0), pp(0, 1, 0))


def test_residual_on_random_tangent_configurations():
    rng = random.Random(31)
    n = 4
    for _ in range(10):
        # random cubic through e0, then a direction inside its tangent cone
        terms = {}
        from itertools import combinations_with_replacement
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
        grad = [c.partial_derivative(i).evaluate(
            [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
            for i in range(n)]
        ker = kernel_basis(ExactMatrix(QQ, [grad]))
        direction = ker[rng.randrange(len(ker))]
        if all(x == 0 for x in direction):
            continue
        try:
            r = residual_point(c, pp(1, 0, 0, 0), ProjPoint(direction))
        except LineInsideCubic:
            continue
        assert c.evaluate(list(r.coords)) == 0


# -- fiber quadric --------------------------------------------------------------


def worked_fiber():
    # q = x5*x6 + f and c = x0^2*x2 - x6*f at the cone point (3:4:0:0:5:0:0)
    x = [MPoly.variable(i, 7, QQ) for i in range(7)]
    f7 = sphere_form().extend_variables(7)
    q = x[5] * x[6] + f7
    c = x[0] ** 2 * x[2] - x[6] * f7
    s = [Fraction(v) for v in (3, 4, 0, 0, 5, 0, 0)]
    plan = _plan_fiber(q, c, s)
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
    with pytest.raises(ValueError):
        _plan_fiber(q, c, [Fraction(v) for v in (0, 0, 0, 1)])

    f = sphere5()
    with pytest.raises(TangentsCoincide):
        _plan_fiber(f, parse_poly("x0", nvars=5) * f,
                    [Fraction(v) for v in (1, 0, 0, 0, 1)])

    # a singular point of q leaves no pivot pair either
    q2 = parse_poly("x0*x1", nvars=4)
    c2 = parse_poly("x2^3+x3^3", nvars=4)
    with pytest.raises(TangentsCoincide):
        _plan_fiber(q2, c2, [Fraction(v) for v in (0, 0, 1, -1)])

    # c = x5*x0^2 pushes the vertex direction into the radical of the fiber
    q3 = parse_poly("x5*x6+x0^2+x1^2+x2^2+x3^2-x4^2", nvars=7)
    c3 = parse_poly("x5*x0^2", nvars=7)
    with pytest.raises(SectionSingular):
        _plan_fiber(q3, c3, [Fraction(v) for v in (3, 4, 0, 0, 5, 0, 0)])


# -- projection --------------------------------------------------------------------


def test_projection_from_coordinate_point():
    m = project_from_point(pp(0, 0, 0, 0, 0, 0, 1))
    vals = [Fraction(i) for i in range(7)]
    assert m.eval(vals) == vals[:6]
    with pytest.raises(ValueError):
        ProjPoint(m.eval([Fraction(0)] * 6 + [Fraction(1)]))


def test_projection_rejects_a_center_off_the_coordinate_points():
    with pytest.raises(ValueError):
        project_from_point(pp(0, 1, 1))
