import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirat import pipeline
from unirat.certify import (DOMINANCE_PRIME, IdentityFails, certify_obstruction,
                            check_dominant, check_on_variety)
from unirat.exactcore import QQ, rank_mod_p, residue
from unirat.geom import LineInsideCubic, TangentsCoincide
from unirat.mpoly import MPoly, NotDivisible, format_poly, monomials, parse_poly
from unirat.pipeline import (
    Ci23Instance,
    LambdaZero,
    QuarticInstance,
    SectionSingular,
    SolverReport,
    build_real_example,
    ci23_parametrize,
    circle_conic,
    decompose_cone,
    flatten_params,
    generic_section,
    instance_from_json,
    instance_to_json,
    load_instance,
    parametrize_H4,
    parametrize_Y4,
    reverse_build,
    run_pass,
    save_instance,
    solve_quadric_system,
    solve_stage,
    sphere_form,
)
from unirat.slp import SlpMap

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
P61 = DOMINANCE_PRIME


def x(i, n=7):
    return MPoly.variable(i, n, QQ)


def text(program):
    """The program's document as compact JSON with sorted keys."""
    return json.dumps(program.to_json(), sort_keys=True)


def f7():
    return sphere_form().extend_variables(7)


def good_quartic():
    # F = f^2 + x5 * x0^2*x2: the residual cubic x0^2*x2 vanishes on the circle
    f6 = sphere_form().extend_variables(6)
    return QuarticInstance(n=5, F=f6 * f6 + x(5, 6) * x(0, 6) ** 2 * x(2, 6),
                           f=sphere_form())


def bad_quartic():
    # x0^3 restricted to the circle is (1-t^2)^3 != 0, so no witness survives
    f6 = sphere_form().extend_variables(6)
    return QuarticInstance(n=5, F=f6 * f6 + x(5, 6) * x(0, 6) ** 3,
                           f=sphere_form())


def raw_quartic(F, f):
    """Skip the constructor checks to reach guards further down the pipeline."""
    Y = object.__new__(QuarticInstance)
    for name, val in [("n", 5), ("F", F), ("f", f), ("alpha", Fraction(1)),
                      ("gamma_coord", None), ("cubics", None), ("conic", None),
                      ("epsilon", None), ("seeds", None)]:
        object.__setattr__(Y, name, val)
    return Y


# -- instance validation ------------------------------------------------------


def test_quartic_instance_checks_restriction_identity():
    f6 = sphere_form().extend_variables(6)
    with pytest.raises(ValueError):
        QuarticInstance(n=5, F=f6 * f6 + x(0, 6) ** 4, f=sphere_form())
    with pytest.raises(ValueError):
        QuarticInstance(n=4, F=f6 * f6, f=sphere_form())
    with pytest.raises(ValueError):
        QuarticInstance(n=5, F=f6 * f6 * f6.set_variable_zero(0), f=sphere_form())


def test_quartic_instance_scales_by_alpha():
    f6 = sphere_form().extend_variables(6)
    Y = QuarticInstance(n=5, F=(f6 * f6).scale(3), f=sphere_form(),
                        alpha=Fraction(3))


def test_ci23_instance_rejections():
    q = x(5) * x(6) + f7()
    c = x(0) ** 2 * x(2) - x(6) * f7()
    Ci23Instance(q=q, c=c, conic=circle_conic())
    with pytest.raises(ValueError):  # degenerate pencil quadric
        Ci23Instance(q=x(5) * x(6), c=c, conic=circle_conic())
    with pytest.raises(ValueError):  # surface escapes the cubic
        Ci23Instance(q=q, c=c + x(1) ** 3, conic=circle_conic())


def gram_rank_mod_p(q):
    G = pipeline.gram_matrix(q)
    return rank_mod_p([[residue(e, P61) for e in row] for row in G.rows], P61)


def test_quartic_instance_takes_a_form_that_is_singular_only_mod_p():
    # det = P != 0, so f has rank five over QQ, though not mod P
    f = parse_poly("x0^2 + x1^2 + x2^2 + x3^2 + %d*x4^2" % P61, nvars=5)
    assert gram_rank_mod_p(f) == 4
    f6 = f.extend_variables(6)
    QuarticInstance(n=5, F=f6 * f6 + x(5, 6) ** 4, f=f)


def test_quartic_instance_refuses_a_form_of_rank_four():
    f = parse_poly("x0^2 + x1^2 + x2^2 + x3^2", nvars=5)
    f6 = f.extend_variables(6)
    with pytest.raises(ValueError, match="f must have rank five"):
        QuarticInstance(n=5, F=f6 * f6 + x(5, 6) ** 4, f=f)


def test_ci23_instance_takes_a_quadric_that_is_singular_only_mod_p():
    # the circle has x2 = 0, so it lies on every form below
    fP = parse_poly("x0^2 + x1^2 + %d*x2^2 + x3^2 - x4^2" % P61, nvars=7)
    q = x(5) * x(6) + fP
    assert gram_rank_mod_p(q) == 6
    Ci23Instance(q=q, c=x(0) ** 2 * x(2) - x(6) * fP, conic=circle_conic())


def test_ci23_instance_refuses_a_quadric_of_rank_six():
    f4 = parse_poly("x0^2 + x1^2 + x3^2 - x4^2", nvars=7)
    with pytest.raises(ValueError, match="must be nondegenerate"):
        Ci23Instance(q=x(5) * x(6) + f4, c=x(0) ** 2 * x(2) - x(6) * f4,
                     conic=circle_conic())


# -- cone decomposition -------------------------------------------------------


def test_decompose_cone_worked_example():
    split = decompose_cone(good_quartic(), x(5) * x(6) + f7())
    assert split.lam == 1
    assert format_poly(split.l) == "x6"
    assert format_poly(split.c1) == "x0^2*x2"
    assert format_poly(split.c) == (
        "x0^2*x2 - x0^2*x6 - x1^2*x6 - x2^2*x6 - x3^2*x6 + x4^2*x6")


def test_decompose_cone_tracks_lambda():
    f6 = sphere_form().extend_variables(6)
    Y = QuarticInstance(n=5, F=f6 * f6 + x(5, 6) * x(0, 6) ** 3, f=sphere_form())
    split = decompose_cone(Y, x(5) * x(6) + f7().scale(2))
    assert split.lam == 2
    assert format_poly(split.c1) == "x0^3"
    assert format_poly(split.c) == (
        "x0^3 - 1/2*x0^2*x6 - 1/2*x1^2*x6 - 1/2*x2^2*x6"
        " - 1/2*x3^2*x6 + 1/2*x4^2*x6")


def test_decompose_cone_rejects_bad_quadrics():
    Y = good_quartic()
    with pytest.raises(LambdaZero):
        decompose_cone(Y, x(5) * x(6))
    with pytest.raises(ValueError):  # restriction to x5 = 0 is not a multiple of f
        decompose_cone(Y, x(5) * x(6) + x(0) ** 2)
    with pytest.raises(ValueError):
        decompose_cone(Y, x(5) * x(6) ** 2 + f7() * x(0))


def test_decompose_cone_divisibility_guard():
    f6 = sphere_form().extend_variables(6)
    Y = raw_quartic(f6 * f6 + x(0, 6) ** 4, sphere_form())
    with pytest.raises(NotDivisible):
        decompose_cone(Y, x(5) * x(6) + f7())


# -- the linear system --------------------------------------------------------


def test_solver_finds_the_standard_witness():
    rep = solve_quadric_system(good_quartic(), circle_conic())
    assert (rep.vector_dim, rep.proj_dim) == (8, 7)
    assert rep.obstruction == (0,) * 7
    assert rep.feasible
    assert rep.solution_dim == 8
    assert format_poly(rep.witness) == "x0^2 + x1^2 + x2^2 + x3^2 - x4^2 + x5*x6"
    # the witness really contains the cone: restrict to x5 = 0
    assert rep.witness.set_variable_zero(5) == f7()


def test_solver_reports_the_obstruction():
    rep = solve_quadric_system(bad_quartic(), circle_conic())
    assert rep.obstruction == (1, 0, -3, 0, 3, 0, -1)
    assert not rep.feasible
    assert rep.witness is None
    # every solution of the linear system kills the f-component
    assert rep.solution_dim == 7


def oracle_case(name):
    """(P^5 quartic, conic, b) for the witness system: the n8 case is the
    section pencil of n8_cubes, which sympy specializes at b = (1, 2, 3)."""
    if name == "good":
        return good_quartic(), circle_conic(), ()
    if name == "bad":
        return bad_quartic(), circle_conic(), ()
    if name == "reverse_p5":
        Y = load_instance(INSTANCES / "reverse_p5.json")
        return Y, Y.conic, ()
    H = load_instance(INSTANCES / "n8_cubes.json")
    return H, H.conic, (1, 2, 3)


@pytest.mark.parametrize("name", ["good", "bad", "reverse_p5", "n8-section"])
def test_closed_form_witness_solves_the_full_system(name):
    # the eight unknowns (l_0..l_6, lambda) of q = x5*l + lambda*f, with the
    # conditions lambda*c1(conic(t)) - alpha*l(conic(t))*f(conic(t)) = 0
    # built and solved by sympy from the instance text
    import sympy as sp
    inst, conic, bvals = oracle_case(name)
    xs = sp.symbols("x0:%d" % (inst.n + 1))
    t = sp.Symbol("t")
    text = lambda p: sp.sympify(format_poly(p).replace("^", "**"),
                                locals={str(v): v for v in xs})
    F, f = text(inst.F), text(inst.f)
    F = F.subs({xs[i]: b * xs[5] for i, b in zip(range(6, inst.n + 1), bvals)})
    c1 = sp.cancel((F - sp.Rational(inst.alpha) * f ** 2) / xs[5])
    g = conic.eval([t], lift=lambda c: sp.Rational(c.numerator, c.denominator))
    on_conic = dict(zip(xs, list(g) + [0] * (inst.n - 4)))
    ls, lam = sp.symbols("l0:7"), sp.Symbol("lam")
    expr = sp.expand(lam * c1.subs(on_conic)
                     - sp.Rational(inst.alpha) * sum(
                         li * gi for li, gi in zip(ls, g)) * f.subs(on_conic))
    top = 3 * max(sp.degree(gi, t) for gi in g)
    unknowns = list(ls) + [lam]
    M = sp.Matrix([[expr.coeff(t, d).coeff(u) for u in unknowns]
                   for d in range(top + 1)])
    run = solve_stage(inst, conic)
    rep = run.solver
    assert len(M.nullspace()) == rep.solution_dim
    assert (M * sp.Matrix([0] * 6 + [1, 1])).is_zero_matrix == rep.feasible
    ff = run.section.F.field
    want = [ff.coerce(co) for co in rep.obstruction]
    if bvals:
        want = [co.evaluate([Fraction(b) for b in bvals]) for co in want]
    assert list(M[:, 7]) == [sp.Rational(co.numerator, co.denominator)
                             for co in want]


def test_quartic_instance_refuses_a_slice_form_of_lower_rank():
    # the circle lies on x0^2 + x1^2 - x4^2 too, but no x5*l + lambda*f has
    # rank seven when f has rank three
    f = parse_poly("x0^2 + x1^2 - x4^2", nvars=5)
    F = (f * f).extend_variables(6) + parse_poly("x5^4 + x0^2*x2*x5", nvars=6)
    with pytest.raises(ValueError, match="rank five"):
        QuarticInstance(n=5, F=F, f=f)


def cone_points(f, base, seed, count=120):
    """Rational points of the cone K = {x5 = 0, f = 0} in P^6, for a sympy
    quadratic form f in x0..x4 and a point base of {f = 0}: the vertex e6,
    then seeded multiples of e6 added to points of {f = 0}.  A line through
    base in direction d meets {f = 0} again at f(d)*base - 2B(base, d)*d,
    and lies inside it when f(d) = 0, so then d itself is a point."""
    import sympy as sp
    xs = sp.symbols("x0:5")
    val = lambda v: f.subs(dict(zip(xs, v)))
    rng = random.Random(seed)
    pts = [[0] * 6 + [1]]
    while len(pts) < count:
        d = [sp.Rational(rng.randint(-3, 3)) for _ in range(5)]
        fd = val(d)
        bd = val([a + b for a, b in zip(base, d)]) - fd
        y = d if fd == 0 else [fd * a - bd * b for a, b in zip(base, d)]
        if all(v == 0 for v in y):
            continue
        assert val(y) == 0
        pts.append(list(y) + [0, sp.Rational(rng.randint(-3, 3))])
    return pts


@pytest.mark.parametrize("form, base, want", [
    ("x0**2 + x1**2 + x2**2 + x3**2 - x4**2", (1, 0, 0, 0, 1), 8),
    ("x0*x1 + x2*x3 - x4**2", (1, 0, 0, 0, 0), 8),
    # rank one: {f = 0} is the plane x0 = 0, so K is a linear P^4 and the
    # quadrics through it are x0*R_1 + x5*R_1, of dimension 7 + 7 - 1
    ("x0**2", (0, 1, 0, 0, 0), 13),
], ids=["sphere", "rank5-nondiagonal", "square"])
def test_cone_quadrics_counted_over_QQ(form, base, want):
    # the exact nullspace over QQ of the 28 quadratic monomials evaluated at
    # points of the cone itself: 8 for a form of rank five, the dimension
    # the witness search reports without counting
    import sympy as sp
    from sympy.polys.matrices import DomainMatrix
    f = sp.sympify(form)
    mons = monomials(7, 2)
    value = lambda pt, e: sp.Mul(*[v ** k for v, k in zip(pt, e)])
    rows = [[sp.QQ.convert(value(pt, e)) for e in mons]
            for pt in cone_points(f, [sp.Rational(v) for v in base], seed=5)]
    M = DomainMatrix(rows, (len(rows), len(mons)), sp.QQ)
    assert M.nullspace().shape[0] == want


def test_solve_stage_draws_nothing_at_random(monkeypatch):
    insts = [load_instance(INSTANCES / name)
             for name in ("reverse_p5.json", "n8_cubes.json")]
    key = lambda run: (run.solver, run.params, run.section)
    before = [solve_stage(inst, inst.conic) for inst in insts]
    assert [run.solver.feasible for run in before] == [True, False]

    def refuse(*args, **kwargs):
        raise AssertionError("the witness search drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    after = [solve_stage(inst, inst.conic) for inst in insts]
    assert [key(r) for r in after] == [key(r) for r in before]


def test_section_c1_is_the_substituted_quartic_over_x5():
    # c1(x0..x5, b6..b8) = (F(x0..x5, b6*x5, b7*x5, b8*x5) - f^2) / x5, with
    # b_i in variable i, recomputed here by plain substitution
    H = build_real_example(n=8, preset="cubes", seed=0)
    run = run_pass(H, seed=0)
    xs = [x(i, 9) for i in range(9)]
    sub = H.F.evaluate(xs[:6] + [xs[i] * xs[5] for i in (6, 7, 8)],
                       lift=lambda c: MPoly.const(9, c, QQ))
    f9 = H.f.extend_variables(9)
    flat = flatten_params(run.solver.c1)
    assert flat == (sub - f9 * f9).exact_divide(xs[5])
    assert not run.solver.feasible and run.program is None


def test_solver_rejects_a_conic_off_the_surface():
    f6 = sphere_form()
    definite = parse_poly("x0^2+x1^2+x2^2+x3^2+x4^2", nvars=5)
    F = (definite * definite).extend_variables(6)
    Y = QuarticInstance(n=5, F=F, f=definite)
    with pytest.raises(ValueError):
        solve_quadric_system(Y, circle_conic())
    assert f6.evaluate([Fraction(1), 0, 0, 0, Fraction(1)]) == 0


# -- fibrations of the quadric-cubic intersection -----------------------------


def worked_ci23():
    q = x(5) * x(6) + f7()
    c = x(0) ** 2 * x(2) - x(6) * f7()
    return Ci23Instance(q=q, c=c, conic=circle_conic())


def test_ci23_parametrize_frozen_shape():
    inst = worked_ci23()
    phi = ci23_parametrize(inst, seed=0)
    assert (phi.in_arity, phi.out_arity) == (4, 7)
    assert phi.chart == 0
    assert len(phi.nodes) == 731
    # the plan that seed 0 rehearses, as ci23_parametrize draws it
    plan, _ = pipeline._dry_plan(inst.q, inst.c, inst.conic, random.Random(0))
    assert (list(plan["pivots"]), list(plan["span"]), plan["drop"]) == (
        [0, 2], [3, 4, 5], 1)


def test_ci23_points_live_on_the_intersection():
    inst = worked_ci23()
    phi = ci23_parametrize(inst, seed=0)
    rng = random.Random(7)
    hits = 0
    while hits < 25:
        vals = [Fraction(rng.randint(-9, 9), 1 + rng.randint(0, 3))
                for _ in range(4)]
        pt = phi.eval(vals)
        if all(v == 0 for v in pt):
            continue
        assert inst.q.evaluate(pt) == 0
        assert inst.c.evaluate(pt) == 0
        hits += 1


def test_ci23_dominates_the_intersection():
    phi = ci23_parametrize(worked_ci23(), seed=0)
    vals = [Fraction(1, 2), Fraction(3), Fraction(1), Fraction(2)]
    # rank 4 mod p bounds the rank over QQ from below; 4 inputs bound it above
    assert rank_mod_p(phi.jacobian(vals, P61), P61) == 4


def test_ci23_is_deterministic():
    a = ci23_parametrize(worked_ci23(), seed=0)
    b = ci23_parametrize(worked_ci23(), seed=0)
    assert text(a) == text(b)


CI23_SHARED = worked_ci23()
CI23_PHI = ci23_parametrize(CI23_SHARED, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.tuples(*(st.integers(-30, 30) for _ in range(4))),
       st.tuples(*(st.integers(1, 7) for _ in range(4))))
def test_ci23_membership_is_identical(nums, dens):
    vals = [Fraction(a, b) for a, b in zip(nums, dens)]
    pt = CI23_PHI.eval(vals)
    assert CI23_SHARED.q.evaluate(pt) == 0
    assert CI23_SHARED.c.evaluate(pt) == 0


def test_ci23_degenerate_cubics():
    q = x(5) * x(6) + f7()
    # c = x5*x0^2 pushes the vertex direction into the radical of every fiber
    inst = Ci23Instance(q=q, c=x(5) * x(0) ** 2, conic=circle_conic())
    with pytest.raises(SectionSingular):
        ci23_parametrize(inst, seed=0)
    # c = x0*q makes both tangent hyperplanes coincide along the surface
    inst = Ci23Instance(q=q, c=x(0) * q, conic=circle_conic())
    with pytest.raises(TangentsCoincide):
        ci23_parametrize(inst, seed=0)


# -- the quartic threefold ----------------------------------------------------


def test_parametrize_Y4_worked_example():
    Y = good_quartic()
    psi = parametrize_Y4(Y, seed=0)
    assert (psi.in_arity, psi.out_arity) == (4, 6)
    assert psi.chart == 0
    ci = run_pass(Y, seed=0).ci
    plan, _ = pipeline._dry_plan(ci.q, ci.c, ci.conic, random.Random(0))
    assert list(plan["pivots"]) == [0, 2]
    rng = random.Random(11)
    hits = 0
    while hits < 10:
        vals = [Fraction(rng.randint(-9, 9), 1 + rng.randint(0, 3))
                for _ in range(4)]
        pt = psi.eval(vals)
        if all(v == 0 for v in pt):
            continue
        assert Y.F.evaluate(pt) == 0
        hits += 1
    vals = [Fraction(1, 2), Fraction(3), Fraction(1), Fraction(2)]
    assert rank_mod_p(psi.jacobian(vals, P61), P61) == 4


def test_parametrize_Y4_obstructed_report():
    rep = parametrize_Y4(bad_quartic(), seed=0)
    assert isinstance(rep, SolverReport) and not rep.feasible
    block = certify_obstruction(bad_quartic(), circle_conic(),
                                run_pass(bad_quartic(), seed=0))
    assert block["message"] == ("every quadric through the cone compatible "
                                "with the conic degenerates (lambda = 0)")
    assert block["obstruction"] == ["1", "0", "-3", "0", "3", "0", "-1"]
    assert (rep.vector_dim, rep.proj_dim, rep.solution_dim) == (8, 7, 7)


# -- reverse construction -----------------------------------------------------


def test_reverse_build_reproduces_the_worked_pair():
    c1 = x(0, 6) ** 2 * x(2, 6)
    ci, quart = reverse_build(c1=c1, seed=0)
    assert quart.F == good_quartic().F
    assert format_poly(ci.q) == "x0^2 + x1^2 + x2^2 + x3^2 - x4^2 + x5*x6"
    assert decompose_cone(quart, ci.q).c1 == c1


def test_reverse_build_seeded_is_deterministic():
    ci, quart = reverse_build(seed=0)
    assert quart.seeds == {"seed": 0, "attempt": 2, "fiber_seed": 2}
    ci2, quart2 = reverse_build(seed=0)
    assert quart2.F == quart.F and ci2.q == ci.q and ci2.c == ci.c
    # the manufactured pair closes the loop through the forward solver
    rep = solve_quadric_system(quart, quart.conic)
    assert rep.feasible


def test_reverse_build_rejects_a_cubic_off_the_conic():
    with pytest.raises(ValueError):
        reverse_build(c1=x(0, 6) ** 3)


def test_reverse_build_refuses_a_wrong_program(monkeypatch):
    # a sweep with one constant bumped no longer lands on the quartic, so
    # no attempt yields a pair
    honest = pipeline.ci23_parametrize

    def bumped(inst, seed=0):
        phi = honest(inst, seed=seed)
        nodes = list(phi.nodes)
        i = next(i for i, nd in enumerate(nodes)
                 if nd[0] == "const" and nd[1] not in (0, 1))
        nodes[i] = ("const", nodes[i][1] + 1)
        return SlpMap(phi.in_arity, nodes, phi.outputs, chart=phi.chart)

    monkeypatch.setattr(pipeline, "ci23_parametrize", bumped)
    with pytest.raises(ArithmeticError):
        reverse_build(seed=0)


def test_reverse_build_certifies_the_final_program(monkeypatch):
    # past the pass's own one-point check, the on-variety certificate on F5
    # refuses a final program off the quartic
    honest = pipeline.run_pass

    def shifted(inst, conic=None, seed=0):
        run = honest(inst, conic, seed=seed)
        prog = run.program
        nodes = list(prog.nodes) + [("const", Fraction(1))]
        nodes.append(("add", prog.outputs[0], len(nodes) - 1))
        outs = (len(nodes) - 1,) + prog.outputs[1:]
        return replace(run, program=SlpMap(prog.in_arity, nodes, outs,
                                           chart=prog.chart))

    monkeypatch.setattr(pipeline, "run_pass", shifted)
    with pytest.raises(IdentityFails):
        reverse_build(seed=0)


# -- hyperplane sections of higher quartics -----------------------------------


def test_generic_section_matches_direct_substitution():
    for H in (build_real_example(n=8, preset="cubes", seed=0),
              build_real_example(n=7, preset="seeded", seed=3), feasible_h4()):
        Y, names = generic_section(H)
        assert names == tuple("b%d" % i for i in range(6, H.n + 1))
        assert Y.n == 5 and Y.F.nvars == 6 and Y.F.total_degree() == 4
        # F(x0..x5, b6*x5, ..., bn*x5), with b_i in variable i, by plain
        # substitution
        xs = [x(i, H.n + 1) for i in range(H.n + 1)]
        sub = H.F.evaluate(xs[:6] + [xs[i] * xs[5] for i in range(6, H.n + 1)],
                           lift=lambda c: MPoly.const(H.n + 1, c, QQ))
        assert flatten_params(Y.F) == sub
        # specialize b = (1, 2, ...) and compare with a plain rational
        # substitution
        bvals = [Fraction(i) for i in range(1, len(names) + 1)]
        spec = Y.F.map_coefficients(QQ, lambda r: r.evaluate(bvals))
        ys = [x(i, 6) for i in range(6)]
        assert spec == H.F.evaluate(ys + [ys[5].scale(b) for b in bvals],
                                    lift=lambda c: MPoly.const(6, c, QQ))


@pytest.mark.parametrize("n, preset, seed, obstruction", [
    (8, "cubes", 0, ["1/16", "0", "-3/16", "1/2*b6", "3/16", "0", "-1/16"]),
    (7, "seeded", 3, ["3/16*b6 - 1/4*b7 - 1/16", "1/8*b6 - 1/2",
                      "13/16*b6 + 1/4*b7 + 9/16", "1/4*b6 - 1/2*b7",
                      "9/16*b6 - 1/4*b7 - 3/16", "1/8*b6 - 1/2*b7",
                      "-1/16*b6 - 1/4*b7 - 5/16"]),
], ids=["n8_cubes", "n7_seeded3"])
def test_parametrize_H4_obstructed_cubes(n, preset, seed, obstruction):
    H = build_real_example(n=n, preset=preset, seed=seed)
    rep = parametrize_H4(H, seed=0)
    assert isinstance(rep, SolverReport) and not rep.feasible
    block = certify_obstruction(H, H.conic, run_pass(H, seed=0))
    assert block["message"] == ("the residual cubic misses the conic for "
                                "every section parameter")
    assert block["obstruction"] == obstruction
    assert (rep.vector_dim, rep.proj_dim, rep.solution_dim) == (8, 7, 7)


def feasible_h4():
    # F = f^2 + x5*x0^2*x2 + x6^4 + x7^4 + x8^4 on P^8; every section of the
    # pencil keeps the witness from the worked example
    f9 = sphere_form().extend_variables(9)
    F = f9 * f9 + x(5, 9) * x(0, 9) ** 2 * x(2, 9)
    for i in (6, 7, 8):
        F = F + x(i, 9) ** 4
    return QuarticInstance(n=8, F=F, f=sphere_form())


def test_parametrize_H4_feasible_pencil():
    H = feasible_h4()
    phi = parametrize_H4(H, seed=0)
    assert (phi.in_arity, phi.out_arity) == (7, 9)
    assert phi.chart == 0
    rng = random.Random(3)
    hits = 0
    while hits < 5:
        vals = [Fraction(rng.randint(-6, 6), 1 + rng.randint(0, 2))
                for _ in range(7)]
        pt = phi.eval(vals)
        if all(v == 0 for v in pt):
            continue
        assert H.F.evaluate(pt) == 0
        hits += 1
    vals = [Fraction(1), Fraction(-2), Fraction(3),
            Fraction(1, 2), Fraction(3), Fraction(1), Fraction(2)]
    # n - 1: the pencil fills P^8; 7 inputs bound the rank over QQ above
    assert rank_mod_p(phi.jacobian(vals, P61), P61) == 7


def p6_lift():
    # reverse_p5 lifted to P^6: the sections x6 = b6*x5 are feasible
    Y = load_instance(INSTANCES / "reverse_p5.json")
    F = (Y.F.extend_variables(7) + x(6) ** 4 + x(5) * x(6) * x(0) * x(1))
    return QuarticInstance(n=6, F=F, f=Y.f, alpha=Y.alpha)


PINNED_INSTANCES = {
    "reverse_p5": lambda: load_instance(INSTANCES / "reverse_p5.json"),
    "p6_lift": p6_lift,
}


# sha256 of each program's text(): compact JSON with sorted keys.  The seed
# draws only the points at which the plan is rehearsed, so on these two
# instances seeds 0-2 build the same program.
PINNED_DIGESTS = {
    ("reverse_p5", 0):
    "5254b49dc91bfe6ebca9b4e9fbfa0421ad3c83949273c7633f85a667ada5a67b",
    ("reverse_p5", 1):
    "5254b49dc91bfe6ebca9b4e9fbfa0421ad3c83949273c7633f85a667ada5a67b",
    ("reverse_p5", 2):
    "5254b49dc91bfe6ebca9b4e9fbfa0421ad3c83949273c7633f85a667ada5a67b",
    ("p6_lift", 0):
    "75ecaa65e20ff7c2017e5af13d96fc3ce6aac6bc0bf6f2bdb1ffd8c14266d34a",
    ("p6_lift", 1):
    "75ecaa65e20ff7c2017e5af13d96fc3ce6aac6bc0bf6f2bdb1ffd8c14266d34a",
    ("p6_lift", 2):
    "75ecaa65e20ff7c2017e5af13d96fc3ce6aac6bc0bf6f2bdb1ffd8c14266d34a",
}


@pytest.mark.parametrize("name, seed", list(PINNED_DIGESTS))
def test_run_pass_program_is_pinned(name, seed):
    digest = PINNED_DIGESTS[name, seed]
    H = PINNED_INSTANCES[name]()
    program = run_pass(H, seed=seed).program
    assert program.in_arity == H.n - 1
    check_on_variety(program, H.F, seed=seed)
    check_dominant(program, H.n - 1, seed=seed)
    assert hashlib.sha256(text(program).encode()).hexdigest() == digest


def qq_chart_rank(program, point):
    """sympy's rank of the Jacobian of the chart map out/out_chart over QQ
    at a rational point.  The partial derivatives come from a forward pass
    over Fractions written here, apart from SlpMap.jacobian."""
    import sympy as sp
    n = program.in_arity
    vals, ders = [], []
    for node in program.nodes:
        op = node[0]
        if op == "input":
            vals.append(point[node[1]])
            ders.append([Fraction(int(k == node[1])) for k in range(n)])
        elif op == "const":
            vals.append(node[1])
            ders.append([Fraction(0)] * n)
        else:
            a, b, da, db = vals[node[1]], vals[node[2]], ders[node[1]], ders[node[2]]
            if op == "mul":
                vals.append(a * b)
                ders.append([a * y + b * x for x, y in zip(da, db)])
            else:
                sign = 1 if op == "add" else -1
                vals.append(a + sign * b)
                ders.append([x + sign * y for x, y in zip(da, db)])
    w, dw = vals[program.outputs[program.chart]], ders[program.outputs[program.chart]]
    rows = [[(dv * w - vals[o] * dw_j) / (w * w) for dv, dw_j in zip(ders[o], dw)]
            for pos, o in enumerate(program.outputs) if pos != program.chart]
    return sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                      for row in rows]).rank()


@pytest.mark.parametrize("name, seed", [("reverse_p5", 0), ("reverse_p5", 1),
                                        ("reverse_p5", 2), ("p6_lift", 0)])
def test_dominance_rank_mod_p_is_the_rank_over_QQ(name, seed):
    H = PINNED_INSTANCES[name]()
    program = run_pass(H, seed=seed).program
    doc = check_dominant(program, H.n - 1, seed=seed)
    witness = [Fraction(c) for c in doc["witness"]]
    assert qq_chart_rank(program, witness) == doc["rank"] == H.n - 1


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_no_shipped_constant_has_a_denominator_divisible_by_p(name):
    # dominance reduces every constant mod p; the shipped programs, the sweep
    # that parametrize certifies too, and the conics never need another prime
    H = PINNED_INSTANCES[name]()
    programs = [circle_conic() if H.conic is None else H.conic]
    for seed in range(3):
        run = run_pass(H, seed=seed)
        programs += [run.program, run.phi]
    dens = {node[1].denominator for prog in programs
            for node in prog.nodes if node[0] == "const"}
    assert dens <= {1, 2}
    assert all(d % P61 for d in dens)


def test_ci23_parametrize_sweeps_the_pencil():
    # the section parameter b6 is the first input; every point lies on q and
    # c specialized at that b6
    ci = run_pass(p6_lift(), seed=0).ci
    phi = ci23_parametrize(ci, seed=0)
    assert (phi.in_arity, phi.out_arity) == (5, 7)
    rng = random.Random(5)
    hits = 0
    while hits < 5:
        vals = [Fraction(rng.randint(-6, 6), 1 + rng.randint(0, 2))
                for _ in range(5)]
        pt = phi.eval(vals)
        if all(v == 0 for v in pt):
            continue
        for poly in (ci.q, ci.c):
            spec = poly.map_coefficients(QQ, lambda r: r.evaluate(vals[:1]))
            assert spec.evaluate(pt) == 0
        hits += 1


def fraction_plan(q0, c0, s0):
    """The plan of pipeline._plan_fiber, with every test exact on Fractions."""
    n = q0.nvars
    a0 = [q0.partial_derivative(j).evaluate(s0) for j in range(n)]
    b0 = [c0.partial_derivative(j).evaluate(s0) for j in range(n)]
    pivots = next(((i1, i2) for i1 in range(n) for i2 in range(i1 + 1, n)
                   if a0[i1] * b0[i2] - a0[i2] * b0[i1] != 0), None)
    if pivots is None:
        raise TangentsCoincide(
            "the tangent spaces of the pencil members coincide at the surface point")
    if n - 1 in pivots:
        raise ValueError("the vertex direction escaped the common tangent space")
    free = [j for j in range(n) if j not in pivots]
    drop = next((j for j in free if j != n - 1 and s0[j] != 0), None)
    if drop is None:
        raise ValueError("the surface point is supported on the pivot columns only")
    plan = {"pivots": pivots, "drop": drop,
            "span": tuple(j for j in free if j not in (drop, n - 1))}
    _, gram = pipeline._fiber_frame(q0, a0, b0, plan)
    assert gram[-1][-1] == 0
    if all(row[-1] == 0 for row in gram):
        raise SectionSingular("the vertex direction is singular on the fiber quadric")
    return plan


def fraction_rehearsal(q0, c0, conic, rng):
    """pipeline._dry_plan on Fractions: the same draws, the same ring-generic
    frame and construction with lift = identity, and exact tests."""
    last = None
    for _ in range(6):
        t0 = Fraction(rng.randint(-19, 19), 1 + rng.randint(0, 5))
        u0 = Fraction(1 + rng.randint(0, 9), 1 + rng.randint(0, 3))
        s0 = list(conic.eval([t0])) + [Fraction(0), u0]
        try:
            plan = fraction_plan(q0, c0, s0)
        except (TangentsCoincide, SectionSingular, ValueError) as err:
            last = err
            continue
        for _ in range(4):
            v0 = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            pt0, g = pipeline._fiber_construction(q0, c0, s0, v0, plan)
            if g[2] == 0 and g[3] == 0:
                last = LineInsideCubic("a swept tangent line lies inside the cubic")
                continue
            if all(v == 0 for v in pt0):
                last = ArithmeticError("the fiber construction degenerated at rehearsal")
                continue
            assert q0.evaluate(pt0) == 0 and c0.evaluate(pt0) == 0
            chart = next(i for i, v in enumerate(pt0) if v != 0)
            return plan, {"t": t0, "u": u0, "v": v0, "point": pt0, "chart": chart}
    raise last


def outcome(rehearse, *args):
    try:
        return rehearse(*args)
    except (TangentsCoincide, SectionSingular, LineInsideCubic,
            ArithmeticError, ValueError) as err:
        return type(err), str(err)


REHEARSED = {
    "reverse_p5": lambda: run_pass(PINNED_INSTANCES["reverse_p5"]()).ci,
    "p6_lift": lambda: run_pass(p6_lift()).ci,
    # the two degenerate cubics of test_ci23_degenerate_cubics
    "section_singular": lambda: Ci23Instance(
        q=x(5) * x(6) + f7(), c=x(5) * x(0) ** 2, conic=circle_conic()),
    "tangents_coincide": lambda: Ci23Instance(
        q=x(5) * x(6) + f7(), c=x(0) * (x(5) * x(6) + f7()), conic=circle_conic()),
}


@pytest.mark.parametrize("name, seeds", [
    ("reverse_p5", range(40)), ("p6_lift", range(3)),
    ("section_singular", range(3)), ("tangents_coincide", range(3))])
def test_rehearsal_mod_p_agrees_with_the_fraction_rehearsal(name, seeds):
    # the b0 draws and attempts of ci23_parametrize, with both rehearsals
    # run at each: the same plan, chart and draws, and the residues of the
    # Fraction point, or the same exception
    ci = REHEARSED[name]()
    k = len(getattr(ci.q.field, "names", ()))
    for seed in seeds:
        rng = random.Random(seed)
        for attempt in range(6 if k else 1):
            b0 = [Fraction(rng.randint(-5, 5)) for _ in range(k)]
            q0, c0 = ci.q, ci.c
            if k:
                q0, c0 = (p.map_coefficients(QQ, lambda r: r.evaluate(b0))
                          for p in (q0, c0))
            got = outcome(pipeline._dry_plan, q0, c0, ci.conic,
                          random.Random(seed + attempt))
            want = outcome(fraction_rehearsal, q0, c0, ci.conic,
                           random.Random(seed + attempt))
            if isinstance(want[0], type):
                assert got == want
                continue
            want[1]["point"] = [residue(v, P61) for v in want[1]["point"]]
            assert got == want
            break


def test_ci23_parametrize_refuses_a_coefficient_that_is_not_polynomial():
    # programs cannot divide; the sweep's coefficients live in QQ[b6], where
    # q / (1 + b6^2) cannot even be formed
    ci = run_pass(p6_lift(), seed=0).ci
    ff = ci.q.field
    assert repr(ff) == "QQ[b6]"
    b6 = MPoly.variable(0, ff.nvars)
    with pytest.raises(NotDivisible):
        ff.one / (ff.one + b6 * b6)


def test_parametrize_H4_is_deterministic():
    a = parametrize_H4(feasible_h4(), seed=0)
    b = parametrize_H4(feasible_h4(), seed=0)
    assert text(a) == text(b)


@pytest.mark.parametrize("name", ["reverse_p5", "p6_lift", "feasible_h4",
                                  "n8_cubes"])
def test_parametrizable_instances_are_singular_along_the_conic(name):
    # a pencil-wide witness needs every section cubic c_i to vanish on the
    # conic C; on the slice dF/dx_i = c_i (i >= 5) and dF/dx_j =
    # 2*alpha*f*df_j = 0 (j <= 4), so every instance the pipeline
    # parametrizes is singular along C, while the smooth n8_cubes is not
    H = {"reverse_p5": lambda: load_instance(INSTANCES / "reverse_p5.json"),
         "p6_lift": p6_lift, "feasible_h4": feasible_h4,
         "n8_cubes": lambda: load_instance(INSTANCES / "n8_cubes.json")}[name]()
    conic = H.conic if H.conic is not None else circle_conic()
    partials = [H.F.partial_derivative(i) for i in range(H.n + 1)]
    for t in (Fraction(1, 3), Fraction(2)):
        pt = list(conic.eval([t])) + [Fraction(0)] * (H.n - 4)
        assert H.F.evaluate(pt) == 0
        singular = all(d.evaluate(pt) == 0 for d in partials)
        assert singular == (name != "n8_cubes")


# -- example builder and instance files ---------------------------------------


def test_build_real_example_cubes():
    H = build_real_example(n=8, preset="cubes", seed=0)
    assert [format_poly(c) for c in H.cubics] == ["x0^3", "x1^3", "x2^3", "x3^3"]
    assert H.gamma_coord == 4 and H.epsilon == Fraction(1, 16)
    assert H.seeds == {"seed": 0, "preset": "cubes"}


def test_build_real_example_seeded_is_deterministic():
    a = build_real_example(n=8, preset="seeded", seed=3)
    b = build_real_example(n=8, preset="seeded", seed=3)
    assert a.F == b.F and a.cubics == b.cubics
    assert [len(c.terms) for c in a.cubics] == [31, 28, 28, 25]
    with pytest.raises(ValueError):
        build_real_example(preset="nope")
    with pytest.raises(ValueError):
        build_real_example(n=4)


def test_instance_json_roundtrip(tmp_path):
    H = build_real_example(n=8, preset="seeded", seed=3)
    doc = instance_to_json(H)
    assert doc["version"] == 1 and doc["M"] == "x5..x8 = 0"
    back = instance_from_json(json.loads(json.dumps(doc)))
    assert back.F == H.F and back.f == H.f and back.cubics == H.cubics
    assert back.epsilon == H.epsilon and back.gamma_coord == 4
    path = tmp_path / "h8.json"
    save_instance(H, path)
    assert load_instance(path).F == H.F
