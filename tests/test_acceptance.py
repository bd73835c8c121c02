"""Acceptance battery: eight end-to-end criteria, one test each.

`pytest -v` prints one pass/fail line per criterion.  Every expected value
here is frozen from an independent oracle run; the wall-clock budgets are
deliberate ceilings, an order of magnitude above the reference timings, so
a pass means the pipeline is both correct and usably fast.

Expensive artifacts (the parametrization of the shipped P^5 instance, the
double certificate for the n = 8 instance) are built once in module-scoped
fixtures and shared between the criteria that consume them.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter

import pytest

from unirat.certify import (
    ReplayRejected,
    check_dominant,
    check_on_variety,
    replay_certificate,
    singular_dimension_experiment,
)
from unirat.cli import main
from unirat.exactcore import QQ, ExactMatrix, kernel_basis
from unirat.geom import residual_formula, stereographic_param
from unirat.mpoly import MPoly, format_poly, parse_poly
from unirat.pipeline import (
    Ci23Instance,
    ci23_parametrize,
    decompose_cone,
    generic_section,
    load_instance,
    reverse_build,
    run_pass,
    solve_quadric_system,
    _compose_poly,
    _conic_polys,
    _to_field,
    _univariate_coeffs,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
REVERSE_P5 = INSTANCES / "reverse_p5.json"
N8_CUBES = INSTANCES / "n8_cubes.json"


def run_cli(argv):
    with redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def reportdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def p5():
    """Witness, cone split and certified 4-parameter program for the shipped
    reverse-built instance; criteria 1, 3 and 8 consume pieces of it."""
    inst = load_instance(REVERSE_P5)
    conic = inst.conic
    t0 = perf_counter()
    rep = solve_quadric_system(inst, conic)
    split = decompose_cone(inst, rep.witness)
    ci = Ci23Instance(q=rep.witness, c=split.c, conic=conic)
    phi = ci23_parametrize(ci, seed=0)
    onq = check_on_variety(phi, ci.q, seed=0)
    onc = check_on_variety(phi, ci.c, seed=0)
    dom = check_dominant(phi, 4, seed=0)
    elapsed = perf_counter() - t0
    return {"inst": inst, "rep": rep, "ci": ci, "phi": phi,
            "onq": onq, "onc": onc, "dom": dom, "elapsed": elapsed}


@pytest.fixture(scope="module")
def n8_certify(reportdir):
    """CLI double certificate (smoothness mod two primes + real positivity)
    for the shipped n = 8 instance."""
    rep = reportdir / "n8.certify.report.json"
    t0 = perf_counter()
    code = run_cli(["certify", "--instance", str(N8_CUBES),
                    "--jobs", "2", "--report", str(rep)])
    elapsed = perf_counter() - t0
    return {"code": code, "path": rep,
            "doc": json.loads(rep.read_text()), "elapsed": elapsed}


@pytest.fixture(scope="module")
def n8_obstruction(reportdir):
    """CLI parametrize outcome for the shipped n = 8 instance: the archived
    obstruction report."""
    rep = reportdir / "n8.parametrize.report.json"
    t0 = perf_counter()
    code = run_cli(["parametrize", "--instance", str(N8_CUBES),
                    "--out", str(reportdir / "n8.slp.json"),
                    "--report", str(rep)])
    elapsed = perf_counter() - t0
    return {"code": code, "path": rep,
            "doc": json.loads(rep.read_text()), "elapsed": elapsed}


@pytest.fixture(scope="module")
def stereo_cert():
    sphere = parse_poly("x0^2+x1^2+x2^2+x3^2-x4^2", nvars=5)
    m = stereographic_param(sphere, [1, 0, 0, 0, 1], [1, 0, 0, 0, 0])
    return check_on_variety(m, sphere, seed=0)


# -- criteria --------------------------------------------------------------------


def test_criterion_1_quadrics_through_the_cone_form_a_p7(p5):
    # the containment conditions leave a kernel of vector dimension exactly
    # 8, i.e. a projective P^7 of quadrics; exact arithmetic, zero tolerance
    t0 = perf_counter()
    rep = solve_quadric_system(p5["inst"], p5["inst"].conic)
    elapsed = perf_counter() - t0
    assert (rep.vector_dim, rep.proj_dim) == (8, 7)
    assert rep.feasible
    assert elapsed < 1.0
    print("criterion 1: PASS (kernel dim 8, projective dim 7, %.2fs)" % elapsed)


def test_criterion_2_degree_bookkeeping_on_the_rebuilt_instance():
    t0 = perf_counter()
    ci, quart = reverse_build(seed=0)
    # the rebuild is the shipped instance, byte for byte
    shipped = json.loads(REVERSE_P5.read_text())
    assert format_poly(quart.F) == shipped["F"]
    assert quart.seeds == {"seed": 0, "attempt": 2, "fiber_seed": 2}
    # the quartics through the image are the multiples of F: the program's
    # image lies in {F = 0} (failure bound below 2^-64), is 4-dimensional
    # (Jacobian rank 4 mod a prime, so at least 4 over QQ) and defined over
    # QQ, and F is irreducible over QQ, so the image is dense in the
    # irreducible hypersurface {F = 0}
    program = run_pass(quart, seed=quart.seeds["fiber_seed"]).program
    onv = check_on_variety(program, quart.F, seed=0)
    assert Fraction(onv["per_point_bound"]) ** onv["points"] < Fraction(1, 2 ** 64)
    assert check_dominant(program, 4, seed=0)["rank"] == 4
    import sympy as sp
    _, factors = sp.factor_list(sp.sympify(format_poly(quart.F).replace("^", "**")))
    assert [mult for _, mult in factors] == [1]
    # cone identity, exact: lam * F = alpha * f * q + lam * x5 * c
    split = decompose_cone(quart, ci.q)
    F7 = quart.F.extend_variables(7)
    f7 = quart.f.extend_variables(7)
    x5 = MPoly.variable(5, 7, QQ)
    lhs = F7.scale(split.lam)
    rhs = (f7 * ci.q).scale(quart.alpha) + (x5 * ci.c).scale(split.lam)
    assert lhs == rhs
    assert split.c == ci.c
    # degree split of the cone section: 2 * 4 = 8 = 2 (doubled quadric
    # part) + 2 * 3 (quadric-cubic intersection part)
    assert quart.F.total_degree() == 4
    assert ci.q.total_degree() == 2 and ci.c.total_degree() == 3
    assert 2 * quart.F.total_degree() == 2 + 2 * ci.c.total_degree() == 8
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    print("criterion 2: PASS (identity exact, F irreducible and hit densely, "
          "8 = 2 + 6, %.1fs)" % elapsed)


def test_criterion_3_shipped_instance_parametrizes_with_certificates(p5):
    phi = p5["phi"]
    assert phi.in_arity == 4
    for cert in (p5["onq"], p5["onc"]):
        assert cert["mode"] == "randomized"
        assert cert["points"] == 2
        # recorded confidence: the fewest points whose failure bound is
        # below 2^-64
        bound = Fraction(cert["per_point_bound"])
        assert bound ** cert["points"] < Fraction(1, 2 ** 64)
        assert bound ** (cert["points"] - 1) >= Fraction(1, 2 ** 64)
    assert p5["dom"]["rank"] == 4 and p5["dom"]["target_dim"] == 4
    assert p5["elapsed"] < 120.0
    print("criterion 3: PASS (4-parameter program, q and c vanish at %d "
          "points, rank 4, %.1fs)" % (p5["onq"]["points"], p5["elapsed"]))


def test_criterion_4_n8_example_is_smooth_and_real_point_free(n8_certify):
    # the dense preset blows the positivity margin at epsilon = 1/16, so the
    # shipped configuration is the sparser pure-cubes one; the report must
    # say which configuration was certified
    assert n8_certify["code"] == 0
    doc = n8_certify["doc"]
    assert doc["outcome"] == "Success"
    kinds = [c["kind"] for c in doc["certificates"]]
    assert kinds == ["positivity", "smooth-mod-p", "smooth-mod-p"]
    pos = doc["certificates"][0]
    assert pos["chart"] == 4
    assert all(Fraction(d) > 0 for d in pos["diagonal"].values())
    assert sorted(c["p"] for c in doc["certificates"][1:]) == [10007, 10009]
    # both primes run the same early-stopped search, in the order that ranks
    # first the variables in fewest terms of F; the Hilbert count closes
    # most reductions to zero before they are formed
    for cert in doc["certificates"][1:]:
        assert cert["order"] == [5, 6, 7, 8, 4, 0, 1, 2, 3]
        assert cert["stats"] == {
            "s_pairs_processed": 6499, "s_pairs_skipped": 357670,
            "reductions_to_zero": 5654, "reductions_closed": 4309,
            "basis_size": 854, "max_degree": 19, "early_stop": True,
            "pure_power_degrees": {"0": 7, "1": 11, "2": 15, "3": 19, "4": 3,
                                   "5": 3, "6": 3, "7": 3, "8": 3}}
        stats = cert["stats"]
        assert stats["reductions_to_zero"] - stats["reductions_closed"] <= 2300
    assert doc["instance"]["n"] == 8
    assert doc["instance"]["seeds"]["preset"] == "cubes"
    assert n8_certify["elapsed"] < 1800.0
    print("criterion 4: PASS (smooth mod 10007 and 10009, positive on "
          "{x4 = 0}, preset recorded, %.0fs)" % n8_certify["elapsed"])


def test_criterion_5_stereographic_and_residual_primitives(stereo_cert):
    t0 = perf_counter()
    # sphere case composes to the literal zero polynomial
    assert stereo_cert["mode"] == "symbolic"
    assert stereo_cert["expansion_hash"] == hashlib.sha256(b"0").hexdigest()
    # 100 randomized double-contact configurations: a random cubic through
    # e0, a tangent direction from its gradient kernel, and the residual
    # point, formed as the sweep forms it (restrict_to_line, then
    # residual_formula), must satisfy the cubic exactly
    base = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    rng = random.Random(2026)
    hits = 0
    attempts = 0
    while hits < 100:
        attempts += 1
        assert attempts < 1000
        terms = {}
        for combo in combinations_with_replacement(range(4), 3):
            exp = [0, 0, 0, 0]
            for i in combo:
                exp[i] += 1
            if exp[0] == 3:
                continue  # keep e0 on the cubic
            terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
        c = MPoly(4, QQ, terms)
        if c.is_zero() or c.total_degree() != 3:
            continue
        grad = [c.partial_derivative(i).evaluate(base) for i in range(4)]
        ker = kernel_basis(ExactMatrix(QQ, [grad]))
        # e0 itself always sits in the kernel; a usable direction must point
        # away from the base point
        cands = [v for v in ker if any(v[i] != 0 for i in range(1, 4))]
        if not cands:
            continue
        direction = list(cands[rng.randrange(len(cands))])
        g = c.restrict_to_line(base, direction)
        assert g[0] == 0 and g[1] == 0  # the line is tangent at e0
        if g[2] == 0 and g[3] == 0:
            continue  # the line lies inside the cubic
        assert c.evaluate(residual_formula(g[2], g[3], base, direction)) == 0
        hits += 1
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    print("criterion 5: PASS (symbolic zero + %d/%d residual instances, "
          "%.1fs)" % (hits, attempts, elapsed))


def test_criterion_6_singular_dimension_statistics(n8_certify):
    t0 = perf_counter()
    stats = singular_dimension_experiment(trials=50, seed=0, jobs=2)
    elapsed = perf_counter() - t0
    assert stats["predicted_dimension"] == -1  # max(N-1-k, -1) at N=2, k=2
    assert stats["completed"] == 50
    assert Fraction(stats["matches"], stats["completed"]) >= Fraction(95, 100)
    # the same count for the shipped n = 8 family: the doubled surface has
    # projective dimension 3 and picks up k = n - 4 = 4 independent cubic
    # conditions, so 3 - 4 < 0 predicts an empty singular locus, which is
    # what criterion 4 certified
    inst = load_instance(N8_CUBES)
    assert inst.n == 8 and len(inst.cubics) == inst.n - 4
    assert 3 - (inst.n - 4) < 0
    assert n8_certify["doc"]["outcome"] == "Success"
    assert elapsed < 600.0
    print("criterion 6: PASS (%d/%d trials match, prediction -1 consistent "
          "with criterion 4, %.0fs)" % (stats["matches"], stats["completed"],
                                        elapsed))


def test_criterion_7_obstruction_is_archived_and_replays(n8_obstruction):
    assert n8_obstruction["code"] == 2
    doc = n8_obstruction["doc"]
    assert doc["outcome"] == "Obstruction"
    block = doc["obstruction"]
    assert block["obstruction"] == ["1/16", "0", "-3/16", "1/2*b6",
                                    "3/16", "0", "-1/16"]
    # recompute the obstruction from scratch: restrict the pencil section's
    # residual cubic c1 = (F_sec - alpha*f^2)/x5 to the conic and read off
    # the t-coefficients over the parameter field
    inst = load_instance(N8_CUBES)
    assert inst.alpha == 1
    Y, _ = generic_section(inst)
    f6 = _to_field(inst.f.extend_variables(6), Y.F.field)
    c1 = (Y.F - f6 * f6).exact_divide(
        MPoly.variable(5, 6, Y.F.field))
    gamma = list(_conic_polys(inst.conic)) + [MPoly.zero(1, QQ)]
    coeffs = _univariate_coeffs(_compose_poly(c1, gamma), 6)
    assert [Y.F.field.format(c) for c in coeffs] == block["obstruction"]
    # and the archived report replays
    assert run_cli(["replay", "--report", str(n8_obstruction["path"])]) == 0
    assert n8_obstruction["elapsed"] < 300.0
    print("criterion 7: PASS (exit 2, obstruction == c1 on the conic, "
          "%.1fs)" % n8_obstruction["elapsed"])


def test_criterion_8_replay_accepts_all_and_rejects_mutations(
        p5, n8_certify, n8_obstruction, stereo_cert):
    t0 = perf_counter()
    docs = [p5["onq"], p5["onc"], p5["dom"],
            stereo_cert] + list(n8_certify["doc"]["certificates"])
    kinds = [replay_certificate(json.loads(json.dumps(d))) for d in docs]
    assert sorted(set(kinds)) == ["dominance", "on-variety", "positivity",
                                  "smooth-mod-p"]
    assert run_cli(["replay", "--report", str(n8_certify["path"])]) == 0
    assert run_cli(["replay", "--report", str(n8_obstruction["path"])]) == 0

    def rejects(doc):
        with pytest.raises(ReplayRejected):
            replay_certificate(doc)

    # one minimal mutation per certificate kind
    m = json.loads(json.dumps(p5["onq"]))
    F = parse_poly(m["F"], nvars=m["nvars"])
    e0 = sorted(F.terms)[0]
    m["F"] = format_poly(F + MPoly(F.nvars, QQ, {e0: Fraction(1)}))
    rejects(m)

    m = json.loads(json.dumps(stereo_cert))
    h = m["expansion_hash"]
    m["expansion_hash"] = ("1" if h[0] == "0" else "0") + h[1:]
    rejects(m)

    m = json.loads(json.dumps(p5["dom"]))
    m["rank"] ^= 1
    rejects(m)

    m = json.loads(json.dumps(n8_certify["doc"]["certificates"][0]))
    d0 = Fraction(m["diagonal"]["0"])
    m["diagonal"]["0"] = str(d0 - Fraction(1, d0.denominator))
    rejects(m)

    m = json.loads(json.dumps(n8_certify["doc"]["certificates"][1]))
    h = m["partials_hash"]
    m["partials_hash"] = ("1" if h[0] == "0" else "0") + h[1:]
    rejects(m)

    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 8: PASS (%d certificates replayed, 5 mutations "
          "rejected, %.1fs)" % (len(docs), elapsed))
