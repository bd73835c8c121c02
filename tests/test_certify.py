import copy
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from unirat import certify, groebner
from unirat.certify import (
    AbsorptionFails,
    IdentityFails,
    NotEmptyModP,
    RankDeficient,
    ReplayRejected,
    check_dominant,
    check_on_variety,
    certify_obstruction,
    certify_positive_on_hyperplane,
    certify_smooth_mod_p,
    replay_certificate,
    singular_dimension_experiment,
)
from unirat.certify import _partials_fingerprint, _trial_partials
from unirat.exactcore import QQ, BadPrime
from unirat.geom import stereographic_param
from unirat.groebner import DegreeCeilingExceeded
from unirat.mpoly import MPoly, parse_poly
from unirat.pipeline import (
    QuarticInstance,
    build_real_example,
    circle_conic,
    load_instance,
    parametrize_Y4,
    run_pass,
    sphere_form,
)
from unirat.slp import SlpBuilder, SlpMap

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def sphere_slp():
    f = sphere_form()
    return f, stereographic_param(f, [1, 0, 0, 0, 1], [1, 0, 0, 0, 0])


def good_quartic():
    f6 = sphere_form().extend_variables(6)
    x0, x2, x5 = (MPoly.variable(i, 6, QQ) for i in (0, 2, 5))
    return QuarticInstance(n=5, F=f6 * f6 + x5 * x0 ** 2 * x2, f=sphere_form())


# -- on-variety ----------------------------------------------------------------


def test_on_variety_symbolic_sphere():
    f, sph = sphere_slp()
    cert = check_on_variety(sph, f)
    assert cert["mode"] == "symbolic"
    assert cert["tracked_degree"] == 4
    assert cert["expansion_hash"] == hashlib.sha256(b"0").hexdigest()
    assert replay_certificate(cert) == "on-variety"


def test_on_variety_randomized_quartic():
    Y = good_quartic()
    psi = parametrize_Y4(Y, seed=0)
    cert = check_on_variety(psi, Y.F, seed=0)
    assert cert["mode"] == "randomized"
    assert cert["tracked_degree"] == 248  # 4 * max SLP degree bound
    assert cert["points"] == 2 and cert["coordinate_bound"] == str(2 ** 40)
    bound = Fraction(cert["per_point_bound"])
    assert bound == Fraction(248, 2 ** 41 + 1)
    # the fewest points the bound allows
    assert bound ** cert["points"] < Fraction(1, 2 ** 64)
    assert bound ** (cert["points"] - 1) >= Fraction(1, 2 ** 64)
    assert replay_certificate(cert) == "on-variety"


def test_on_variety_replay_takes_the_stored_point_count():
    # documents written with a fixed 20 points still replay; one point is
    # below the confidence target, so such a document is rejected
    Y = good_quartic()
    psi = parametrize_Y4(Y, seed=0)
    doc = roundtrip(check_on_variety(psi, Y.F, seed=0, points=20))
    assert doc["points"] == 20
    assert replay_certificate(doc) == "on-variety"
    with pytest.raises(ReplayRejected, match="give less than 64 bits"):
        replay_certificate(dict(doc, points=1))


def test_on_variety_rejects_low_confidence():
    Y = good_quartic()
    psi = parametrize_Y4(Y, seed=0)
    with pytest.raises(ValueError):
        check_on_variety(psi, Y.F, points=1)
    with pytest.raises(ValueError):  # arity mismatch
        check_on_variety(psi, sphere_form())


def test_on_variety_corrupted_constant_fails():
    Y = good_quartic()
    doc = copy.deepcopy(parametrize_Y4(Y, seed=0).to_json())
    for node in doc["phi"]["nodes"] if "phi" in doc else doc["nodes"]:
        if node["op"] == "const" and node["value"] != "0":
            node["value"] = "31337"
            break
    bad = SlpMap.from_json(doc)
    with pytest.raises(IdentityFails):
        check_on_variety(bad, Y.F, seed=0)


def test_on_variety_symbolic_disproof_carries_a_point():
    f, sph = sphere_slp()
    g = f + MPoly.variable(0, 5, QQ) ** 2
    with pytest.raises(IdentityFails) as err:
        check_on_variety(sph, g)
    assert err.value.value != 0


@pytest.fixture(scope="module")
def reverse_p5_runs():
    H = load_instance(INSTANCES / "reverse_p5.json")
    return H, {seed: run_pass(H, seed=seed) for seed in (0, 1, 2)}


def x(i, n=6):
    return MPoly.variable(i, n, QQ)


def const(c, n=6):
    return MPoly.const(n, Fraction(c), QQ)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_values_on_integers_agree_with_fractions(reverse_p5_runs, seed):
    # the oracle is the Fraction evaluation F.evaluate(phi.eval(pt)): at the
    # points check_on_variety draws and at points with denominators, for
    # the three on-variety checks of parametrize (q and c of the sweep, F of
    # the final program), a non-homogeneous F and a tampered F
    H, runs = reverse_p5_runs
    run = runs[seed]
    F = H.F
    bump = F + x(0) ** 3 * x(5) * const(Fraction(1, 7))
    checks = [(run.phi, run.ci.q), (run.phi, run.ci.c), (run.program, F),
              (run.program, F * (x(0) + const(1))), (run.program, bump),
              (run.program, bump - const(Fraction(2, 3)) * x(1) ** 2 + const(5))]
    for phi, G in checks:
        form = certify._integer_form(G)
        rng = random.Random(seed)
        points = [[Fraction(rng.randint(-2 ** 40, 2 ** 40)) for _ in range(4)]
                  for _ in range(2)]
        points += [[Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                    for _ in range(4)] for _ in range(2)]
        for pt in points:
            assert certify._value_on_image(form, phi, pt) == G.evaluate(phi.eval(pt))
    check_on_variety(run.program, F * (x(0) + const(1)), seed=seed)


def test_a_tampered_quartic_fails_with_the_fraction_value(reverse_p5_runs):
    H, runs = reverse_p5_runs
    program = runs[0].program
    bad = H.F + x(0) ** 4 * const(Fraction(1, 3))
    with pytest.raises(IdentityFails) as err:
        check_on_variety(program, bad, seed=0)
    # the first point check_on_variety draws
    rng = random.Random(0)
    pt = [Fraction(rng.randint(-2 ** 40, 2 ** 40)) for _ in range(4)]
    want = bad.evaluate(program.eval(pt))
    assert want != 0
    assert err.value.point == [str(c) for c in pt]
    assert type(err.value.value) is Fraction and err.value.value == want
    assert str(err.value) == "the identity fails at %r" % ([str(c) for c in pt],)


# -- dominance -----------------------------------------------------------------


def test_dominant_sphere_and_quartic():
    f, sph = sphere_slp()
    cert = check_dominant(sph, 3, seed=0)
    assert cert["rank"] == 3 and cert["target_dim"] == 3
    assert replay_certificate(cert) == "dominance"
    Y = good_quartic()
    psi = parametrize_Y4(Y, seed=0)
    cert = check_dominant(psi, 4, seed=0)
    assert cert["rank"] == 4 and cert["chart"] == 0
    assert cert["witness"] == ["3/4", "-8/3", "7/4", "1"]
    assert replay_certificate(cert) == "dominance"


def test_dominant_constant_map_is_rank_deficient():
    b = SlpBuilder(1)
    slp = b.finish([b.const(5)])
    with pytest.raises(RankDeficient) as err:
        check_dominant(slp, 1)
    assert err.value.rank == 0


def test_dominant_skips_witnesses_where_the_chart_vanishes():
    b = SlpBuilder(1)
    x = b.inputs[0]
    slp = b.finish([x - x, x], chart=0)  # the chart coordinate is always 0
    with pytest.raises(RankDeficient):
        check_dominant(slp, 1)


def test_dominance_replay_names_a_vanishing_chart():
    b = SlpBuilder(1)
    x = b.inputs[0]
    doc = check_dominant(b.finish([x, x * x + 1], chart=0), 1)
    assert replay_certificate(doc) == "dominance"
    doc["witness"] = ["0"]
    with pytest.raises(ReplayRejected, match="chart coordinate vanishes"):
        replay_certificate(doc)


def test_dominance_without_a_chart_ranks_the_first_nonzero_chart():
    # the sphere's stereographic map with no chart: its raw Jacobian ranks
    # the affine cone over the threefold, 4; the chart map ranks it, 3
    _, sph = sphere_slp()
    cone = sph.slice(sph.outputs)
    assert cone.chart is None
    cert = check_dominant(cone, 3, seed=0)
    assert cert["rank"] == 3 and cert["chart"] is None
    assert replay_certificate(roundtrip(cert)) == "dominance"
    with pytest.raises(RankDeficient) as err:
        check_dominant(cone, 4, seed=0)
    assert err.value.rank == 3
    # a witness at which every output vanishes mod p has no chart
    b = SlpBuilder(1)
    t = b.inputs[0]
    doc = check_dominant(b.finish([t, t * t]), 1)
    assert replay_certificate(doc) == "dominance"
    doc["witness"] = ["0"]
    with pytest.raises(ReplayRejected, match="chart coordinate vanishes"):
        replay_certificate(doc)


def test_dominant_rejects_an_overshooting_target():
    f, sph = sphere_slp()
    with pytest.raises(ValueError):
        check_dominant(sph, 2, seed=0)  # actual rank 3 exceeds the claim


# -- smoothness mod p ----------------------------------------------------------


def fermat9():
    return sum((MPoly.variable(i, 9, QQ) ** 4 for i in range(9)),
               MPoly.zero(9, QQ))


def test_smooth_fermat():
    cert = certify_smooth_mod_p(fermat9(), 10007)
    assert cert["basis_size"] == 9
    assert cert["pure_powers"] == {str(i): 3 for i in range(9)}
    assert replay_certificate(cert) == "smooth-mod-p"


def test_search_order_ranks_the_variables_in_fewest_terms_first():
    assert certify._search_order(fermat9()) == list(range(9))
    n8 = build_real_example(n=8, epsilon=Fraction(1, 16), seed=0, preset="cubes")
    assert certify._search_order(n8.F) == [5, 6, 7, 8, 4, 0, 1, 2, 3]
    # x0 and x2 lie in two terms each, x1 in one: the tie goes by index
    F = parse_poly("x0^4 + x1^4 + x2^4 + x0^3*x2", nvars=3)
    assert certify._search_order(F) == [1, 0, 2]


def test_smooth_pure_powers_match_sympy_in_the_stored_order():
    import sympy as sp

    text = ("x0^4 + x1^4 + x2^4 + x3^4 + x0^3*x1 + x0*x2^3 + 2*x0*x1^2*x2"
            " + x0^2*x3^2 - x1*x2*x3^2")
    p = 10007
    cert = certify_smooth_mod_p(parse_poly(text, nvars=4), p)
    order = cert["order"]
    assert order == [3, 1, 2, 0]
    # the least pure power of each variable in the initial ideal, read off
    # sympy's reduced grevlex basis with the gens ranked in the stored order
    xs = sp.symbols("x0:4")
    F = sp.sympify(text.replace("^", "**"), locals={str(x): x for x in xs})
    G = sp.groebner([sp.diff(F, x) for x in xs], *[xs[v] for v in order],
                    modulus=p, order="grevlex")
    least = {}
    for P in G.polys:
        lead = P.monoms(order="grevlex")[0]
        support = [i for i, a in enumerate(lead) if a]
        if len(support) == 1:
            v = str(order[support[0]])
            least[v] = min(least.get(v, lead[support[0]]), lead[support[0]])
    assert cert["pure_powers"] == least == {"0": 9, "1": 3, "2": 5, "3": 3}
    assert cert["stats"]["pure_power_degrees"] == cert["pure_powers"]
    assert replay_certificate(roundtrip(cert)) == "smooth-mod-p"


def test_smooth_certificate_never_builds_the_reduced_basis(monkeypatch):
    calls = [0]
    inner = groebner._normal_form

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(groebner, "_normal_form", counted)
    cert = certify_smooth_mod_p(fermat9(), 10007)
    # one normal form per partial; the pure cubes are coprime, so no pair is
    # processed, and no tail is inter-reduced
    assert cert["stats"]["s_pairs_processed"] == 0
    assert calls[0] == 9


def test_smooth_doubled_surface_is_inconclusive():
    H0 = build_real_example(n=8, epsilon=Fraction(0), seed=0, preset="cubes")
    with pytest.raises(NotEmptyModP) as err:
        certify_smooth_mod_p(H0.F, 10007)
    assert "projective dimension 3" in str(err.value)


def test_smooth_bad_primes():
    with pytest.raises(BadPrime):
        certify_smooth_mod_p(fermat9(), 2)
    with pytest.raises(BadPrime):
        certify_smooth_mod_p(fermat9(), 9)
    x0, x1 = (MPoly.variable(i, 2, QQ) for i in range(2))
    with pytest.raises(BadPrime):  # denominator hit
        certify_smooth_mod_p(x0 ** 4 + (x1 ** 4).scale(Fraction(1, 3)), 3)
    with pytest.raises(BadPrime):  # content of F
        certify_smooth_mod_p((x0 ** 4 + x1 ** 4).scale(3), 3)
    with pytest.raises(BadPrime):  # content of a partial
        certify_smooth_mod_p(x0 ** 4 + (x0 * x1 ** 3).scale(3), 3)
    with pytest.raises(NotEmptyModP):  # absent variable: e1 is singular
        certify_smooth_mod_p(x0 ** 4, 10007)


def test_smooth_degree_ceiling_propagates():
    H0 = build_real_example(n=8, epsilon=Fraction(0), seed=0, preset="cubes")
    with pytest.raises((DegreeCeilingExceeded, NotEmptyModP)):
        certify_smooth_mod_p(H0.F, 10007, degree_ceiling=3)


# -- positivity ----------------------------------------------------------------


def test_positivity_single_absorption():
    R = parse_poly("x0^4 - x0^3*x1 + x1^4", nvars=3)
    cert = certify_positive_on_hyperplane(R, chart=2)
    assert cert["diagonal"] == {"0": "1/4", "1": "3/4"}
    assert len(cert["absorptions"]) == 1 and not cert["blocks"]
    assert replay_certificate(cert) == "positivity"


def test_positivity_margin_exhausted():
    R = parse_poly("x0^4 - 3*x0^3*x1 + x1^4", nvars=3)
    with pytest.raises(AbsorptionFails) as err:
        certify_positive_on_hyperplane(R, chart=2)
    assert err.value.variable == 0
    assert err.value.budget == Fraction(-5, 4)  # 1 - 3*(3/4)


def test_positivity_unperturbed_example():
    H0 = build_real_example(n=8, epsilon=Fraction(0), seed=0, preset="cubes")
    cert = certify_positive_on_hyperplane(H0.F, chart=4)
    assert cert["diagonal"] == {str(i): "1" for i in range(9) if i != 4}
    assert len(cert["blocks"]) == 6  # the cross terms 2 x_i^2 x_j^2
    assert not cert["absorptions"]


def test_positivity_perturbed_example():
    H = build_real_example(n=8, epsilon=Fraction(1, 16), seed=0, preset="cubes")
    cert = certify_positive_on_hyperplane(H.F, chart=4)
    want = {str(i): "61/64" for i in range(4)}
    want.update({str(i): "63/64" for i in range(5, 9)})
    assert cert["diagonal"] == want
    assert len(cert["absorptions"]) == 4
    assert replay_certificate(cert) == "positivity"


def test_positivity_rejects_non_quartics():
    with pytest.raises(ValueError):
        certify_positive_on_hyperplane(sphere_form(), chart=4)
    with pytest.raises(ValueError):  # restriction must not vanish
        q = MPoly.variable(0, 2, QQ) * MPoly.variable(1, 2, QQ) ** 3
        certify_positive_on_hyperplane(q, chart=0)


# -- the experiment harness ------------------------------------------------------


def test_experiment_desk_configuration():
    rep = singular_dimension_experiment(trials=8, seed=0)
    assert rep["predicted_dimension"] == -1
    assert rep["dimension_counts"] == {"-1": 8}
    assert rep["matches"] == 8 and rep["ceiling_exceeded"] == 0


def test_experiment_identity_case():
    rep = singular_dimension_experiment(k=0, trials=5)
    assert rep["trials"] == 1  # nothing random to repeat
    assert rep["predicted_dimension"] == 1
    assert rep["dimension_counts"] == {"1": 1}


@pytest.mark.parametrize("t, digest", [
    (0, "f0410216aeea04dda6a306b1a3fd02c2f66f1d57b741335289a25c69fe4a4ca3"),
    (1, "8f27e8bea187e30c91975383338c5306fc032df4fe13b99ac7062d8468f5befe"),
    (2, "1977917579146d78375d029c2662ab746ed67243b4f647975468bcd5389045e9"),
])
def test_trial_partials_are_pinned(t, digest):
    # the seeded draws run over the monomials in one fixed order, so the
    # partials of each (2, 2) trial stay the same
    assert _partials_fingerprint(_trial_partials(2, 2, 10007, 0, t)) == digest


def test_experiment_rejects_large_parameters():
    with pytest.raises(ValueError):
        singular_dimension_experiment(N=6)


# -- replay hostility ------------------------------------------------------------


def roundtrip(doc):
    return json.loads(json.dumps(doc))


def obstruction_block():
    # F = f^2 + x5 * x0^3: x0^3 restricted to the circle never vanishes
    f6 = sphere_form().extend_variables(6)
    x0, x5 = (MPoly.variable(i, 6, QQ) for i in (0, 5))
    Y = QuarticInstance(n=5, F=f6 * f6 + x5 * x0 ** 3, f=sphere_form())
    conic = circle_conic()
    return certify_obstruction(Y, conic, run_pass(Y, conic))


def test_replay_rejects_mutations():
    f, sph = sphere_slp()
    docs = {
        "on-variety": check_on_variety(sph, f),
        "dominance": check_dominant(sph, 3, seed=0),
        "smooth-mod-p": certify_smooth_mod_p(fermat9(), 10007),
        "positivity": certify_positive_on_hyperplane(
            build_real_example(n=8, epsilon=Fraction(1, 16), seed=0,
                               preset="cubes").F, chart=4),
        "obstruction": obstruction_block(),
    }
    for kind, doc in docs.items():
        assert replay_certificate(roundtrip(doc)) == kind == doc["kind"]

    tampered = set()

    def rejects(kind, tamper):
        bad = roundtrip(docs[kind])
        tamper(bad)
        with pytest.raises(ReplayRejected):
            replay_certificate(bad)
        tampered.add(kind)

    rejects("on-variety", lambda d: d.update(F=d["F"].replace("x0^2", "x0*x1", 1)))
    rejects("dominance", lambda d: d.update(rank=d["rank"] - 1))
    rejects("smooth-mod-p",
            lambda d: d.update(F=d["F"].replace("x8^4", "x8^3*x0", 1)))
    rejects("smooth-mod-p", lambda d: d["pure_powers"].pop("0"))
    rejects("smooth-mod-p", lambda d: d["order"].pop())
    rejects("smooth-mod-p", lambda d: d["stats"].update(basis_size=8))
    rejects("smooth-mod-p", lambda d: d.update(version=1))  # v1 has no order
    # single coefficient nudge
    rejects("positivity", lambda d: d["diagonal"].update({"0": "60/64"}))
    rejects("positivity", lambda d: d["absorptions"][0].update(scale="2"))
    rejects("obstruction", lambda d: d.update(quadrics_through_cone=[9, 8]))
    rejects("obstruction", lambda d: d.update(solution_dim=8))
    rejects("obstruction", lambda d: d.update(alpha="2"))
    rejects("obstruction", lambda d: d.update(f=d["f"].replace("x0^2", "2*x0^2")))
    # every kind replay knows has a round trip and a rejected tamper above
    assert set(docs) == tampered == set(certify._REPLAYERS)

    with pytest.raises(ReplayRejected):
        replay_certificate({"kind": "on-variety", "version": 2})
    with pytest.raises(ReplayRejected):
        replay_certificate({"no": "kind"})
    with pytest.raises(ReplayRejected):
        replay_certificate({"kind": "weird", "version": 1})


def nudged(value):
    """Another JSON value of the same type."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if isinstance(value, dict):
        first = next(iter(value))
        return dict(value, **{first: nudged(value[first])})
    return [nudged(value[0])] + value[1:]


def test_replay_rebuilds_every_derived_field():
    # every field a rebuilt kind derives from its inputs is compared: changing
    # or removing any one of them is rejected
    f, sph = sphere_slp()
    Y = good_quartic()
    psi = parametrize_Y4(Y, seed=0)
    H = build_real_example(n=6, preset="cubes")
    cases = [
        (check_on_variety(sph, f), {"phi", "F"}),
        (check_on_variety(psi, Y.F, seed=0), {"phi", "F", "seed", "points"}),
        (check_dominant(psi, 4, seed=0), {"phi", "witness"}),
        (certify_obstruction(H, H.conic, run_pass(H)),
         {"F", "f", "alpha", "conic"}),
        (certify_positive_on_hyperplane(
            build_real_example(n=8, preset="cubes").F, chart=4),
         {"R", "chart", "nvars"}),
    ]
    assert [doc.get("mode") for doc, _ in cases[:2]] == ["symbolic", "randomized"]
    for doc, inputs in cases:
        doc = roundtrip(doc)
        assert replay_certificate(doc) == doc["kind"]
        for key in sorted(set(doc) - inputs):
            missing = {k: v for k, v in doc.items() if k != key}
            for bad in (dict(doc, **{key: nudged(doc[key])}), missing):
                with pytest.raises(ReplayRejected):
                    replay_certificate(bad)
    # the absorptions sum to R in any order, but only one order is rebuilt
    pos = roundtrip(cases[-1][0])
    with pytest.raises(ReplayRejected):
        replay_certificate(dict(pos, absorptions=pos["absorptions"][::-1]))
