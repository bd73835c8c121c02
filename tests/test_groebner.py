import hashlib
import itertools
import math
import random

import pytest

from unirat import groebner
from unirat.certify import _trial_partials
from unirat.exactcore import PrimeField
from unirat.groebner import (
    DegreeCeilingExceeded,
    _hilbert_counts,
    _Ring,
    buchberger,
    homogeneous_dimension,
    projective_dimension,
    projective_empty,
)
from unirat.mpoly import MPoly, format_poly, grevlex_key, monomials, parse_poly

F = PrimeField(10007)


def P(text, nvars):
    return parse_poly(text, nvars=nvars, field=F)


def sphere_partials(nvars=5):
    f = parse_poly("x0^2+x1^2+x2^2+x3^2-x4^2", nvars=nvars, field=F)
    return [f.partial_derivative(i) for i in range(nvars)]


# --- naive reference implementation (test-local oracle) ----------------------


def naive_reduce(p, basis):
    changed = True
    while changed and not p.is_zero():
        changed = False
        for g in basis:
            if p.is_zero():
                break
            lt_g, lc_g = g.leading_term()
            for exp in sorted(p.terms, key=grevlex_key, reverse=True):
                q = tuple(a - b for a, b in zip(exp, lt_g))
                if all(e >= 0 for e in q):
                    coef = p.terms[exp] / lc_g
                    mono = MPoly(p.nvars, p.field, {q: coef})
                    p = p - mono * g
                    changed = True
                    break
    return p


def naive_spoly(f, g):
    lt_f, lc_f = f.leading_term()
    lt_g, lc_g = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(lt_f, lt_g))
    mf = MPoly(f.nvars, f.field, {tuple(a - b for a, b in zip(lcm, lt_f)): f.field.one / lc_f})
    mg = MPoly(g.nvars, g.field, {tuple(a - b for a, b in zip(lcm, lt_g)): g.field.one / lc_g})
    return mf * f - mg * g


def naive_groebner(gens):
    basis = [g for g in gens if not g.is_zero()]
    while True:
        new = []
        for f, g in itertools.combinations(basis, 2):
            r = naive_reduce(naive_spoly(f, g), basis + new)
            if not r.is_zero():
                new.append(r)
        if not new:
            break
        basis.extend(new)
    # minimal monic leading terms
    out = []
    for g in basis:
        lt_g, _ = g.leading_term()
        if any(
            all(a >= b for a, b in zip(lt_g, h.leading_term()[0]))
            for h in basis
            if h is not g and not (h.leading_term()[0] == lt_g and id(h) > id(g))
        ):
            continue
        out.append(g)
    return out


# --- frozen examples ----------------------------------------------------------


def test_already_a_basis():
    gb = buchberger([P("x0", 2), P("x1", 2)])
    assert sorted(format_poly(p) for p in gb.polys) == ["x0", "x1"]


def test_collapse_to_linear():
    gb = buchberger([P("x0^2-x1^2", 2), P("x0-x1", 2)])
    assert [format_poly(p) for p in gb.polys] == ["x0 + 10006*x1"]


def test_sphere_jacobian_is_irrelevant_ideal():
    gb = buchberger(sphere_partials())
    assert sorted(format_poly(p) for p in gb.polys) == ["x0", "x1", "x2", "x3", "x4"]
    assert projective_empty(gb)
    assert projective_dimension(gb) == -1


def test_fermat_quartic_smooth():
    gens = [P("x%d^3" % i, 5).scale(4) for i in range(5)]
    gb = buchberger(gens)
    assert projective_empty(gb)


def test_double_quadric_jacobian_dimension():
    f = parse_poly("x0^2+x1^2+x2^2+x3^2-x4^2", nvars=5, field=F)
    F2 = f * f
    gens = [F2.partial_derivative(i) for i in range(5)]
    gb = buchberger(gens)
    # singular locus of the double quadric is the quadric itself, a 3-fold
    assert projective_dimension(gb) == 3
    assert not projective_empty(gb)
    lts = {tuple(e) for e in gb.leading_exponents()}
    assert lts == {
        (3, 0, 0, 0, 0),
        (2, 1, 0, 0, 0),
        (2, 0, 1, 0, 0),
        (2, 0, 0, 1, 0),
        (2, 0, 0, 0, 1),
    }


def test_dimension_conventions():
    gb = buchberger([P("x0", 3)])
    assert homogeneous_dimension(gb) == 2
    assert projective_dimension(gb) == 1
    gb2 = buchberger([P("x0", 3), P("x1", 3), P("x2", 3)])
    assert homogeneous_dimension(gb2) == 0
    assert projective_dimension(gb2) == -1


def test_degree_ceiling_abandons():
    # x0^2 and x0*x1 share x0, first S-pair has degree 3
    with pytest.raises(DegreeCeilingExceeded):
        buchberger([P("x0^2", 2), P("x0*x1", 2)], degree_ceiling=2)


def test_early_stop_flag_is_sound():
    gens = [P("x%d^3" % i, 5) for i in range(5)]
    gb = buchberger(gens, stop_when_zero_dimensional=True)
    assert projective_empty(gb)


def test_determinism_under_permutation():
    gens = sphere_partials()
    a = buchberger(gens)
    b = buchberger(list(reversed(gens)))
    assert [format_poly(p) for p in a.polys] == [format_poly(p) for p in b.polys]


# --- oracle comparison and internal consistency --------------------------------


def random_homogeneous(rng, nvars, deg, nterms):
    pairs = []
    for _ in range(nterms):
        exp = [0] * nvars
        for _ in range(deg):
            exp[rng.randrange(nvars)] += 1
        c = rng.randint(1, 10006)
        pairs.append((tuple(exp), F.coerce(c)))
    return MPoly.from_terms(nvars, pairs, F)


def test_matches_naive_buchberger_on_small_ideals():
    rng = random.Random(2024)
    for trial in range(6):
        gens = [random_homogeneous(rng, 3, 2, 3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, degree_ceiling=30)
        ref = naive_groebner(gens)
        lib_lts = sorted(gb.leading_exponents())
        ref_lts = sorted({g.leading_term()[0] for g in ref})
        assert lib_lts == ref_lts, "trial %d" % trial
        # the reduced basis must reduce every reference element to zero
        for g in ref:
            assert naive_reduce(g, gb.polys).is_zero()


def test_every_spoly_of_result_reduces_to_zero():
    rng = random.Random(77)
    gens = [random_homogeneous(rng, 3, 2, 4) for _ in range(3)]
    gb = buchberger(gens, degree_ceiling=30)
    for f, g in itertools.combinations(gb.polys, 2):
        assert naive_reduce(naive_spoly(f, g), gb.polys).is_zero()


def test_generators_reduce_to_zero_against_basis():
    rng = random.Random(88)
    gens = [random_homogeneous(rng, 4, 3, 4) for _ in range(3)]
    gb = buchberger(gens, degree_ceiling=30)
    for g in gens:
        assert naive_reduce(g, gb.polys).is_zero()


def test_monotone_projective_empty():
    # adding a generator can flip empty from False to True, never back
    gens = [P("x0^2", 3), P("x1^2", 3)]
    gb1 = buchberger(gens)
    assert not projective_empty(gb1)
    gb2 = buchberger(gens + [P("x2^2", 3)])
    assert projective_empty(gb2)


# --- sympy as an independent oracle --------------------------------------------


def as_dicts(polys):
    """Monic polynomials as sorted {exponent: residue} dicts."""
    return sorted(({e: c.r for e, c in g.terms.items()} for g in polys),
                  key=lambda d: sorted(d))


def sympy_basis(gens):
    """The reduced grevlex basis of `gens` computed by sympy, in the same
    shape as `as_dicts`."""
    import sympy as sp

    p = gens[0].field.p
    xs = sp.symbols("x0:%d" % gens[0].nvars)
    G = sp.groebner([sp.Poly.from_dict({e: c.r for e, c in g.terms.items()},
                                       *xs, modulus=p) for g in gens],
                    *xs, modulus=p, order="grevlex")
    out = []
    for P in G.polys:
        inv = pow(int(P.LC(order="grevlex")) % p, p - 2, p)
        out.append({e: int(c) * inv % p for e, c in P.terms()})
    return sorted(out, key=lambda d: sorted(d))


def test_fermat_cubic_partials_match_sympy():
    f = P("x0^4+x1^4+x2^4+x3^4", 4)
    gens = [f.partial_derivative(i) for i in range(4)]
    gb = buchberger(gens)
    assert as_dicts(gb.polys) == sympy_basis(gens)
    # pure powers of distinct variables are coprime: no pair is processed
    assert gb.stats["s_pairs_processed"] == 0


def test_sphere_partials_match_sympy():
    gens = sphere_partials()
    assert as_dicts(buchberger(gens).polys) == sympy_basis(gens)


def test_experiment_jacobian_matches_sympy_and_counts_every_pair():
    gens = _trial_partials(2, 1, 10007, 3, 0)  # (N, k) = (2, 1)
    gb = buchberger(gens)
    assert as_dicts(gb.polys) == sympy_basis(gens)
    st = gb.stats
    # a complete run processes or skips every pair among the inserted
    # elements: the generators plus one per S-pair that did not reduce to 0
    inserted = len(gens) + st["s_pairs_processed"] - st["reductions_to_zero"]
    assert st["s_pairs_processed"] + st["s_pairs_skipped"] == math.comb(inserted, 2)


# elements found later, at lower degree, have leading terms that divide the
# degree-5 generator's; the pair each forms with it must still be processed
# although the generator then stops spawning pairs
MIXED_DEGREE = ("5601*x1^2 + 2118*x1*x2 + 775*x2^2", "8029*x0^2*x1 + 985*x1*x2^2",
                "7915*x0^3*x1^2*x2")
# criterion B must keep a queued pair whose lcm equals that of one of the new
# pairs; dropping it loses an element of this basis
CRITERION_B = ("6774*x0*x2 + 9084*x1*x2", "8823*x0*x1^3 + 7507*x1*x2^3",
               "2904*x0^2 + 4183*x0*x2 + 2962*x2^2")


def test_mixed_degree_ideal_matches_sympy():
    gens = [P(t, 3) for t in MIXED_DEGREE]
    assert as_dicts(buchberger(gens, degree_ceiling=30).polys) == sympy_basis(gens)


def test_criterion_b_spares_pairs_whose_lcm_a_new_pair_repeats():
    gens = [P(t, 3) for t in CRITERION_B]
    assert as_dicts(buchberger(gens, degree_ceiling=30).polys) == sympy_basis(gens)


def test_packed_lcm_matches_unpacked_max():
    # the row form `insert` uses: slot i of `quotients` is lcm(a_i, b) / b
    rng = random.Random(5)
    for nvars in range(1, 10):
        ring = _Ring(nvars)
        slot = (1 << ring.width) - 1
        for _ in range(20):
            exps = [[0] * nvars for _ in range(16)]
            for exp in exps:
                for _ in range(rng.randrange(64)):  # total degree <= 63
                    exp[rng.randrange(nvars)] += 1
            b = exps.pop()
            row = rep = 0
            for i, a in enumerate(exps):
                row |= (ring.pack(a) & ring.low_mask) << (ring.width * i)
                rep |= 1 << (ring.width * i)
            quo = ring.quotients(row, rep, ring.pack(b))
            got = [ring.pack(b) + ((quo >> (ring.width * i)) & slot)
                   for i in range(len(exps))]
            assert got == [ring.pack([max(x, y) for x, y in zip(a, b)]) for a in exps]
            assert quo >> (ring.width * len(exps)) == 0
        assert ring.quotients(0, 0, ring.pack(b)) == 0


def test_early_stop_reports_the_complete_pure_powers():
    gens = _trial_partials(2, 2, 10007, 6, 0)  # a smooth (2, 2) trial
    early = buchberger(gens, stop_when_zero_dimensional=True)
    full = buchberger(gens)
    assert early.stats["early_stop"] and not full.stats["early_stop"]
    assert early.stats["s_pairs_processed"] < full.stats["s_pairs_processed"]
    assert early.stats["pure_power_degrees"] == full.stats["pure_power_degrees"]
    assert projective_empty(early) and projective_empty(full)


# --- Hilbert-count closure and the lazy reduced basis ---------------------------


@pytest.fixture
def nf_calls(monkeypatch):
    """Counts the normal forms `buchberger` computes."""
    calls = [0]
    inner = groebner._normal_form

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(groebner, "_normal_form", counted)
    return calls


def closed_pairs(gens, gb, calls):
    """Pairs the Hilbert count closed: processed pairs that formed no normal
    form, given the normal forms of one run and no read of `polys`."""
    return len(gens) + gb.stats["s_pairs_processed"] - calls


def test_hilbert_count_closes_most_zero_reductions_of_a_smooth_trial(nf_calls):
    gens = _trial_partials(2, 2, 10007, 6, 0)  # five cubics, a regular sequence
    gb = buchberger(gens, stop_when_zero_dimensional=True)
    st = gb.stats
    assert (st["s_pairs_processed"], st["s_pairs_skipped"], st["reductions_to_zero"],
            st["basis_size"], st["max_degree"], st["early_stop"]) == (
        251, 2733, 178, 78, 11, True)
    # the count closes at least 150 of the 178 reductions to zero, and the
    # run forms no reduced basis
    assert nf_calls[0] <= 5 + 251 - 150
    assert closed_pairs(gens, gb, nf_calls[0]) == st["reductions_closed"]
    nf_calls[0] = 0
    full = buchberger(gens)
    st = full.stats
    assert (st["s_pairs_processed"], st["reductions_to_zero"]) == (270, 197)
    assert closed_pairs(gens, full, nf_calls[0]) == st["reductions_closed"] >= 150


def seeded_dense(rng, nvars, deg, skip=()):
    return MPoly.from_terms(nvars, [(e, F.coerce(rng.randint(1, 10006)))
                                    for e in monomials(nvars, deg) if e not in skip], F)


def closure_ideals():
    """(name, generators, whether the Hilbert count closes a degree, the
    projective dimension of the zero locus)."""
    rng = random.Random(31)
    regular = [seeded_dense(rng, 4, 2) for _ in range(3)]
    # four quadrics through the point (0:0:0:1): m = n but not regular
    common_zero = [seeded_dense(rng, 4, 2, skip={(0, 0, 0, 2)}) for _ in range(4)]
    # two cubics with a common linear factor next to two quadrics in P^4
    lin = seeded_dense(rng, 5, 1)
    common_factor = [lin * seeded_dense(rng, 5, 2), lin * seeded_dense(rng, 5, 2),
                     seeded_dense(rng, 5, 2), seeded_dense(rng, 5, 2)]
    # five quadrics in four variables: m > n, no bound to close against
    too_many = [seeded_dense(rng, 4, 2) for _ in range(5)]
    # seven forms in four variables whose count reads 7 in degree 8, where
    # the quotient is already 0: with m > n the count bounds nothing
    overshoot = [P(t, 4) for t in (
        "6744*x2^2", "9445*x0^2 + 1804*x0*x1", "574*x0^2*x1", "1070*x1^3*x3",
        "8571*x0 + 8872*x2", "6797*x0^2", "2974*x1^4 + 9248*x3^4")]
    return [("regular", regular, True, 0), ("common zero", common_zero, True, 0),
            ("common factor", common_factor, True, 1), ("m > n", too_many, False, -1),
            ("m > n, count above the quotient", overshoot, False, -1)]


@pytest.mark.parametrize("name, gens, closes, dim", closure_ideals(),
                         ids=[c[0] for c in closure_ideals()])
def test_closed_degrees_keep_the_sympy_basis(nf_calls, name, gens, closes, dim):
    gb = buchberger(gens, degree_ceiling=30)
    assert closed_pairs(gens, gb, nf_calls[0]) == gb.stats["reductions_closed"]
    assert (gb.stats["reductions_closed"] > 0) == closes
    assert projective_dimension(gb) == dim
    assert as_dicts(gb.polys) == sympy_basis(gens)


@pytest.mark.parametrize("nvars, degrees", [(3, [2, 2, 2]), (4, [3, 3, 3, 3]),
                                            (4, [1, 2, 3]), (5, [2, 4]), (2, [5])])
def test_hilbert_counts_are_the_pure_power_quotient(nvars, degrees):
    # (x_0^d_0, ..., x_{m-1}^d_{m-1}) is a regular sequence, so its standard
    # monomials in each degree number exactly c_d
    top = 14
    want = [sum(all(e[i] < d for i, d in enumerate(degrees))
                for e in monomials(nvars, deg)) for deg in range(top + 1)]
    assert _hilbert_counts(degrees, nvars, top) == want
    # the degree-by-degree standard sets `buchberger` keeps count the same
    ring = _Ring(nvars)
    powers = {ring.pack([d if j == i else 0 for j in range(nvars)])
              for i, d in enumerate(degrees)}
    standard = {0}
    for deg in range(1, top + 1):
        standard = ring.standard_above(standard) - powers
        assert len(standard) == want[deg]


# sha256 of `canonical(sympy_basis(gens))` for the smooth (2, 2) trial below;
# sympy takes about 45 s to recompute it
SMOOTH_TRIAL_SYMPY = "d573995f700a39f0ebb42fddc1345eeed9dbb250c0d9a454430d5b04580a4cb8"


def canonical(dicts):
    return repr(sorted(sorted(d.items()) for d in dicts))


@pytest.fixture(scope="module")
def closure_references():
    """(name, generators, dimension, sympy basis, pure powers) of each
    closure ideal, the pure powers from a run with the shipped order."""
    return [(name, gens, dim, sympy_basis(gens),
             buchberger(gens, degree_ceiling=30).stats["pure_power_degrees"])
            for name, gens, _, dim in closure_ideals()]


@pytest.mark.parametrize("rule", ["every pair", "no pair", "seeded coin", "signatures"])
def test_deferral_changes_only_the_pair_order(monkeypatch, closure_references, rule):
    # deferring a pair moves it behind the rest of its degree; which pairs
    # move must not change the basis, the dimension or the pure powers
    rng = random.Random(3)
    monkeypatch.setattr(groebner, "_defer", {
        "every pair": lambda *args: True,
        "no pair": lambda *args: False,
        "seeded coin": lambda *args: rng.random() < 0.5,
        "signatures": groebner._defer}[rule])
    for name, gens, dim, basis, powers in closure_references:
        gb = buchberger(gens, degree_ceiling=30)
        assert as_dicts(gb.polys) == basis, name
        assert projective_dimension(gb) == dim, name
        assert gb.stats["pure_power_degrees"] == powers, name
    gens = _trial_partials(2, 2, 10007, 6, 0)
    powers = {0: 3, 1: 3, 2: 6, 3: 6, 4: 11}
    full = buchberger(gens)
    digest = hashlib.sha256(canonical(as_dicts(full.polys)).encode()).hexdigest()
    assert digest == SMOOTH_TRIAL_SYMPY
    assert projective_dimension(full) == -1
    assert full.stats["pure_power_degrees"] == powers
    early = buchberger(gens, stop_when_zero_dimensional=True)
    assert projective_empty(early) and early.stats["early_stop"]
    assert early.stats["pure_power_degrees"] == powers


def test_polys_are_inter_reduced_on_first_read(nf_calls):
    gens = sphere_partials()
    gb = buchberger(gens)
    run_calls = nf_calls[0]
    assert len(gb) == gb.stats["basis_size"] == 5
    assert len(gb.polys) == len(gb)
    assert nf_calls[0] == run_calls + len(gb)  # one normal form per tail
    assert gb.polys is gb.polys and nf_calls[0] == run_calls + len(gb)


def test_inhomogeneous_generator_is_refused():
    with pytest.raises(ValueError, match="homogeneous"):
        buchberger([P("x0^2 - x1", 2)])


# --- the pair set, pinned -------------------------------------------------------


def random_mixed_ideals():
    """Six seeded ideals in 3-5 variables with generators of mixed degrees."""
    out = []
    for k, (nvars, degrees) in enumerate([(3, (2, 3, 4)), (3, (2, 2, 3, 5)),
                                          (4, (2, 3, 3)), (4, (2, 3, 3, 4)),
                                          (5, (2, 2, 3, 3)), (5, (1, 2, 2, 3, 4))]):
        rng = random.Random(1500 + k)
        out.append(("random %d" % k,
                    [random_homogeneous(rng, nvars, d, 5) for d in degrees]))
    return out


# the linear leading term x0 is coprime to every later one, so each later
# insert meets lt*x0, an lcm of degree d + 1 that the product criterion
# discards and that still rules out its multiples
LINEAR_GENERATOR = ("3*x0 + 5*x2 + x3", "x1^2 + 4*x1*x3 + 2*x2^2",
                    "x1*x2^2 + 6*x0*x3^2 + x2*x3^2", "x2^3*x3 + x1^4 + 9*x0*x1*x2*x3")
# x1^2*x2, the leading term of the degree-3 element from the first pair,
# divides x1^3*x2^2, so the degree-5 generator stops spawning pairs
LATE_DIVISOR = ("x0*x1 - x2^2", "x0^2 - x1*x2", "x1^3*x2^2 + x2^5")


def pinned_ideals():
    return ([(name, gens) for name, gens, _, _ in closure_ideals()]
            + [("mixed degree", [P(t, 3) for t in MIXED_DEGREE]),
               ("criterion B", [P(t, 3) for t in CRITERION_B]),
               ("linear generator", [P(t, 4) for t in LINEAR_GENERATOR]),
               ("late divisor", [P(t, 3) for t in LATE_DIVISOR])]
            + random_mixed_ideals())


def pair_stats(gb):
    st = gb.stats
    return tuple(st[k] for k in ("s_pairs_processed", "s_pairs_skipped",
                                 "reductions_to_zero", "reductions_closed",
                                 "basis_size", "max_degree"))


# (processed, skipped, reductions to zero, closed, basis size, max degree) at
# degree ceiling 30, from the pair update that scanned every queued pair for
# criterion B and every candidate lcm for criteria M and F; a faster update
# must keep exactly the same pairs
PAIR_STATS = {
    "regular": (8, 7, 5, 5, 6, 5),
    "common zero": (23, 32, 16, 7, 11, 5),
    "common factor": (28, 50, 19, 1, 13, 7),
    "m > n": (23, 32, 17, 0, 11, 4),
    "m > n, count above the quotient": (8, 13, 6, 0, 7, 8),
    "mixed degree": (11, 13, 6, 1, 7, 9),
    "criterion B": (8, 7, 5, 1, 6, 6),
    "linear generator": (14, 31, 8, 8, 10, 8),
    "late divisor": (4, 5, 2, 1, 4, 7),
    "random 0": (10, 11, 6, 1, 7, 7),
    "random 1": (9, 11, 6, 0, 6, 5),
    "random 2": (12, 16, 7, 7, 8, 7),
    "random 3": (50, 160, 33, 10, 21, 8),
    "random 4": (29, 49, 20, 19, 13, 9),
    "random 5": (38, 103, 25, 10, 17, 8),
}


@pytest.mark.parametrize("name, gens", pinned_ideals(),
                         ids=[name for name, _ in pinned_ideals()])
def test_pair_set_is_pinned(name, gens):
    gb = buchberger(gens, degree_ceiling=30)
    assert pair_stats(gb) == PAIR_STATS[name]
    assert as_dicts(gb.polys) == sympy_basis(gens)


def test_late_divisor_retires_a_generator():
    lts = buchberger([P(t, 3) for t in LATE_DIVISOR]).leading_exponents()
    assert (0, 2, 1) in lts and (0, 3, 2) not in lts
