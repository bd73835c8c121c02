import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirat.exactcore import QQ, ExactMatrix, PrimeField, det_fraction_free
from unirat.mpoly import (
    CharacteristicTwoError,
    MPoly,
    NotDivisible,
    ParameterRing,
    format_poly,
    gram_matrix,
    monomials,
    parse_poly,
)


def sphere(nvars=5):
    """x0^2+x1^2+x2^2+x3^2-x4^2, the running quadric of the whole package."""
    return parse_poly("x0^2+x1^2+x2^2+x3^2-x4^2", nvars=nvars)


def random_poly(rng, nvars, deg, field=QQ, nterms=6):
    pairs = []
    for _ in range(nterms):
        exp = [0] * nvars
        for _ in range(deg):
            exp[rng.randrange(nvars)] += 1
        pairs.append((tuple(exp), field.coerce(rng.randint(-4, 4))))
    return MPoly.from_terms(nvars, pairs, field)


# --- arithmetic and evaluation ----------------------------------------------


def test_evaluate_sphere_on_and_off():
    f = sphere()
    assert f.evaluate([1, 0, 0, 0, 1]) == 0
    assert f.evaluate([1, 0, 0, 0, 0]) == 1
    assert f.evaluate([Fraction(3, 5), Fraction(4, 5), 0, 0, 1]) == 0


def test_add_mul_agree_with_pointwise(seed=3):
    rng = random.Random(seed)
    for _ in range(15):
        a = random_poly(rng, 3, 2)
        b = random_poly(rng, 3, 3)
        pt = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)


def test_zero_coefficients_never_stored():
    p = parse_poly("x0+x1") - parse_poly("x0", nvars=2)
    assert set(p.terms) == {(0, 1)}
    q = p - parse_poly("x1", nvars=2)
    assert q.terms == {} and q.is_zero()


# --- exact division ----------------------------------------------------------


def test_exact_divide_difference_of_squares():
    num = parse_poly("x0^2-x1^2")
    den = parse_poly("x0-x1")
    assert num.exact_divide(den) == parse_poly("x0+x1")


def test_exact_divide_cone_slice():
    f = sphere(6)
    f5 = f * f + parse_poly("x5", nvars=6) * parse_poly("x0^3", nvars=6)
    c1 = (f5 - f * f).exact_divide(parse_poly("x5", nvars=6))
    assert c1 == parse_poly("x0^3", nvars=6)


def test_exact_divide_rejects_remainder():
    with pytest.raises(NotDivisible):
        parse_poly("x0^2+x1").exact_divide(parse_poly("x0-x1"))


def test_exact_divide_roundtrip_random():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng, 3, 2)
        d = random_poly(rng, 3, 1)
        if d.is_zero():
            continue
        assert (p * d).exact_divide(d) == p


# --- line restriction, derivatives, substitution ------------------------------


def test_restrict_to_line_frozen():
    # p = x0*x1 along base e0, direction e1: p(e0 + tau e1) = tau
    p = parse_poly("x0*x1")
    coeffs = p.restrict_to_line([Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)])
    assert coeffs == [Fraction(0), Fraction(1), Fraction(0)]


def test_restrict_to_line_matches_evaluation():
    rng = random.Random(21)
    for _ in range(10):
        p = random_poly(rng, 4, 3)
        base = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        dire = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        coeffs = p.restrict_to_line(base, dire)
        for tau in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
            pt = [b + tau * d for b, d in zip(base, dire)]
            expect = sum(c * tau**k for k, c in enumerate(coeffs))
            assert p.evaluate(pt) == expect


def test_partial_derivative_frozen():
    f = sphere()
    assert f.partial_derivative(4) == parse_poly("-2*x4", nvars=5)
    assert MPoly.const(3, 7).partial_derivative(0).is_zero()


def test_euler_identity_quartic():
    f = sphere()
    F = f * f
    lhs = MPoly.zero(5, QQ)
    for i in range(5):
        lhs = lhs + MPoly.variable(i, 5) * F.partial_derivative(i)
    assert lhs == F.scale(4)


# --- gram matrices ------------------------------------------------------------


def test_gram_of_sphere():
    g = gram_matrix(sphere())
    expect = [[0] * 5 for _ in range(5)]
    for i in range(4):
        expect[i][i] = 1
    expect[4][4] = -1
    assert g == ExactMatrix(QQ, expect)


def test_gram_of_cross_term():
    g = gram_matrix(parse_poly("x0*x1"))
    assert g == ExactMatrix(QQ, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])


def test_gram_roundtrip_random():
    rng = random.Random(41)
    for _ in range(10):
        q = random_poly(rng, 4, 2)
        q = MPoly.from_terms(
            4, [(e, c) for e, c in q.terms.items() if sum(e) == 2], QQ
        )
        if q.is_zero():
            continue
        g = gram_matrix(q)
        pt = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        gx = [sum(a * b for a, b in zip(row, pt)) for row in g.rows]
        assert sum(a * b for a, b in zip(pt, gx)) == q.evaluate(pt)


def test_gram_char2_rejected():
    with pytest.raises(Exception):
        F = PrimeField(2)  # already rejected as BadPrime
    # simulate characteristic 2 refusal through the dedicated error
    class Char2Stub:
        characteristic = 2

    from unirat import mpoly

    stub = MPoly(2, Char2Stub(), {(1, 1): 1})
    with pytest.raises(CharacteristicTwoError):
        gram_matrix(stub)


# --- monomials ------------------------------------------------------------------


def test_monomials_are_the_sorted_exponents_of_one_degree():
    # oracle: filter every exponent vector with entries up to the degree
    import itertools
    for nvars in range(1, 9):
        for degree in range(5):
            want = sorted(e for e in itertools.product(range(degree + 1), repeat=nvars)
                          if sum(e) == degree)
            assert monomials(nvars, degree) == want


# --- parser / formatter ---------------------------------------------------------


def test_parse_format_roundtrip():
    rng = random.Random(51)
    for _ in range(20):
        p = random_poly(rng, 4, 3)
        assert parse_poly(format_poly(p), nvars=4) == p


def test_parse_fraction_coefficients_and_whitespace():
    p = parse_poly(" 1/2 * x0^2  - 3 * x1 + 2 ")
    assert p.coefficient((2, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 1)) == -3
    assert p.coefficient((0, 0)) == 2


def test_parse_other_families():
    p = parse_poly("t0^2-1", family="t")
    assert p.nvars == 1
    q = parse_poly("b0*b2", family="b", nvars=3)
    assert q.coefficient((1, 0, 1)) == 1


def test_parse_malformed():
    for bad in ("", "x0++x1", "x0*", "*x1", "x-1", "1/0*x0"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_format_leading_term_order_is_grevlex():
    # x1^2 beats x0*x2 in grevlex (ties break on the last variable, smaller wins)
    p = parse_poly("x0*x2+x1^2")
    assert format_poly(p).startswith("x1^2")


# --- prime field and parameter ring coefficients --------------------------------


def test_poly_over_prime_field():
    F = PrimeField(7)
    p = parse_poly("3*x0^2+4*x1", nvars=2, field=F)
    q = p + p
    assert q.coefficient((2, 0)) == F.coerce(6)
    assert (p * p).evaluate([F.coerce(1), F.coerce(1)]) == F.coerce(0)


def test_parameter_ring_divides_exactly():
    K = ParameterRing(["b0", "b1"])
    b0, b1 = MPoly.variable(0, K.nvars), MPoly.variable(1, K.nvars)
    assert (b0 * b0 - b1 * b1) / (b0 - b1) == b0 + b1
    assert (b0 * b1 + b1 * b1) / (b0 + b1) == b1
    assert (b0 * 2) / K.coerce(2) == b0
    assert (b0 * 2) / Fraction(2, 3) == b0 * 3
    with pytest.raises(ZeroDivisionError):
        b0 / K.zero


def test_parameter_ring_refuses_a_denominator():
    K = ParameterRing(["b0"])
    b0 = MPoly.variable(0, K.nvars)
    with pytest.raises(NotDivisible):
        K.one / (K.one + b0 * b0)
    with pytest.raises(NotDivisible):
        (b0 * b0 + K.one) / (b0 + K.one)


def test_parameter_ring_formats_each_name():
    K = ParameterRing(["b6", "b7"])
    b6, b7 = MPoly.variable(0, K.nvars), MPoly.variable(1, K.nvars)
    x = b6 * Fraction(3, 16) - b7 * Fraction(1, 4) - K.coerce(Fraction(1, 16))
    assert K.format(x) == "3/16*b6 - 1/4*b7 - 1/16"
    assert K.format(b6 * b7 ** 2 - b6) == "b6*b7^2 - b6"
    assert K.format(Fraction(-5, 2)) == "-5/2" and K.format(K.zero) == "0"
    assert repr(K) == "QQ[b6, b7]"
    # two-digit indices are renamed before their one-digit prefixes
    L = ParameterRing(["b%d" % i for i in range(6, 17)])
    assert L.format(MPoly.variable(10, L.nvars) + MPoly.variable(1, L.nvars)) \
        == "b7 + b16"


def test_parameter_ring_coefficients_section_style():
    K = ParameterRing(["b0"])
    b0 = MPoly.variable(0, K.nvars)
    p = MPoly.from_terms(2, [((1, 0), K.one), ((0, 1), b0)], K)
    assert p.evaluate([K.one, K.one]) == b0 + K.one
    # the Gram matrix needs 1/2 and Bareiss divides by earlier pivots,
    # both exact in QQ[b0]
    q = MPoly.from_terms(3, [((2, 0, 0), K.one), ((1, 1, 0), b0 * 2),
                             ((0, 0, 2), b0 - K.one), ((0, 2, 0), b0)], K)
    G = gram_matrix(q)
    assert G.entry(0, 1) == b0 and G.entry(1, 0) == b0
    assert det_fraction_free(G) == (b0 - b0 * b0) * (b0 - K.one)
    with pytest.raises(TypeError):
        K.coerce(MPoly.variable(0, 2, QQ))


def _ring_elements():
    coeff = st.integers(-6, 6)
    return st.tuples(coeff, coeff, coeff, coeff).map(
        lambda c: MPoly.from_terms(2, [((0, 0), c[0]), ((1, 0), c[1]),
                                       ((0, 1), c[2]), ((1, 1), c[3])]))


@settings(max_examples=40, deadline=None)
@given(_ring_elements(), _ring_elements(), _ring_elements())
def test_parameter_ring_axioms(x, y, z):
    K = ParameterRing(["b0", "b1"])
    x, y, z = K.coerce(x), K.coerce(y), K.coerce(z)
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + K.zero == x and x * K.one == x and x - x == K.zero
    if not K.is_zero(y):
        assert (x * y) / y == x
