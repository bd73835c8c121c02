import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirat.exactcore import (
    QQ,
    BadPrime,
    ExactMatrix,
    PrimeField,
    det_fraction_free,
    kernel_basis,
    rank,
)
from unirat.mpoly import parse_poly


# --- independent oracles, implemented before the library calls they check ---


def laplace_det(rows):
    """Cofactor expansion along the first row.  Exponential, fine for n <= 6."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * laplace_det(minor)
    return total


def naive_nullity(rows, ncols):
    """Plain Gaussian elimination without a pivot policy, just to count."""
    rows = [list(map(Fraction, r)) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return ncols - r


# --- kernel_basis -----------------------------------------------------------


def test_kernel_of_identity_is_empty():
    m = ExactMatrix(QQ, [[1, 0], [0, 1]])
    assert kernel_basis(m) == []


def test_kernel_single_row_frozen():
    m = ExactMatrix(QQ, [[1, 1, 0]])
    basis = kernel_basis(m)
    assert basis == [
        (Fraction(-1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_empty_matrix_standard_basis():
    m = ExactMatrix(QQ, [], ncols=3)
    basis = kernel_basis(m)
    assert len(basis) == 3
    assert basis[0] == (Fraction(1), Fraction(0), Fraction(0))


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)]
        m = ExactMatrix(QQ, rows)
        for v in kernel_basis(m):
            assert all(
                sum(Fraction(a) * b for a, b in zip(row, v)) == 0 for row in rows
            )


def test_rank_nullity_random():
    rng = random.Random(13)
    for _ in range(40):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        m = ExactMatrix(QQ, rows)
        assert rank(m) + len(kernel_basis(m)) == nc
        assert len(kernel_basis(m)) == naive_nullity(rows, nc)


# --- rank -------------------------------------------------------------------


def test_rank_frozen_cases():
    assert rank(ExactMatrix(QQ, [[0] * 3] * 3)) == 0
    assert rank(ExactMatrix(QQ, [[int(i == j) for j in range(4)]
                                 for i in range(4)])) == 4
    # Gram matrix of x0^2+x1^2+x2^2+x3^2-x4^2 is diag(1,1,1,1,-1)
    g = [[0] * 5 for _ in range(5)]
    for i in range(4):
        g[i][i] = 1
    g[4][4] = -1
    assert rank(ExactMatrix(QQ, g)) == 5


# --- determinant ------------------------------------------------------------


def test_det_signature_matrix():
    g = [[0] * 5 for _ in range(5)]
    for i in range(4):
        g[i][i] = 1
    g[4][4] = -1
    assert det_fraction_free(ExactMatrix(QQ, g)) == -1


def test_det_repeated_row_is_zero():
    m = ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det_fraction_free(m) == 0


def test_det_matches_laplace_oracle():
    rng = random.Random(99)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        m = ExactMatrix(QQ, rows)
        assert det_fraction_free(m) == laplace_det([list(map(Fraction, r)) for r in rows])


def test_det_integer_matrix_stays_integer():
    rng = random.Random(5)
    for _ in range(10):
        rows = [[rng.randint(-7, 7) for _ in range(5)] for _ in range(5)]
        d = det_fraction_free(ExactMatrix(QQ, rows))
        assert d.denominator == 1


# --- prime fields -----------------------------------------------------------


def test_prime_field_rejects_two_and_composites():
    with pytest.raises(BadPrime):
        PrimeField(2)
    with pytest.raises(BadPrime):
        PrimeField(10006)


def test_prime_field_rejects_bad_denominator():
    F = PrimeField(7)
    with pytest.raises(BadPrime):
        F.coerce(Fraction(1, 14))


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_axioms(a, b, c):
    F = PrimeField(10007)
    x, y, z = F.coerce(a), F.coerce(b), F.coerce(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if y.r != 0:
        assert (x / y) * y == x


def test_prime_field_kernel_matches_rational_shape():
    F = PrimeField(10007)
    m = ExactMatrix(F, [[1, 1, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert (v[0] + v[1]).r == 0 or v[0].r == 0


def test_fraction_canonical_forms():
    assert Fraction(2, -4) == Fraction(-1, 2)
    assert Fraction(2, -4).denominator == 2
    assert Fraction(0, 5).denominator == 1


def test_rational_polynomials_survive_pickling():
    # worker processes receive polynomials pickled; fields compare by identity
    assert pickle.loads(pickle.dumps(QQ)) is QQ
    F = parse_poly("x0^4 + 1/3*x1*x2^3", nvars=3)
    assert pickle.loads(pickle.dumps(F)) == F
