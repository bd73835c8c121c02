"""Exact coefficient fields and exact dense linear algebra.

All computations downstream of this module are exact: rationals are
arbitrary-precision `fractions.Fraction`, prime fields are residues mod an
odd prime, and elimination never rounds.  The three operations that the
geometry layers lean on are `kernel_basis` (deterministic pivoting),
`rank`, and `det_fraction_free` (Bareiss).

A test that a rational is *nonzero* may run on its residue mod a prime,
since a value that is nonzero mod p is nonzero over QQ; `residue` maps a
rational into plain ints mod p, and P = 2^61 - 1 is the prime used for
that throughout.  A claim that something *is zero* stays exact.
"""

from __future__ import annotations

from fractions import Fraction


# the Mersenne prime 2^61 - 1: nonzero tests and dominance ranks run mod P
P = 2 ** 61 - 1


class BadPrime(ValueError):
    """Modulus is not an odd prime, or divides a denominator being reduced."""


def residue(x, p):
    """The int in [0, p) that the int or Fraction x reduces to mod the prime
    p; BadPrime, naming p and x, when p divides the denominator."""
    d = x.denominator
    if d == 1:
        return x.numerator % p
    if d % p == 0:
        raise BadPrime("p = %d divides the denominator of %s" % (p, x))
    return x.numerator * pow(d, -1, p) % p


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' into a Fraction; b = 0 is a ValueError, as any
    other text that is not a rational."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


class RationalField:
    """The field of rationals.  Elements are fractions.Fraction.

    Fraction already maintains the canonical form this package relies on:
    gcd-reduced, denominator positive, zero stored as 0/1.
    """

    characteristic = 0
    name = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return parse_rational(x)
        raise TypeError("cannot coerce %r into QQ" % (x,))

    def is_zero(self, x) -> bool:
        return x == 0

    def format(self, x) -> str:
        return format_rational(x)

    def __repr__(self):
        return "QQ"

    def __reduce__(self):
        # unpickle to the module's QQ, so fields still compare by identity
        return "QQ"


QQ = RationalField()


class PrimeFieldElem:
    """Residue mod an odd prime p.  Stored reduced to [0, p)."""

    __slots__ = ("r", "p")

    def __init__(self, r: int, p: int):
        self.r = r % p
        self.p = p

    def _check(self, other):
        if not isinstance(other, PrimeFieldElem) or other.p != self.p:
            raise TypeError("mixed-modulus arithmetic")
        return other

    def __add__(self, other):
        other = self._check(other)
        return PrimeFieldElem(self.r + other.r, self.p)

    def __sub__(self, other):
        other = self._check(other)
        return PrimeFieldElem(self.r - other.r, self.p)

    def __mul__(self, other):
        other = self._check(other)
        return PrimeFieldElem(self.r * other.r, self.p)

    def __truediv__(self, other):
        other = self._check(other)
        if other.r == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return PrimeFieldElem(self.r * pow(other.r, self.p - 2, self.p), self.p)

    def __pow__(self, e: int):
        if e < 0:
            return PrimeFieldElem(1, self.p) / self ** (-e)
        return PrimeFieldElem(pow(self.r, e, self.p), self.p)

    def __neg__(self):
        return PrimeFieldElem(-self.r, self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.r == other % self.p
        return (
            isinstance(other, PrimeFieldElem)
            and self.p == other.p
            and self.r == other.r
        )

    def __hash__(self):
        return hash((self.r, self.p))

    def __repr__(self):
        return "%d (mod %d)" % (self.r, self.p)


class PrimeField:
    """GF(p) for an odd prime p."""

    name = "GF"

    def __init__(self, p: int):
        if p == 2 or not _is_prime(p):
            raise BadPrime("modulus must be an odd prime, got %d" % p)
        self.p = p
        self.characteristic = p
        self.zero = PrimeFieldElem(0, p)
        self.one = PrimeFieldElem(1, p)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElem):
            if x.p != self.p:
                raise TypeError("element of GF(%d) fed to GF(%d)" % (x.p, self.p))
            return x
        if isinstance(x, (int, Fraction)):
            return PrimeFieldElem(residue(x, self.p), self.p)
        if isinstance(x, str):
            return self.coerce(parse_rational(x))
        raise TypeError("cannot coerce %r into GF(%d)" % (x, self.p))

    def is_zero(self, x) -> bool:
        return x.r == 0

    def format(self, x) -> str:
        return str(x.r)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


class ExactMatrix:
    """Dense matrix over an exact field, row-major."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [[field.coerce(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    def entry(self, i, j):
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in row) for row in self.rows
        )
        return "ExactMatrix[%s]" % body


def _rref(mat: ExactMatrix):
    """Reduced row echelon form.

    Pivot rule: sweep columns left to right, pick the first row (top to
    bottom among unused rows) with a nonzero entry.  Deterministic, so
    kernel bases are reproducible across runs.
    Returns (rows, pivot_columns).
    """
    f = mat.field
    rows = [list(r) for r in mat.rows]
    pivots = []
    r = 0
    for c in range(mat.ncols):
        sel = None
        for i in range(r, len(rows)):
            if not f.is_zero(rows[i][c]):
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not f.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat: ExactMatrix) -> int:
    _, pivots = _rref(mat)
    return len(pivots)


def rank_mod_p(rows, p: int) -> int:
    """Rank of a matrix of plain ints mod the prime p, by Gaussian
    elimination on a copy of its rows."""
    rows = [list(row) for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, p)
        pivot = [x * inv % p for x in rows[r]]
        for i in range(r + 1, len(rows)):
            factor = rows[i][c]
            if factor % p:
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], pivot)]
        r += 1
    return r


def kernel_basis(mat: ExactMatrix):
    """Basis of the right kernel as a list of coordinate tuples.

    Free column j contributes the vector with 1 in slot j and the solved
    pivot entries elsewhere; an empty matrix yields the standard basis.
    The count always equals ncols - rank.
    """
    f = mat.field
    if mat.nrows == 0:
        n = mat.ncols
        return [
            tuple(f.one if i == j else f.zero for i in range(n)) for j in range(n)
        ]
    rows, pivots = _rref(mat)
    pivot_set = set(pivots)
    basis = []
    for j in range(mat.ncols):
        if j in pivot_set:
            continue
        vec = [f.zero] * mat.ncols
        vec[j] = f.one
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][j]
        basis.append(tuple(vec))
    return basis


def det_fraction_free(mat: ExactMatrix):
    """Determinant by Bareiss fraction-free elimination.

    Every division is exact, so an integer matrix yields an integer
    determinant with no intermediate denominators.
    """
    f = mat.field
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return f.one
    a = [list(r) for r in mat.rows]
    sign = 1
    prev = f.one
    for k in range(n - 1):
        if f.is_zero(a[k][k]):
            sel = None
            for i in range(k + 1, n):
                if not f.is_zero(a[i][k]):
                    sel = i
                    break
            if sel is None:
                return f.zero
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = f.zero
        prev = pivot
    d = a[n - 1][n - 1]
    if sign < 0:
        d = -d
    return d
