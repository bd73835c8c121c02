"""Sparse multivariate polynomials, Gram matrices, parameter rings.

Polynomials are dictionaries from exponent tuples to nonzero coefficients,
over any field from `exactcore` (rationals, prime fields) or the ring of
polynomials in named parameters defined here.  Iteration order is graded
reverse lexicographic so printing and Groebner input are canonical.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactcore import QQ, ExactMatrix, parse_rational


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class CharacteristicTwoError(ArithmeticError):
    """Gram symmetrization needs 1/2, unavailable in characteristic 2."""


def grevlex_key(exp):
    """Sort key: larger key = later in grevlex ascending order.

    Graded reverse lex: compare total degree first; on ties the monomial
    with the smaller exponent on the last differing variable (scanning
    from the right) is the larger one.
    """
    return (sum(exp), tuple(-e for e in reversed(exp)))


def monomials(nvars, degree):
    """All exponent tuples of the given total degree, sorted."""
    seen = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        seen.append(tuple(e))
    return sorted(seen)


class MPoly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, field, terms):
        self.nvars = nvars
        self.field = field
        self.terms = terms  # dict exponent tuple -> nonzero coefficient

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars, field=QQ):
        return cls(nvars, field, {})

    @classmethod
    def const(cls, nvars, c, field=QQ):
        c = field.coerce(c)
        if field.is_zero(c):
            return cls.zero(nvars, field)
        return cls(nvars, field, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars, field=QQ):
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, field, {exp: field.one})

    @classmethod
    def from_terms(cls, nvars, pairs, field=QQ):
        terms = {}
        for exp, c in pairs:
            c = field.coerce(c)
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError("exponent arity mismatch")
            acc = terms.get(exp)
            c = c if acc is None else acc + c
            if field.is_zero(c):
                terms.pop(exp, None)
            else:
                terms[exp] = c
        return cls(nvars, field, terms)

    def _compat(self, other):
        if not isinstance(other, MPoly):
            raise TypeError("expected MPoly, got %r" % (other,))
        if other.nvars != self.nvars or other.field != self.field:
            raise TypeError("polynomials from different rings")
        return other

    # --- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._compat(other)
        f = self.field
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            acc = terms.get(exp)
            c = c if acc is None else acc + c
            if f.is_zero(c):
                terms.pop(exp, None)
            else:
                terms[exp] = c
        return MPoly(self.nvars, f, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MPoly(self.nvars, self.field, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        other = self._compat(other)
        f = self.field
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = terms.get(exp)
                c = c if acc is None else acc + c
                if f.is_zero(c):
                    terms.pop(exp, None)
                else:
                    terms[exp] = c
        return MPoly(self.nvars, f, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return MPoly.zero(self.nvars, self.field)
        return MPoly(self.nvars, self.field, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.nvars, self.field.one, self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.keys()))))

    def is_zero(self):
        return not self.terms

    # --- structure ------------------------------------------------------

    def total_degree(self):
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms in grevlex descending order (leading term first)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.sorted_terms()[0]

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.field.zero)

    def map_coefficients(self, field, convert):
        terms = {}
        for e, c in self.terms.items():
            v = convert(c)
            if not field.is_zero(v):
                terms[e] = v
        return MPoly(self.nvars, field, terms)

    # --- calculus and substitution ---------------------------------------

    def evaluate(self, point, lift=None):
        """Evaluate at a point.

        The point entries may be field elements, other polynomials, or SLP
        node handles; anything with ring operators works.  `lift` embeds a
        coefficient into the target ring (identity by default).
        """
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        if lift is None:
            lift = lambda c: c
        acc = None
        for exp, c in self.sorted_terms():
            term = lift(c)
            for i, e in enumerate(exp):
                if e:
                    term = term * point[i] ** e
            acc = term if acc is None else acc + term
        if acc is None:
            return lift(self.field.zero)
        return acc

    def partial_derivative(self, i):
        f = self.field
        terms = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            c2 = c * f.coerce(e)
            if f.is_zero(c2):
                continue
            new = list(exp)
            new[i] = e - 1
            terms[tuple(new)] = c2
        return MPoly(self.nvars, f, terms)

    def exact_divide(self, divisor: "MPoly"):
        """Exact multivariate division; NotDivisible on nonzero remainder."""
        divisor = self._compat(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        lt_exp, lt_c = divisor.leading_term()
        rem = dict(self.terms)
        quo = {}
        while rem:
            exp = max(rem.keys(), key=grevlex_key)
            c = rem[exp]
            q_exp = tuple(a - b for a, b in zip(exp, lt_exp))
            if any(e < 0 for e in q_exp):
                raise NotDivisible("remainder term with exponent %r" % (exp,))
            q_c = c / lt_c
            quo[q_exp] = q_c
            for d_exp, d_c in divisor.terms.items():
                t_exp = tuple(a + b for a, b in zip(q_exp, d_exp))
                acc = rem.get(t_exp, f.zero) - q_c * d_c
                if f.is_zero(acc):
                    rem.pop(t_exp, None)
                else:
                    rem[t_exp] = acc
        return MPoly(self.nvars, f, quo)

    def __truediv__(self, other):
        """Exact quotient by a polynomial or a scalar; NotDivisible otherwise."""
        if isinstance(other, MPoly):
            return self.exact_divide(other)
        return self.scale(self.field.one / self.field.coerce(other))

    def restrict_to_line(self, base, direction, lift=None):
        """Coefficients g_0..g_d of p(base + tau * direction) in tau.

        Entries of base/direction may be field elements or any ring values;
        returns a list of that ring's values, constant term first.
        """
        deg = self.total_degree()
        if deg < 0:
            return []
        if lift is None:
            lift = lambda c: c
        zero = lift(self.field.zero)
        acc = [zero] * (deg + 1)

        def tau_mul(a, b):
            out = [zero] * (deg + 1)
            for i, ai in enumerate(a):
                if ai is zero:
                    continue
                for j, bj in enumerate(b):
                    if i + j > deg:
                        break
                    out[i + j] = out[i + j] + ai * bj
            return out

        for exp, c in self.sorted_terms():
            term = [lift(c)] + [zero] * deg
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                lin = [base[i], direction[i]] + [zero] * (deg - 1)
                for _ in range(e):
                    term = tau_mul(term, lin)
            acc = [x + y for x, y in zip(acc, term)]
        return acc

    def extend_variables(self, n_new):
        """Reinterpret in a larger ring; new variables appended."""
        if n_new < self.nvars:
            raise ValueError("cannot shrink the ring")
        pad = (0,) * (n_new - self.nvars)
        return MPoly(n_new, self.field, {e + pad: c for e, c in self.terms.items()})

    def set_variable_zero(self, i):
        """Substitute x_i = 0 (the arity is preserved)."""
        terms = {e: c for e, c in self.terms.items() if e[i] == 0}
        return MPoly(self.nvars, self.field, terms)

    # --- text ----------------------------------------------------------

    def __repr__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# text grammar: terms joined by + or -, term = coef*x<i>^<e>*..., coef a or a/b


def format_poly(p: MPoly, family="x") -> str:
    if not p.terms:
        return "0"
    fmt = p.field.format
    chunks = []
    for exp, c in p.sorted_terms():
        factors = []
        for i, e in enumerate(exp):
            if e == 0:
                continue
            v = "%s%d" % (family, i)
            factors.append(v if e == 1 else "%s^%d" % (v, e))
        cs = fmt(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = "*".join([cs] + factors)
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def parse_poly(text, nvars=None, family="x", field=QQ) -> MPoly:
    """Parse the package polynomial grammar.

    Whitespace is ignored.  Variables are <family><index>; coefficients
    are integers or a/b fractions and multiply variables with '*'.
    """
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial text")
    # split into signed terms
    terms = []
    buf = ""
    sign = 1
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start_sign = sign
    while i <= len(s):
        if i == len(s) or s[i] in "+-":
            if not buf:
                raise ValueError("dangling sign in %r" % text)
            terms.append((start_sign, buf))
            if i < len(s):
                start_sign = -1 if s[i] == "-" else 1
            buf = ""
        else:
            buf += s[i]
        i += 1
    pairs = []
    max_var = -1
    for sign, term in terms:
        coef = Fraction(1)
        exps = {}
        for factor in term.split("*"):
            if not factor:
                raise ValueError("empty factor in %r" % text)
            if factor[0] == family:
                var_part = factor[1:]
                power = 1
                if "^" in var_part:
                    var_part, p_part = var_part.split("^", 1)
                    power = int(p_part)
                idx = int(var_part)
                if idx < 0 or power < 0:
                    raise ValueError("bad variable factor %r" % factor)
                exps[idx] = exps.get(idx, 0) + power
                max_var = max(max_var, idx)
            else:
                coef *= parse_rational(factor)
        pairs.append((sign * coef, exps))
    if nvars is None:
        nvars = max_var + 1
    if max_var >= nvars:
        raise ValueError("variable index %d exceeds arity %d" % (max_var, nvars))
    out = []
    for coef, exps in pairs:
        exp = tuple(exps.get(i, 0) for i in range(nvars))
        out.append((exp, field.coerce(coef)))
    return MPoly.from_terms(nvars, out, field)


# ---------------------------------------------------------------------------


def gram_matrix(q: MPoly) -> ExactMatrix:
    """Symmetric Gram matrix of a quadratic form, G[i][j] = coeff/2 off diagonal."""
    if q.total_degree() > 2 or not q.is_homogeneous():
        raise ValueError("gram_matrix expects a homogeneous quadratic")
    f = q.field
    if f.characteristic == 2:
        raise CharacteristicTwoError("no 1/2 in characteristic 2")
    half = f.one / f.coerce(2)
    n = q.nvars
    g = [[f.zero] * n for _ in range(n)]
    for exp, c in q.terms.items():
        support = [i for i, e in enumerate(exp) if e]
        if len(support) == 1:
            i = support[0]
            if exp[i] == 2:
                g[i][i] = c
            else:
                raise ValueError("non-quadratic term")
        else:
            i, j = support
            g[i][j] = c * half
            g[j][i] = c * half
    return ExactMatrix(f, g)


# ---------------------------------------------------------------------------
# polynomial coefficients in named parameters


class ParameterRing:
    """The ring QQ[names] as a coefficient domain.

    Elements are plain MPoly over QQ in the parameters.  Division is exact
    or raises NotDivisible, so no denominator in the parameters can arise.
    """

    characteristic = 0

    def __init__(self, names):
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.zero = MPoly.zero(self.nvars)
        self.one = MPoly.const(self.nvars, 1)

    def coerce(self, x):
        if isinstance(x, MPoly):
            if x.nvars != self.nvars or x.field is not QQ:
                raise TypeError("polynomial does not embed in this ring")
            return x
        return MPoly.const(self.nvars, QQ.coerce(x))

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def format(self, x) -> str:
        s = format_poly(self.coerce(x))
        for i in reversed(range(self.nvars)):
            s = s.replace("x%d" % i, self.names[i])
        return s

    def __eq__(self, other):
        return isinstance(other, ParameterRing) and other.names == self.names

    def __hash__(self):
        return hash(("ParameterRing", self.names))

    def __repr__(self):
        return "QQ[%s]" % ", ".join(self.names)
