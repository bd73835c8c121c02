"""Projective geometry primitives over exact fields.

Points, linear subspaces, quadrics, and the constructions used by the
parametrization pipeline: stereographic projection from a smooth point of a
quadric, residual intersection of a tangent line with a cubic, and
projection from a coordinate point.  The fiber quadrics in the common
tangent spaces live in `pipeline`, which builds them on program nodes.

Everything is ring-generic where feasible: coordinates may be rationals,
prime-field residues, polynomials in parameters, or program nodes, as
long as they support +, -, *.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import QQ, kernel_basis
from .mpoly import MPoly, gram_matrix
from .slp import SlpBuilder, _is_zero


class PointNotOnQuadric(ValueError):
    pass


class SingularBasePoint(ValueError):
    pass


class LineInsideCubic(ArithmeticError):
    """The whole tangent line lies on the cubic; no residual point."""


class TangentsCoincide(ValueError):
    """The two tangent hyperplanes agree, so their intersection degenerates."""


class ProjPoint:
    """Point of projective space: nonzero coordinate vector up to scale."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if all(_is_zero(c) for c in coords):
            raise ValueError("all coordinates vanish")
        self.coords = coords

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def proportional(self, other):
        a = self.coords
        b = other.coords if isinstance(other, ProjPoint) else tuple(other)
        if len(a) != len(b):
            return False
        k = next(i for i, c in enumerate(a) if not _is_zero(c))
        if _is_zero(b[k]):
            return False
        return all(_is_zero(a[i] * b[k] - b[i] * a[k]) for i in range(len(a)))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.proportional(other)

    def __hash__(self):
        raise TypeError("projective points are not hashable; compare explicitly")

    def __repr__(self):
        return "(%s)" % " : ".join(repr(c) for c in self.coords)


class LinearSubspace:
    """Projective linear subspace given by a cutting system; its spanning
    basis is derived on demand by a kernel computation over the field."""

    def __init__(self, field, cutting):
        self.field = field
        self._cutting = cutting
        self._basis = None

    def basis(self):
        if self._basis is None:
            self._basis = [tuple(v) for v in kernel_basis(self._cutting)]
        return self._basis

    def cutting(self):
        return self._cutting


class QuadricHypersurface:
    """Degree-2 hypersurface with its symmetric Gram matrix cached."""

    def __init__(self, form: MPoly):
        if form.is_zero() or form.total_degree() != 2 or not form.is_homogeneous():
            raise ValueError("quadric needs a nonzero homogeneous quadratic")
        self.form = form
        self.gram = gram_matrix(form)

    @property
    def nvars(self):
        return self.form.nvars

    def evaluate(self, point, lift=None):
        coords = point.coords if isinstance(point, ProjPoint) else point
        return self.form.evaluate(list(coords), lift)

    def polar_vector(self, point):
        """Gradient direction G*p; zero exactly at singular points."""
        coords = point.coords if isinstance(point, ProjPoint) else point
        n = self.nvars
        return [
            sum((self.gram.entry(i, j) * coords[j] for j in range(1, n)),
                self.gram.entry(i, 0) * coords[0])
            for i in range(n)
        ]


# -- ring-generic kernels ------------------------------------------------------


def two_row_kernel(row_a, row_b, i1, i2, zero):
    """Division-free basis of {x : a.x = b.x = 0} for a chosen pivot pair.

    Requires the 2x2 pivot minor D to be invertible (not checked here; the
    caller picks pivots).  Each basis vector has D in one free slot and
    pivot-column corrections elsewhere, so the result stays polynomial in
    the row entries.
    """
    n = len(row_a)
    d = row_a[i1] * row_b[i2] - row_a[i2] * row_b[i1]
    basis = []
    for j in range(n):
        if j == i1 or j == i2:
            continue
        w = [zero] * n
        w[j] = d
        w[i1] = row_a[i2] * row_b[j] - row_b[i2] * row_a[j]
        w[i2] = row_b[i1] * row_a[j] - row_a[i1] * row_b[j]
        basis.append(w)
    return basis


def stereo_image(gram_rows, p, d):
    """Second intersection of the quadric with the line from p toward d.

    gram_rows, p, d must share one ring; the formula q(d)*p - 2B(p,d)*d is
    division-free, so program nodes are fine.
    """
    n = len(p)
    gd = []
    for i in range(n):
        acc = gram_rows[i][0] * d[0]
        for j in range(1, n):
            acc = acc + gram_rows[i][j] * d[j]
        gd.append(acc)
    qd = d[0] * gd[0]
    bp = p[0] * gd[0]
    for i in range(1, n):
        qd = qd + d[i] * gd[i]
        bp = bp + p[i] * gd[i]
    bp2 = bp + bp
    return [qd * p[i] - bp2 * d[i] for i in range(n)]


def residual_formula(g2, g3, base, direction):
    return [g3 * base[i] - g2 * direction[i] for i in range(len(base))]


# -- operations ------------------------------------------------------------------


def _first_nonzero(vals):
    for i, v in enumerate(vals):
        if not _is_zero(v):
            return i
    return None


def stereographic_param(Q: QuadricHypersurface, p: ProjPoint,
                        chart: LinearSubspace):
    """Rational parametrization of Q by projection from its smooth point p.

    chart is a hyperplane avoiding p; its points d are mapped to the second
    intersection of the line p--d with Q.  The output program takes one
    coefficient per chart basis vector.
    """
    n = Q.nvars
    if not _is_zero(Q.evaluate(p)):
        raise PointNotOnQuadric("base point is not on the quadric")
    polar = Q.polar_vector(p)
    if all(_is_zero(g) for g in polar):
        raise SingularBasePoint("base point is singular on the quadric")
    cut = chart.cutting()
    if cut.nrows != 1:
        raise ValueError("chart must be a hyperplane")
    h = sum((cut.entry(0, j) * p[j] for j in range(1, n)),
            cut.entry(0, 0) * p[0])
    if _is_zero(h):
        raise ValueError("chart hyperplane passes through the base point")

    basis = chart.basis()
    b = SlpBuilder(len(basis))
    zero = b.const(0)
    d = []
    for i in range(n):
        acc = zero
        for k, vec in enumerate(basis):
            if vec[i] == 0:
                continue
            acc = acc + Fraction(vec[i]) * b.inputs[k]
        d.append(acc)
    gram_rows = [[b.const(Q.gram.entry(i, j)) for j in range(n)]
                 for i in range(n)]
    pc = [b.const(Fraction(c)) for c in p.coords]
    outs = stereo_image(gram_rows, pc, d)
    chart_idx = _first_nonzero(p.coords)
    return b.finish(outs, chart=chart_idx,
                    provenance={"stage": "stereographic"})


def residual_point(c: MPoly, base, direction, field=QQ):
    """Third intersection of {c = 0} with a line tangent to it at base.

    The restriction g(tau) = c(base + tau*direction) must have g0 = g1 = 0;
    the residual point is then g3*base - g2*direction, which degenerates to
    [direction] when g3 = 0 and fails only if the line lies inside the cubic.
    """
    if c.total_degree() != 3:
        raise ValueError("residual intersection needs a cubic")
    base_c = base.coords if isinstance(base, ProjPoint) else tuple(base)
    dir_c = direction.coords if isinstance(direction, ProjPoint) else tuple(direction)
    lift = field.coerce
    g = c.restrict_to_line([lift(x) for x in base_c],
                           [lift(x) for x in dir_c])
    if not (_is_zero(g[0]) and _is_zero(g[1])):
        raise ValueError("line is not tangent to the cubic at the base point")
    if _is_zero(g[2]) and _is_zero(g[3]):
        raise LineInsideCubic("every point of the line satisfies the cubic")
    return ProjPoint(residual_formula(g[2], g[3], list(base_c), list(dir_c)))


def project_from_point(p: ProjPoint):
    """Linear projection away from the coordinate point p: deletion of its
    nonzero coordinate.  The center itself maps to the zero vector.
    """
    nonzero = [i for i, c in enumerate(p.coords) if not _is_zero(c)]
    if len(nonzero) != 1:
        raise ValueError("the projection center must be a coordinate point")
    n = len(p)
    b = SlpBuilder(n)
    outs = [b.inputs[i] for i in range(n) if i != nonzero[0]]
    return b.finish(outs, provenance={"stage": "projection"})
