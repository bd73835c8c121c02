"""The division-free geometric formulas of the intersection sweep.

`pipeline._fiber_construction` runs three of them on program nodes: the
kernel of two gradient rows (`two_row_kernel`), the second intersection of
a line with a quadric (`stereo_image`) and the residual point of a tangent
line on a cubic (`residual_formula`).  `run_pass` projects the sweep from
the cone vertex with `project_from_point`, which deletes an output.
`stereographic_param` builds the whole stereographic parametrization of a
quadric from `stereo_image`.

The formulas are ring-generic: coordinates may be rationals, polynomials
or program nodes, as long as they support +, - and *.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import QQ, ExactMatrix, kernel_basis
from .mpoly import gram_matrix
from .slp import SlpBuilder


class ConstructionFailed(ArithmeticError):
    """A seeded draw of the construction met a degenerate configuration."""


class LineInsideCubic(ConstructionFailed):
    """The whole tangent line lies on the cubic; no residual point."""


class TangentsCoincide(ConstructionFailed):
    """The two tangent hyperplanes agree, so their intersection degenerates."""


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
    """Third intersection of a cubic with a line tangent to it at base.

    g2 and g3 are the tau^2 and tau^3 coefficients of the cubic restricted
    to base + tau*direction, whose lower two vanish by tangency; the point
    is [direction] when g3 = 0, and there is none when g2 = g3 = 0.
    """
    return [g3 * base[i] - g2 * direction[i] for i in range(len(base))]


def stereographic_param(form, base, chart_row):
    """Rational parametrization of the quadric {form = 0} by projection from
    its smooth point `base`.

    The hyperplane {chart_row . d = 0} must avoid base; its points d go to
    the second intersection of the line base--d with the quadric.  The
    program takes one coefficient per kernel basis vector of chart_row.
    Raises ValueError when form is not a nonzero quadratic form, base is not
    a smooth point of the quadric, or the hyperplane passes through base.
    """
    if form.is_zero() or form.total_degree() != 2 or not form.is_homogeneous():
        raise ValueError("the quadric needs a nonzero homogeneous quadratic")
    n = form.nvars
    base = [Fraction(c) for c in base]
    gram = gram_matrix(form).rows
    if form.evaluate(base) != 0:
        raise ValueError("the base point is not on the quadric")
    if all(sum(g * c for g, c in zip(row, base)) == 0 for row in gram):
        raise ValueError("the base point is singular on the quadric")
    if len(chart_row) != n or sum(h * c for h, c in zip(chart_row, base)) == 0:
        raise ValueError("the chart hyperplane passes through the base point")

    basis = kernel_basis(ExactMatrix(QQ, [chart_row]))
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
    gram_rows = [[b.const(entry) for entry in row] for row in gram]
    pc = [b.const(c) for c in base]
    outs = stereo_image(gram_rows, pc, d)
    chart_idx = next(i for i, c in enumerate(base) if c != 0)
    return b.finish(outs, chart=chart_idx)


def project_from_point(phi, index):
    """Projection of phi's image from the coordinate point e_index: the
    slice of phi with output `index` deleted and no chart."""
    if not 0 <= index < phi.out_arity:
        raise ValueError("phi has no output %d to project away" % index)
    outs = phi.outputs[:index] + phi.outputs[index + 1:]
    return phi.slice(outs)
