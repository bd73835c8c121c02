"""Replayable certificates for the claims the pipeline makes.

Five certificate kinds cover the claims worth auditing: a program maps
into a variety (exact identity testing, symbolic or randomized), the map is
dominant (full Jacobian rank mod a prime at a recorded witness, a lower bound
on the rank over the rationals), a quartic is nonsingular
(Jacobian ideal empty modulo a good prime), a real hyperplane section is
positive definite (weighted AM-GM absorption into a fourth-power diagonal),
and the construction cannot start (the residual cubic misses the conic).

Every certificate is a JSON document with numbers as decimal strings that
embeds whatever it mentions; this module is the only one that writes or
reads one.  `replay_certificate` re-checks a document from its stored data
alone; nothing is trusted.  The on-variety, dominance, positivity and
obstruction kinds are rebuilt from their stored inputs by their builder,
so each of those formats is written once.  Tampering with any embedded
coefficient breaks a fingerprint or the comparison with the rebuilt
document.

Soundness of the mod-p certificate rests on the closed-image argument: the
singular locus over the rationals is a projective scheme whose image under
reduction is contained in the singular locus mod p, so emptiness mod one
good prime forces emptiness in characteristic zero.  The prime is screened
against denominators and content so the reduction is faithful.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

from .exactcore import P, QQ, BadPrime, PrimeField, parse_rational, rank_mod_p, residue
from .groebner import DegreeCeilingExceeded, buchberger, projective_dimension, projective_empty
from .mpoly import MPoly, format_poly, monomials, parse_poly
from .pipeline import QuarticInstance, flatten_params, solve_stage
from .slp import ChartVanishes, MalformedInput, SlpMap, read, read_list, same_program

SYMBOLIC_INPUT_LIMIT = 4
SYMBOLIC_DEGREE_LIMIT = 60
MAX_POINTS = 20
COORDINATE_BOUND = 2 ** 40
CONFIDENCE_BITS = 64
# dominance ranks are taken mod the Mersenne prime 2^61 - 1
DOMINANCE_PRIME = P

# the version of each certificate kind, written by its builder and the only
# one its replay accepts, with one exception: smooth-mod-p version 1, written
# before the search order was stored, still replays, read in the identity
# order, so that stored reports keep replaying (see `_replay_smooth`)
VERSIONS = {"on-variety": 1, "dominance": 2, "smooth-mod-p": 2,
            "positivity": 1, "obstruction": 1}
_REPLAYED_VERSIONS = {kind: (v,) for kind, v in VERSIONS.items()}
_REPLAYED_VERSIONS["smooth-mod-p"] = (1, 2)


class IdentityFails(ArithmeticError):
    """A nonzero value of F on the image: a disproof, not a random event."""

    def __init__(self, point, value):
        super().__init__("the identity fails at %r" % (point,))
        self.point = point
        self.value = value


class RankDeficient(ArithmeticError):
    def __init__(self, best_rank, target):
        super().__init__("jacobian rank %d stayed below the target %d"
                         % (best_rank, target))
        self.rank = best_rank
        self.target = target


class NotEmptyModP(RuntimeError):
    """Singular points found mod p.  Inconclusive over the rationals: the
    reduction can acquire singular points, so the caller retries with
    another prime."""

    def __init__(self, p, message):
        super().__init__("mod %d: %s" % (p, message))
        self.p = p


class AbsorptionFails(ArithmeticError):
    def __init__(self, variable, budget):
        super().__init__("diagonal budget for x%d exhausted (%s)"
                         % (variable, budget))
        self.variable = variable
        self.budget = budget


class ReplayRejected(ValueError):
    pass


def _sha(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# -- on-variety identity ------------------------------------------------------------


def check_on_variety(phi, F, seed=0, points=None,
                     coordinate_bound=COORDINATE_BOUND):
    """Certify F o Phi = 0, symbolically when the expansion is small enough.

    Symbolic mode stores the hash of the fully expanded composition (the
    zero polynomial); randomized mode stores the Schwartz-Zippel data: K
    sample points with coordinates uniform in [-M, M] drawn from `seed`,
    all of which evaluated to exactly zero, and the per-point failure
    bound D / (2M + 1) whose K-th power is below 2^-64.  Programs are
    polynomial, so F o Phi has degree at most D = deg F * max deg Phi.
    K is the smallest count that reaches 2^-64 (2 at D = 248, M = 2^40).
    Each point is evaluated exactly on ints: F * den on the scaled
    outputs of SlpMap.eval_scaled (see _value_on_image), so a zero is a
    true zero.  Replay passes the stored
    `points` instead.  The certificate embeds phi.to_json(), the program's
    shared read-only document.  A count above MAX_POINTS, derived or stored, is
    refused with a ValueError, so replaying a document costs at most
    MAX_POINTS evaluations.
    """
    if F.nvars != phi.out_arity:
        raise ValueError("the polynomial and the program disagree on the space")
    tracked = F.total_degree() * max(phi.degree_bounds)
    doc = {"kind": "on-variety", "version": VERSIONS["on-variety"],
           "F": format_poly(F), "nvars": F.nvars, "phi": phi.to_json(),
           "tracked_degree": tracked}
    if phi.in_arity <= SYMBOLIC_INPUT_LIMIT and tracked <= SYMBOLIC_DEGREE_LIMIT:
        n = phi.in_arity
        lift = lambda c: MPoly.const(n, c, QQ)
        xs = [MPoly.variable(i, n, QQ) for i in range(n)]
        comp = F.evaluate(phi.eval(xs, lift=lift), lift=lift)
        if not comp.is_zero():
            pt = _nonzero_witness(comp)
            raise IdentityFails(pt, comp.evaluate(pt))
        doc.update(mode="symbolic", expansion_hash=_sha(format_poly(comp)))
        return doc
    # Schwartz-Zippel: a nonzero numerator of degree at most `tracked`
    # vanishes at a uniform point of [-M, M]^n with at most this chance
    bound = Fraction(tracked, 2 * coordinate_bound + 1)
    target = Fraction(1, 2 ** CONFIDENCE_BITS)
    if points is None:
        points = next((k for k in range(1, MAX_POINTS) if bound ** k < target),
                      MAX_POINTS)
    if points > MAX_POINTS:
        raise ValueError("K = %d points exceed the cap of %d"
                         % (points, MAX_POINTS))
    if bound ** points >= target:
        raise ValueError("K = %d points at M = %d give less than %d bits"
                         % (points, coordinate_bound, CONFIDENCE_BITS))
    rng = random.Random(seed)
    form = _integer_form(F)
    for _ in range(points):
        pt = [Fraction(rng.randint(-coordinate_bound, coordinate_bound))
              for _ in range(phi.in_arity)]
        val = _value_on_image(form, phi, pt)
        if val != 0:
            raise IdentityFails([str(c) for c in pt], val)
    doc.update(mode="randomized", points=points, seed=seed,
               coordinate_bound=str(coordinate_bound),
               per_point_bound=str(bound))
    return doc


def _integer_form(F):
    """F * den with int coefficients, den being the lcm of the denominators
    of F's coefficients, as (den, deg F, Horner tree).  The tree of the
    terms at variable i lists (k, subtree of the terms with x_i^k) by
    decreasing k; past the last variable a term is (its int coefficient,
    deg F - its degree)."""
    den = lcm(*(c.denominator for c in F.terms.values()))
    D = F.total_degree()

    def tree(terms, i):
        if i == F.nvars:
            ((exp, c),) = terms
            return int(c * den), D - sum(exp)
        groups = {}
        for exp, c in terms:
            groups.setdefault(exp[i], []).append((exp, c))
        return [(k, tree(groups[k], i + 1)) for k in sorted(groups, reverse=True)]

    return den, D, tree(list(F.terms.items()), 0)


def _horner(tree, i, M, Le):
    """The numerator of a _integer_form tree at x = M / L^e (see
    _value_on_image), by Horner's rule in x_i, x_i+1, ..."""
    if i == len(M):
        a, gap = tree
        return a * Le ** gap if gap else a
    acc = last = 0
    for k, sub in tree:
        if acc:
            acc *= M[i] ** (last - k)
        acc += _horner(sub, i + 1, M, Le)
        last = k
    return acc * M[i] ** last if last else acc


def _value_on_image(form, phi, pt):
    """F(phi(pt)) for the _integer_form of F, evaluated on ints.

    phi.eval_scaled gives each output as N_i / L^e_i.  With e the largest
    e_i the outputs are M_i / L^e for M_i = N_i * L^(e - e_i), so a term
    a * x^m of F * den of degree deg F - g is a * M^m * L^(e*g) / L^(e*deg F).
    The sum `total` of the numerators is exact integer arithmetic, and the
    value is total / (den * L^(e * deg F)): 0 exactly when total is 0."""
    den, D, tree = form
    L, outs = phi.eval_scaled(pt)
    e = max(ei for _, ei in outs)
    M = [N * L ** (e - ei) if ei < e else N for N, ei in outs]
    Le = L ** e
    total = _horner(tree, 0, M, Le)
    return Fraction(total, den * Le ** D) if total else 0


def _nonzero_witness(poly):
    rng = random.Random(17)
    for _ in range(1000):
        pt = [Fraction(rng.randint(-9, 9)) for _ in range(poly.nvars)]
        if poly.evaluate(pt) != 0:
            return pt
    raise ArithmeticError("could not exhibit a nonzero value")


# -- dominance ----------------------------------------------------------------------


def check_dominant(phi, target_dim, seed=0):
    """Find a seeded rational witness where the Jacobian has full rank,
    trying up to five points.

    The rank is taken mod p = DOMINANCE_PRIME, with the witness and the
    program's constants reduced mod p.  A minor that is nonzero mod p is
    nonzero over QQ, so rank_p = target proves rank_QQ >= target: a lower
    bound, whatever the prime.  Rank is lower-semicontinuous, so full rank
    at one rational point gives full rank on a dense open set: the image
    has the dimension of the target variety and the map is dominant onto a
    component through the witness.  A program with no chart is ranked in
    the chart of its first output that is nonzero mod p at the witness.  A
    witness where the chart coordinate vanishes mod p is skipped.  The
    disproof `rank > target` is one-sided: rank_p > target proves it, but
    rank_p <= rank_QQ, so a QQ rank above the target can go unseen mod p.
    """
    rng = random.Random(seed)
    best = -1
    for _ in range(5):
        pt = [Fraction(rng.randint(-9, 9), 1 + rng.randint(0, 3))
              for _ in range(phi.in_arity)]
        try:
            doc = _dominance_at(phi, pt, target_dim, DOMINANCE_PRIME)
        except ChartVanishes:
            continue
        if doc["rank"] == target_dim:
            return doc
        best = max(best, doc["rank"])
    raise RankDeficient(best, target_dim)


def _dominance_at(phi, pt, target_dim, p):
    """The dominance document for the Jacobian rank mod p of phi's chart
    map at one point; it embeds phi.to_json(), the program's shared
    read-only document.  A program with no chart is ranked in the chart of
    its first output that is nonzero mod p at the point: the raw Jacobian
    of homogeneous outputs ranks the affine cone over the image, one
    dimension too many.  ChartVanishes when every output vanishes mod p."""
    charted = phi
    if phi.chart is None:
        c = next((c for c, v in enumerate(phi.eval(pt)) if residue(v, p)), None)
        if c is None:
            raise ChartVanishes("every output vanishes at the point mod %d" % p)
        charted = phi.slice(phi.outputs, chart=c)
    r = rank_mod_p(charted.jacobian(pt, p), p)
    if r > target_dim:
        raise ValueError("rank %d exceeds the target dimension %d: the "
                         "image cannot lie in the claimed variety" % (r, target_dim))
    return {"kind": "dominance", "version": VERSIONS["dominance"], "p": p,
            "witness": [str(c) for c in pt], "chart": phi.chart,
            "rank": r, "target_dim": target_dim, "phi": phi.to_json()}


# -- smoothness mod p ---------------------------------------------------------------


def _reduce_mod(poly, gf):
    return poly.map_coefficients(gf, gf.coerce)


def _partials_fingerprint(parts):
    chunks = []
    for part in parts:
        items = sorted(part.terms.items())
        chunks.append(";".join("%s:%d" % (",".join(map(str, e)), c.r)
                               for e, c in items))
    return _sha("|".join(chunks))


def _screen_prime(F, p):
    """The reduction is faithful: p is an odd prime hitting no denominator
    and killing neither F nor any of its partials."""
    gf = PrimeField(p)  # raises BadPrime unless p is an odd prime
    for c in F.terms.values():
        if c.denominator % p == 0:
            raise BadPrime("p = %d divides a denominator of F" % p)
    if _reduce_mod(F, gf).is_zero():
        raise BadPrime("p = %d divides the content of F" % p)
    parts = []
    for i in range(F.nvars):
        di = F.partial_derivative(i)
        if di.is_zero():
            raise NotEmptyModP(p, "x%d is absent from F, so the coordinate "
                                  "point is a singular point" % i)
        ri = _reduce_mod(di, gf)
        if ri.is_zero():
            raise BadPrime("p = %d divides the content of dF/dx%d" % (p, i))
        parts.append(ri)
    return parts


def _search_order(F):
    """The variables by how many terms of F contain them, fewest first, ties
    by index: the order in which the smoothness search ranks them in
    grevlex, largest first."""
    counts = [0] * F.nvars
    for e in F.terms:
        for v, a in enumerate(e):
            if a:
                counts[v] += 1
    return sorted(range(F.nvars), key=lambda v: (counts[v], v))


def _rename(poly, order):
    """poly with new x_i standing for old x_order[i]."""
    return MPoly(poly.nvars, poly.field,
                 {tuple(e[v] for v in order): c for e, c in poly.terms.items()})


def certify_smooth_mod_p(F, p, degree_ceiling=20):
    """Gröbner-certify that F = 0 is nonsingular, via one good prime: the
    Jacobian ideal of F is projectively empty modulo p.

    The partials are screened and fingerprinted as they are, then searched
    with their variables renamed to `_search_order(F)` (new x_i is old
    x_order[i]), so grevlex ranks first the variables in fewest terms of F.
    The certificate stores that `order`, and its pure powers under the
    original indices.  A pure power of every variable among the leading
    terms proves projective emptiness in any monomial order, so the order
    moves the cost of the search and not its verdict.

    NotEmptyModP is inconclusive for the rationals (reduction can acquire
    singular points); the caller retries with another prime.  A True
    verdict stands even from an early-stopped basis: the emptiness reader
    is monotone in the generating set.
    """
    parts = _screen_prime(F, p)
    order = _search_order(F)
    gb = buchberger([_rename(part, order) for part in parts],
                    degree_ceiling=degree_ceiling, stop_when_zero_dimensional=True)
    if not projective_empty(gb):
        raise NotEmptyModP(p, "singular locus has projective dimension %d"
                              % projective_dimension(gb))
    pure = {str(v): d for v, d in sorted(
        (order[i], d) for i, d in gb.stats["pure_power_degrees"].items())}
    stats = dict(gb.stats, pure_power_degrees=pure)
    return {"kind": "smooth-mod-p", "version": VERSIONS["smooth-mod-p"], "p": p,
            "F": format_poly(F), "nvars": F.nvars, "order": order,
            "partials_hash": _partials_fingerprint(parts),
            "pure_powers": dict(pure), "basis_size": len(gb), "stats": stats}


# -- positivity on a hyperplane -----------------------------------------------------


def certify_positive_on_hyperplane(F, chart=4):
    """Absorb every sign-indefinite monomial of F|_{x_chart = 0} into the
    fourth-power diagonal; certify when all margins stay positive.

    The certificate shows that F restricted to {x_chart = 0} is a positive
    definite real form by an explicit decomposition

        R = sum_i d_i x_i^4  +  (even-exponent terms with positive
            coefficients)  +  (absorbed terms),

    where each absorbed term c * x^a was charged |c| * a_i / 4 against the
    diagonal budget of every variable in its support (weighted AM-GM), and
    every final d_i is strictly positive.  Replay re-runs the absorption
    on the stored R and compares the documents field by field.
    """
    if not (0 <= chart < F.nvars):
        raise ValueError("chart coordinate out of range")
    if F.total_degree() != 4 or not F.is_homogeneous():
        raise ValueError("positivity certification expects a quartic form")
    R = F.set_variable_zero(chart)
    if R.is_zero():
        raise ValueError("F vanishes identically on the hyperplane")
    active = [i for i in range(F.nvars) if i != chart]
    diagonal = {i: Fraction(0) for i in active}
    blocks = []
    absorptions = []
    for e, c in sorted(R.terms.items()):
        support = [i for i, a in enumerate(e) if a]
        if len(support) == 1 and e[support[0]] == 4 and c > 0:
            diagonal[support[0]] += c
        elif all(a % 2 == 0 for a in e) and c > 0:
            blocks.append((e, c))
        else:
            absorptions.append((e, c))
    for e, c in absorptions:
        for i, a in enumerate(e):
            if a:
                diagonal[i] -= abs(c) * Fraction(a, 4)
    for i in active:
        if diagonal[i] <= 0:
            raise AbsorptionFails(i, diagonal[i])
    return {
        "kind": "positivity", "version": VERSIONS["positivity"],
        "chart": chart, "nvars": F.nvars,
        "R": format_poly(R),
        "diagonal": {str(i): str(d) for i, d in sorted(diagonal.items())},
        "blocks": [[list(e), str(c)] for e, c in blocks],
        "absorptions": [
            {"monomial": list(e), "coefficient": str(c), "scale": str(abs(c)),
             "weights": [str(Fraction(a, 4)) for a in e]}
            for e, c in absorptions
        ],
    }


# -- the obstruction ----------------------------------------------------------------


def certify_obstruction(inst, conic, run):
    """The obstruction block of an obstructed run_pass.

    Besides a message, which names the section parameters when there are
    any, the coefficients of c1 on the conic, the cone-quadric count, the
    dimension of the quadrics compatible with the conic (7, those with
    lambda = 0) and c1 itself, as a QQ polynomial in x0..x5 followed by the
    section parameters b6..bn written x6..xn, the block stores what replay
    rebuilds it from: the quartic F, the slice form f with its multiplier
    alpha, and the conic, as its shared read-only document.
    """
    rep, field = run.solver, run.section.F.field
    doc = {
        "kind": "obstruction", "version": VERSIONS["obstruction"],
        "status": "obstructed",
        "message": ("the residual cubic misses the conic for every section "
                    "parameter" if run.params else
                    "every quadric through the cone compatible with the conic "
                    "degenerates (lambda = 0)"),
        "obstruction": [field.format(c) for c in rep.obstruction],
        "quadrics_through_cone": [rep.vector_dim, rep.proj_dim],
        "solution_dim": rep.solution_dim,
        "c1": format_poly(flatten_params(rep.c1)),
        "F": format_poly(inst.F), "f": format_poly(inst.f),
        "alpha": str(inst.alpha), "conic": conic.to_json(),
    }
    if run.params:
        doc["parameters"] = list(run.params)
    return doc


# -- the singular-dimension experiment ----------------------------------------------


def _trial_partials(N, k, p, seed, t):
    """The partials mod p of trial t's quartic: the doubled quadric in P^N
    plus seeded x_j-multiples of cubic forms for the k new coordinates."""
    gf = PrimeField(p)
    n = N + k + 1
    q = sum((MPoly.variable(i, n, QQ) ** 2 for i in range(N)),
            MPoly.zero(n, QQ)) - MPoly.variable(N, n, QQ) ** 2
    F = q * q
    mons = monomials(n, 3)
    rng = random.Random(seed * 1000003 + t)
    for j in range(N + 1, N + 1 + k):
        terms = {}
        while not terms:
            for e in mons:
                cm = rng.randrange(p)
                if cm:
                    terms[e] = Fraction(cm)
        F = F + MPoly.variable(j, n, QQ) * MPoly(n, QQ, terms)
    return [_reduce_mod(F.partial_derivative(i), gf) for i in range(n)]


def _experiment_trial(params):
    """One seeded trial: the projective dimension found, or None on a
    ceiling abort.  Trials are seeded individually so a parallel batch
    reproduces the sequential run exactly."""
    N, k, p, seed, t, degree_ceiling = params
    parts = _trial_partials(N, k, p, seed, t)
    try:
        gb = buchberger(parts, degree_ceiling=degree_ceiling,
                        stop_when_zero_dimensional=True)
    except DegreeCeilingExceeded:
        return None
    return projective_dimension(gb)


def run_jobs(func, params, jobs):
    """[func(ps) for ps in params], in a pool of `jobs` worker processes
    when jobs > 1.  A job must draw its randomness from its params alone,
    so that both ways give the same results in the same order."""
    if jobs <= 1:
        return [func(ps) for ps in params]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(func, params))


def singular_dimension_experiment(N=2, k=2, trials=50, p=10007, seed=0,
                                  degree_ceiling=20, jobs=1):
    """How often a random quartic through a fixed singular one drops the
    singular dimension by exactly k.

    The base is the doubled quadric in P^N (singular locus of projective
    dimension N - 1); each trial adds random x_j-multiples of cubic forms
    for the k new coordinates and reads the projective dimension of the
    Jacobian ideal mod p.  Ceiling-aborted trials are excluded from the
    statistics but counted.  Per-trial seeding makes jobs > 1 bit-identical
    to the sequential run.
    """
    if N > 5:
        raise ValueError("the experiment is sized for small desk parameters")
    if k < 0 or trials <= 0:
        raise ValueError("need k >= 0 and at least one trial")
    m = N - 1
    predicted = max(m - k, -1)
    counts = {}
    matches = 0
    ceiling = 0
    runs = 1 if k == 0 else trials
    params = [(N, k, p, seed, t, degree_ceiling) for t in range(runs)]
    for dim in run_jobs(_experiment_trial, params, jobs):
        if dim is None:
            ceiling += 1
            continue
        counts[dim] = counts.get(dim, 0) + 1
        if dim == predicted:
            matches += 1
    completed = runs - ceiling
    return {
        "d": 4, "N": N, "k": k, "p": p, "trials": runs, "seed": seed,
        "predicted_dimension": predicted,
        "completed": completed,
        "matches": matches,
        "fraction": str(Fraction(matches, completed)) if completed else "0",
        "dimension_counts": {str(dim): c for dim, c in sorted(counts.items())},
        "ceiling_exceeded": ceiling,
    }


# -- replay -------------------------------------------------------------------------


# the rejections that name the claim a wrong field makes
_MISMATCH = {
    "c1": "the stored c1 is not (F - F on M)/x5 for the stored quartic",
    "quadrics_through_cone": "the stored count of quadrics through the cone is wrong",
    "solution_dim": "the stored solution dimension is not that of the conditions",
}


def _compare(rebuilt, doc):
    """Reject unless the stored document is the rebuilt one, field by field.
    Fields compare as JSON text, where 1, 1.0 and true differ; a program,
    read strictly by SlpMap.from_json, compares as a value."""
    for key in sorted(set(rebuilt) | set(doc)):
        if key not in doc:
            raise ReplayRejected("the %s document lacks %s" % (doc["kind"], key))
        stored, want = doc[key], rebuilt.get(key)
        if key not in ("phi", "conic"):
            stored = json.dumps(stored, sort_keys=True)
            want = json.dumps(want, sort_keys=True)
        if stored != want:
            raise ReplayRejected(_MISMATCH.get(
                key, "the stored %s is not the rebuilt one" % key))


def _poly(doc, key):
    """The stored polynomial doc[key] in doc["nvars"] variables."""
    return parse_poly(read(doc, key, str), nvars=read(doc, "nvars", int))


class _Programs:
    """The programs that the documents of one replay embed, each parsed
    once by SlpMap.from_json: a document that reads as one already parsed
    (slp.same_program) gets that SlpMap back."""

    def __init__(self):
        self.read = {}  # id of a document -> (the document, its SlpMap)

    def __call__(self, doc):
        if id(doc) not in self.read:
            program = next((program for known, program in self.read.values()
                            if same_program(doc, known)), None)
            if program is None:
                program = SlpMap.from_json(doc)
            self.read[id(doc)] = doc, program
        return self.read[id(doc)][1]


def _replay_on_variety(doc, programs):
    phi = programs(read(doc, "phi", dict))
    F = _poly(doc, "F")
    seed, points = read(doc, "seed", int, 0), read(doc, "points", int, None)
    bound = read(doc, "coordinate_bound", str, str(COORDINATE_BOUND))
    try:
        rebuilt = check_on_variety(phi, F, seed=seed, points=points,
                                   coordinate_bound=int(bound))
    except (IdentityFails, ValueError) as err:
        raise ReplayRejected(str(err))
    _compare(rebuilt, doc)


def _replay_dominance(doc, programs):
    phi = programs(read(doc, "phi", dict))
    target = read(doc, "target_dim", int)
    if read(doc, "rank", int) != target:
        raise ReplayRejected("stored rank misses the target dimension")
    p = read(doc, "p", int)
    witness = read_list(doc, "witness", str)
    try:
        # the size check comes first, so a huge p costs no primality test
        if p > DOMINANCE_PRIME:
            raise BadPrime("p = %d exceeds 2^61 - 1" % p)
        PrimeField(p)  # raises BadPrime unless p is an odd prime
        rebuilt = _dominance_at(phi, [parse_rational(c) for c in witness],
                                target, p)
    except ChartVanishes:
        raise ReplayRejected("the chart coordinate vanishes at the witness")
    except ValueError as err:
        raise ReplayRejected(str(err))
    _compare(rebuilt, doc)


def _replay_smooth(doc, programs):
    """Re-screen the prime, match the partials' fingerprint and check that
    the pure powers cover every variable.  Version 2 must also store a
    search `order` that is a permutation of the variables, and repeat
    `pure_powers` and `basis_size` in its `stats`; the other counters are
    informational.  Version 1 has no `order` (its search ran in the
    identity order) and its `stats` are not read."""
    p = read(doc, "p", int)
    F = _poly(doc, "F")
    try:
        parts = _screen_prime(F, p)
    except (BadPrime, NotEmptyModP) as err:
        raise ReplayRejected("prime screening failed: %s" % err)
    if _partials_fingerprint(parts) != read(doc, "partials_hash", str):
        raise ReplayRejected("partials fingerprint mismatch")
    pure = read(doc, "pure_powers", dict)
    if pure.keys() != {str(i) for i in range(F.nvars)}:
        raise ReplayRejected("pure powers do not cover every variable")
    if any(read(pure, i, int) < 1 for i in pure):
        raise ReplayRejected("pure power degrees must be positive")
    if doc["version"] == 1:
        if "order" in doc:
            raise ReplayRejected("a version 1 certificate stores no order")
        return
    if sorted(read_list(doc, "order", int)) != list(range(F.nvars)):
        raise ReplayRejected("the search order is not a permutation of the "
                             "variables")
    stats = read(doc, "stats", dict)
    if (json.dumps(read(stats, "pure_power_degrees", dict), sort_keys=True)
            != json.dumps(pure, sort_keys=True)):
        raise ReplayRejected("the stats disagree with the stored pure powers")
    if read(stats, "basis_size", int) != read(doc, "basis_size", int):
        raise ReplayRejected("the stats disagree with the stored basis size")


def _replay_positivity(doc, programs):
    """Re-run the absorption on the stored R; a stored R that still
    involves the chart variable differs from the rebuilt one."""
    R, chart = _poly(doc, "R"), read(doc, "chart", int)
    try:
        rebuilt = certify_positive_on_hyperplane(R, chart=chart)
    except (AbsorptionFails, ValueError) as err:
        raise ReplayRejected(str(err))
    _compare(rebuilt, doc)


def _replay_obstruction(doc, programs):
    """Rerun the witness search on the stored F, f, alpha and conic.  It
    draws nothing at random, so the seed of the original run plays no part
    in the block."""
    params = read_list(doc, "parameters", str, [])
    alpha = parse_rational(read(doc, "alpha", str))
    if alpha == 0:
        raise ReplayRejected("alpha is zero, so nothing is doubled")
    try:
        inst = QuarticInstance(n=5 + len(params),
                               F=parse_poly(read(doc, "F", str), nvars=6 + len(params)),
                               f=parse_poly(read(doc, "f", str), nvars=5), alpha=alpha)
    except ValueError as err:
        raise ReplayRejected("the stored quartic: %s" % err)
    conic = programs(read(doc, "conic", dict))
    run = solve_stage(inst, conic)
    if all(run.section.F.field.is_zero(c) for c in run.solver.obstruction):
        raise ReplayRejected("c1 vanishes on the conic, so nothing is obstructed")
    _compare(certify_obstruction(inst, conic, run), doc)


# each replayer takes the certificate and the replay's reader of programs,
# which the kinds that embed none leave unused
_REPLAYERS = {
    "on-variety": _replay_on_variety,
    "dominance": _replay_dominance,
    "smooth-mod-p": _replay_smooth,
    "positivity": _replay_positivity,
    "obstruction": _replay_obstruction,
}


def replay_certificate(doc, kind=None, programs=None):
    """Re-check one serialized certificate from its stored data alone.

    Returns the certificate kind on acceptance and raises ReplayRejected
    otherwise, also when `kind` is given and the document is of another
    kind.  On-variety, dominance, positivity and obstruction documents are
    rebuilt by their builder from their stored inputs and must equal the
    rebuilt one; smoothness replay re-screens the prime.  All of it is
    cheap next to the original search.  `programs` reads the embedded
    programs; replay_report passes the one it shares among a report's
    documents, so that each program is parsed once.
    """
    if programs is None:
        programs = _Programs()
    try:
        found = read(doc, "kind", str)
    except MalformedInput as err:
        raise ReplayRejected("not a certificate document: %s" % err)
    if kind is not None and found != kind:
        raise ReplayRejected("expected kind %r, found %r" % (kind, found))
    if found not in _REPLAYERS:
        raise ReplayRejected("unknown certificate kind %r" % (found,))
    try:
        if read(doc, "version", int) not in _REPLAYED_VERSIONS[found]:
            raise ReplayRejected("unsupported %s certificate version" % found)
        _REPLAYERS[found](doc, programs)
    except ReplayRejected:
        raise
    except MalformedInput as err:
        raise ReplayRejected("malformed %s certificate: %s" % (found, err))
    except Exception as err:  # malformed embedded data is a rejection too
        raise ReplayRejected("replay crashed: %s" % err)
    return found


# the certificate kinds that a Success of each command's report implies
_IMPLIED = {"parametrize": ("dominance",),
            "certify": ("positivity", "smooth-mod-p"),
            "experiment": ()}
# the outcomes each command writes in a report; replay rejects any other
_OUTCOMES = {"parametrize": ("Success", "Obstruction"),
             "certify": ("Success", "CertificateFailure", "Inconclusive"),
             "experiment": ("Success",)}


def program_summary(phi):
    """The `slp` block of a `parametrize` report: the shape of the program
    the command writes."""
    return {"in_arity": phi.in_arity, "out_arity": phi.out_arity,
            "nodes": len(phi.nodes), "chart": phi.chart}


def replay_report(report):
    """Replay a report's certificates, and its obstruction block when it is
    obstructed, and return the certificates' kinds.

    The outcome must be one that the command writes (`_OUTCOMES`).  Each
    distinct program the documents embed is parsed once, and the checks
    below compare those parsed programs.  The certificates must make one
    claim: the smooth-mod-p ones agree on F, each positivity one restricts
    that F, and each dominance one is about a program that an on-variety
    one maps into its variety.  A Success must carry the kinds its command
    implies: a dominance certificate for `parametrize`, a positivity and a
    smooth-mod-p certificate for `certify`.  In a `parametrize` Success the
    certified programs pair up, each program with an on-variety
    certificate having a dominance one and the other way round, and the
    report's `slp` block describes one of them whose dominance certificate
    has target dimension out_arity - 2: a map onto a hypersurface, which
    the sweep onto the fourfold {q = c = 0} in P^6 is not."""
    try:
        certs = read_list(report, "certificates", dict)
        version = read(report, "version", int)
        command = read(report, "command", str)
        outcome = read(report, "outcome", str)
    except MalformedInput as err:
        raise ReplayRejected("not a report document: %s" % err)
    if version != 1:
        raise ReplayRejected("unsupported report version")
    if command not in _IMPLIED:
        raise ReplayRejected("unknown command %r" % command)
    if outcome not in _OUTCOMES[command]:
        raise ReplayRejected("%s never writes the outcome %r" % (command, outcome))
    programs = _Programs()
    kinds = [replay_certificate(doc, programs=programs) for doc in certs]
    if outcome == "Success":
        missing = [kind for kind in _IMPLIED[command] if kind not in kinds]
        if missing:
            raise ReplayRejected("a %s Success needs a %s certificate"
                                 % (command, " and a ".join(missing)))
    # every field read below passed its certificate's replay
    quartics = {_poly(doc, "F") for doc in certs if doc["kind"] == "smooth-mod-p"}
    if len(quartics) > 1:
        raise ReplayRejected("the smooth-mod-p certificates disagree on F")
    for doc in certs:
        if doc["kind"] == "positivity" and quartics:
            chart = doc["chart"]
            if next(iter(quartics)).set_variable_zero(chart) != _poly(doc, "R"):
                raise ReplayRejected("the positivity certificate's R is not "
                                     "the certified F on {x%d = 0}" % chart)
    certified = {"on-variety": set(), "dominance": set()}
    for doc in certs:
        if doc["kind"] in certified:
            certified[doc["kind"]].add(programs(doc["phi"]))
    if not certified["dominance"] <= certified["on-variety"]:
        raise ReplayRejected("a dominance certificate's program has no "
                             "on-variety certificate in the report")
    if command == "parametrize" and outcome == "Success":
        if certified["on-variety"] != certified["dominance"]:
            raise ReplayRejected("an on-variety certificate's program has no "
                                 "dominance certificate in the report")
        try:
            summary = json.dumps(read(report, "slp", dict), sort_keys=True)
        except MalformedInput as err:
            raise ReplayRejected("malformed report: %s" % err)
        # the final map is dominant onto a hypersurface of its target space
        finals = [programs(doc["phi"]) for doc in certs
                  if doc["kind"] == "dominance"
                  and doc["target_dim"] == programs(doc["phi"]).out_arity - 2]
        if all(summary != json.dumps(program_summary(phi), sort_keys=True)
               for phi in finals):
            raise ReplayRejected("the report's slp block describes none of "
                                 "its certified programs onto a hypersurface")
    if outcome == "Obstruction":
        replay_certificate(report.get("obstruction"), kind="obstruction",
                           programs=programs)
    return kinds
