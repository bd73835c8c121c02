"""The four workloads: their inputs, their operations and their checks.

A workload is built from the run's seed.  `setup(work)` prepares every input
in the directory `work`; `ops` is one round of operations, each one call into
the program's public entry points; `check(results)` re-checks the outputs of
the ops that did not fail against computations made apart from the program
(`oracle`), after the metrics are taken.  An op whose value differs from its
`expect` has failed; a failed op without a `fault` tag makes the run
incorrect, while one with a tag is a known fault of the program, counted in
`failed` until a later change mends it.
"""

import contextlib
import copy
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import oracle
# the program's entry points are looked up on their modules at each call,
# so the traced run's wrappers (spans.py) see the benchmark's own calls
from unirat import certify, cli, pipeline
from unirat.exactcore import PrimeField
from unirat.groebner import buchberger, projective_dimension
from unirat.mpoly import format_poly, parse_poly

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REVERSE_P5 = os.path.join(ROOT, "instances", "reverse_p5.json")
N8_CUBES = os.path.join(ROOT, "instances", "n8_cubes.json")
# `unirat certify --instance instances/n8_cubes.json --prime 10007
#  --prime 10009 --report perfbench/data/n8_certify.json`, about 2 minutes
N8_CERTIFY_REPORT = os.path.join(HERE, "data", "n8_certify.json")

PRIMES = (10007, 10009)
# `parametrize --seed 3` on a P^5 instance raises ChartVanishes in
# check_dominant (fault C); so do seeds 21, 23, 36, 38 and 39 of 0-39 on
# reverse_p5.  One fixed op keeps fault C; the other ops use seeds without it.
FAULT_C_SEED = 3
# The P^5 inputs of `parametrize` and `replay` are the same in every run, so
# the work of a round does not depend on the run's seed; the seed turns the
# round (see `rotate`) and draws the checkers' random points.
P5_PARAM_SEEDS = (0, 1, 2, 4)
BUILD_SEEDS = (1, 2)
BUILT_PARAM_SEEDS = (0, 1)


@dataclass
class Op:
    label: str
    fn: Callable[[], Any]
    expect: Optional[int] = None  # exit code; None for a library call
    fault: Optional[str] = None
    files: tuple = ()

    def failed(self, value):
        return self.expect is not None and value != self.expect


def run_cli(argv):
    """One in-process `unirat` command; its printout is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def cli_op(label, argv, expect, fault=None, files=()):
    return Op(label, lambda: run_cli(argv), expect, fault, tuple(files))


def judge(wl, results):
    """(failed ops, problems) of a run: every op's value against its
    `expect`, then the workload's own checks of the outputs."""
    failed = 0
    problems = []
    for op, value, _ in results:
        if op.failed(value):
            failed += 1
            if op.fault is None:
                problems.append("%s: got %r, expected %r"
                                % (op.label, value, op.expect))
    return failed, problems + wl.check(results)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def rotate(ops, seed):
    """The round `ops`, started at the op the seed picks."""
    k = seed % len(ops)
    return ops[k:] + ops[:k]


# -- certify-n8 ----------------------------------------------------------------------


class CertifyN8:
    """`certify` on the n = 8 line-free quartic, one prime per run."""

    name = "certify-n8"

    def __init__(self, seed):
        self.seed = seed
        self.prime = PRIMES[seed % 2]

    def setup(self, work):
        self.work = work
        self.report = os.path.join(work, "certify.json")
        self.ops = [cli_op("certify p=%d" % self.prime,
                           ["certify", "--instance", N8_CUBES,
                            "--prime", str(self.prime),
                            "--report", self.report], 0,
                           files=(self.report,))]

    def check(self, results):
        problems = []
        for op, value, _ in results:
            if op.failed(value):
                continue
            problems += check_certify_report(op.files[0], self.prime)
        inst = read_json(N8_CUBES)
        if not oracle.positive_on_hyperplane(
                inst["F"], inst["n"] + 1, inst["Gamma"]["vanishing_coordinate"],
                random.Random(self.seed)):
            problems.append("F is not positive on {x4 = 0}")
        problems += self.check_controls()
        return problems

    def check_controls(self):
        """Two quartics singular by construction: certify must answer 3."""
        problems = []
        controls = [
            (pipeline.build_real_example(n=8, preset="cubes", epsilon=0),
             [3, 4, 0, 0, 5, 0, 0, 0, 0]),
            (pipeline.build_real_example(n=6, preset="cubes"),
             [0, 0, 3, 4, 5, 0, 0]),
        ]
        for idx, (inst, singular_point) in enumerate(controls):
            path = os.path.join(self.work, "control%d.json" % idx)
            pipeline.save_instance(inst, path)
            text = format_poly(inst.F)
            if not oracle.partials_vanish_at(text, inst.n + 1, singular_point):
                problems.append("control %d is not singular at %s"
                                % (idx, singular_point))
            code = run_cli(["certify", "--instance", path,
                            "--prime", str(self.prime)])
            if code != 3:
                problems.append("singular control %d: certify exited %d, "
                                "expected 3" % (idx, code))
        return problems


def check_certify_report(path, prime):
    doc = read_json(path)
    problems = []
    if doc.get("outcome") != "Success":
        problems.append("certify report outcome %r" % doc.get("outcome"))
    kinds = sorted((c["kind"], c.get("p")) for c in doc.get("certificates", []))
    if kinds != [("positivity", None), ("smooth-mod-p", prime)]:
        problems.append("certify report holds %r" % kinds)
    code = run_cli(["replay", "--report", path])
    if code != 0:
        problems.append("certify report does not replay (exit %d)" % code)
    return problems


# -- singdim -------------------------------------------------------------------------


# the Jacobian ideal that `buchberger` and sympy both reduce: (2, 1)-sized,
# since a (3, 1)-sized one takes about 8 s in sympy
SYMPY_N, SYMPY_K = 2, 1

# one round: (N, k, trial seed offset).  One (3, 1) trial below and one
# (3, 2) trial above six (2, 2) trials put the median op in the middle of
# the (2, 2) trials; six of them make that median steady against the
# op-to-op noise of 0.3 s ops.
SINGDIM_ROUND = ((2, 2, 0), (2, 2, 1), (3, 1, 0), (2, 2, 2), (2, 2, 3),
                 (3, 2, 0), (2, 2, 4), (2, 2, 5))


def lemma_dimension(N, k):
    """Projective dimension of the singular locus after k generic steps."""
    return max(N - 1 - k, -1)


class Singdim:
    """One-trial singular-dimension experiments, (N, k) interleaved."""

    name = "singdim"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work):
        self.ops = [
            Op("singdim N=%d k=%d seed=%d" % (N, k, 6 * self.seed + i),
               lambda N=N, k=k, s=6 * self.seed + i:
               certify.singular_dimension_experiment(
                   N=N, k=k, trials=1, seed=s))
            for N, k, i in SINGDIM_ROUND]

    def check(self, results):
        problems = []
        for op, rep, _ in results:
            problems += check_singdim(rep)
        problems += self.check_against_sympy()
        return problems

    def check_against_sympy(self):
        """`buchberger` and sympy give the same reduced grevlex basis, and the
        same projective dimension, for a Jacobian ideal built here: the
        doubled quadric of P^N plus k random x_j-multiples of cubics."""
        N, p = SYMPY_N, PRIMES[0]
        n = N + SYMPY_K + 1
        rng = random.Random(self.seed)
        xs = ["x%d" % i for i in range(n)]
        q = " + ".join("%s^2" % x for x in xs[:N]) + " - %s^2" % xs[N]
        cubic_terms = []
        for j in range(N + 1, n):
            for a in range(n):
                for b in range(a, n):
                    for c in range(b, n):
                        coef = rng.randrange(p)
                        if coef:
                            cubic_terms.append("%d*%s*%s*%s*%s" % (
                                coef, xs[j], xs[a], xs[b], xs[c]))
        import sympy as sp
        syms = sp.symbols("x0:%d" % n)
        local = dict(zip(xs, syms))
        F = sp.expand(sp.sympify("(%s)^2" % q, locals=local)
                      + sp.sympify(" + ".join(cubic_terms), locals=local))
        parts = []
        for x in syms:
            P = sp.Poly(sp.diff(F, x), *syms, modulus=p)
            parts.append(" + ".join(
                "%d*%s" % (int(c) % p, "*".join(
                    "x%d^%d" % (i, e) for i, e in enumerate(m) if e))
                for m, c in P.terms()))
        gf = PrimeField(p)
        gb = buchberger([parse_poly(t, nvars=n, field=gf) for t in parts],
                        degree_ceiling=20)
        ours = sorted(({e: c.r for e, c in g.terms.items()} for g in gb.polys),
                      key=lambda d: sorted(d))
        theirs = oracle.groebner_grevlex(parts, n, p)
        problems = []
        if ours != theirs:
            problems.append("buchberger and sympy disagree on a Jacobian ideal")
        want = oracle.dimension_of_basis(theirs, n)
        if projective_dimension(gb) != want:
            problems.append("projective dimension %d, sympy's basis gives %d"
                            % (projective_dimension(gb), want))
        return problems


def check_singdim(rep):
    want = lemma_dimension(rep["N"], rep["k"])
    if rep["completed"] != 1 or rep["ceiling_exceeded"]:
        return ["singdim N=%d k=%d did not complete" % (rep["N"], rep["k"])]
    if rep["dimension_counts"] != {str(want): 1}:
        return ["singdim N=%d k=%d found %r, the lemma says %d"
                % (rep["N"], rep["k"], rep["dimension_counts"], want)]
    return []


# -- parametrize ---------------------------------------------------------------------


def build_instances(build_seeds, work):
    """P^5 instance files that reverse_build makes."""
    paths = []
    for b in build_seeds:
        _, quart = pipeline.reverse_build(seed=b)
        path = os.path.join(work, "p5_seed%d.json" % b)
        pipeline.save_instance(quart, path)
        paths.append(path)
    return paths


def parametrize_op(inst, pseed, work, expect=0, fault=None):
    tag = "%s-s%d" % (os.path.basename(inst)[:-5], pseed)
    out = os.path.join(work, "map-%s.json" % tag)
    rep = os.path.join(work, "report-%s.json" % tag)
    return cli_op("parametrize %s" % tag,
                  ["parametrize", "--instance", inst, "--seed", str(pseed),
                   "--out", out, "--report", rep], expect, fault,
                  files=(inst, out, rep))


class Parametrize:
    """`parametrize` on P^5 instances (exit 0) and on n8_cubes (exit 2)."""

    name = "parametrize"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work):
        built = build_instances(BUILD_SEEDS, work)
        shipped = [parametrize_op(REVERSE_P5, s, work) for s in P5_PARAM_SEEDS]
        made = [parametrize_op(inst, s, work)
                for s in BUILT_PARAM_SEEDS for inst in built]
        self.ops = rotate([
            shipped[0], made[0], shipped[1],
            parametrize_op(N8_CUBES, 0, work, expect=2),
            made[1], shipped[2], made[2],
            parametrize_op(REVERSE_P5, FAULT_C_SEED, work, fault="C"),
            shipped[3], made[3]], self.seed)

    def check(self, results):
        problems = []
        seen = set()
        for op, value, _ in results:
            if op.failed(value) or op.label in seen:
                continue
            seen.add(op.label)
            inst, out, rep = op.files
            if op.expect == 2:
                problems += check_obstruction(rep, inst)
            else:
                problems += check_program(out, inst, self.seed)
        return problems


def check_program(out, inst, seed):
    """The written program maps fresh rational points into {F = 0}."""
    good = oracle.maps_into(read_json(out), read_json(inst)["F"],
                            random.Random(seed))
    if good != oracle.MAP_POINTS:
        return ["%s: %d of %d fresh points land on {F = 0}"
                % (os.path.basename(out), good, oracle.MAP_POINTS)]
    return []


def check_obstruction(rep, inst):
    doc = read_json(rep)
    if doc.get("outcome") != "Obstruction":
        return ["n8 parametrize outcome %r" % doc.get("outcome")]
    block = doc["obstruction"]
    idoc = read_json(inst)
    if not oracle.same_obstruction(block["obstruction"], idoc["F"], idoc["n"]):
        return ["stored obstruction %r differs from c1 on the section and "
                "the conic" % (block["obstruction"],)]
    return []


# -- replay --------------------------------------------------------------------------


def tamper_poly(text, nvars):
    """`text` with the coefficient of its first term raised by one."""
    F = parse_poly(text, nvars=nvars)
    e0 = sorted(F.terms)[0]
    terms = dict(F.terms)
    terms[e0] = terms[e0] + 1
    return format_poly(type(F)(nvars, F.field, terms))


def tamper_program(doc):
    """The program with its last nonzero constant raised by one."""
    doc = copy.deepcopy(doc)
    consts = [n for n in doc["nodes"]
              if n["op"] == "const" and Fraction(n["value"]) != 0]
    consts[-1]["value"] = str(Fraction(consts[-1]["value"]) + 1)
    return doc


def forged_smooth_report():
    """Fault A: a smooth-mod-p certificate for the singular epsilon = 0
    quartic, with hand-written pure powers {i: 1} and an honest fingerprint
    of its partials mod p, made by the program's own screening."""
    p = PRIMES[0]
    F = pipeline.build_real_example(n=8, preset="cubes", epsilon=0).F
    digest = certify._partials_fingerprint(certify._screen_prime(F, p))
    cert = {"kind": "smooth-mod-p", "version": 1, "p": p,
            "F": format_poly(F), "nvars": F.nvars, "partials_hash": digest,
            "pure_powers": {str(i): 1 for i in range(F.nvars)},
            "basis_size": F.nvars, "stats": {}}
    return {"version": 1, "command": "certify", "outcome": "Success",
            "certificates": [cert], "timings": {}}


class Replay:
    """`replay` and `verify` on genuine, tampered and forged documents."""

    name = "replay"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, work):
        docs = []  # (path, expected exit, fault)
        verifies = []  # (program, instance, expected exit)
        made = [(REVERSE_P5, s) for s in P5_PARAM_SEEDS[:2]]
        made += [(inst, BUILT_PARAM_SEEDS[0])
                 for inst in build_instances(BUILD_SEEDS[:1], work)]
        for inst, pseed in made:
            op = parametrize_op(inst, pseed, work)
            if op.fn() != 0:
                raise RuntimeError("set-up: %s failed" % op.label)
            _, out, rep = op.files
            bad = read_json(rep)
            # the on-variety certificate of the final program, behind three
            # certificates that replay in full first
            cert = bad["certificates"][3]
            cert["F"] = tamper_poly(cert["F"], cert["nvars"])
            bad_rep = rep[:-5] + "-tampered.json"
            write_json(bad_rep, bad)
            bad_out = out[:-5] + "-tampered.json"
            write_json(bad_out, tamper_program(read_json(out)))
            docs += [(rep, 0, None), (bad_rep, 4, None)]
            verifies += [(out, inst, 0), (bad_out, inst, 4)]
        op = parametrize_op(N8_CUBES, 0, work, expect=2)
        if op.fn() != 2:
            raise RuntimeError("set-up: %s did not exit 2" % op.label)
        obstruction = op.files[2]
        forged_b = read_json(obstruction)
        forged_b["obstruction"]["obstruction"][0] = "1/17"
        path_b = os.path.join(work, "fault-b-obstruction.json")
        write_json(path_b, forged_b)
        stored = os.path.join(work, "n8_certify.json")
        shutil.copyfile(N8_CERTIFY_REPORT, stored)
        bad = read_json(stored)
        cert = next(c for c in bad["certificates"] if c["kind"] == "smooth-mod-p")
        cert["F"] = tamper_poly(cert["F"], cert["nvars"])
        bad_certify = os.path.join(work, "n8_certify-tampered.json")
        write_json(bad_certify, bad)
        path_a = os.path.join(work, "fault-a-forged-smooth.json")
        write_json(path_a, forged_smooth_report())
        docs += [(obstruction, 0, None), (stored, 0, None),
                 (bad_certify, 4, None), (path_a, 4, "A"), (path_b, 4, "B")]
        replays = [cli_op("replay %s" % os.path.basename(path),
                          ["replay", "--report", path], code, fault)
                   for path, code, fault in docs]
        checks = [cli_op("verify %s" % os.path.basename(prog),
                         ["verify", "--slp", prog, "--instance", inst],
                         code) for prog, inst, code in verifies]
        # interleave the reads of reports with the re-checks of programs
        ops = []
        while replays or checks:
            if replays:
                ops.append(replays.pop(0))
            if checks:
                ops.append(checks.pop(0))
        self.ops = rotate(ops, self.seed)

    def check(self, results):
        # every op's verdict is its exit code, compared with `expect`
        return []


WORKLOADS = {w.name: w for w in (CertifyN8, Singdim, Parametrize, Replay)}
