"""Batch command line: build examples, parametrize, certify, replay.

Every command reads and writes JSON files and prints a short human summary;
the machine-readable report embeds each certificate it mentions, so `replay`
can re-check a report without the original instance.  The certificates are
built and replayed by `certify`; this module only assembles reports.  Exit
codes are a stable scripting contract:

    0   success
    2   obstruction (the parametrization question has a negative answer)
    3   inconclusive (no good prime certified smoothness, or the seeded
        construction degenerated)
    4   a certificate failed to build or to replay
    64  usage errors, malformed inputs, bad primes
    1   unexpected internal error

All randomness flows from --seed; two runs with the same seed produce
byte-identical reports except for the "timings" section.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .certify import (
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
    program_summary,
    replay_report,
    run_jobs,
    singular_dimension_experiment,
)
from .exactcore import PrimeField
from .geom import ConstructionFailed
from .groebner import DegreeCeilingExceeded
from .pipeline import (
    build_real_example,
    circle_conic,
    load_instance,
    run_pass,
    save_instance,
)
from .slp import SlpMap, write_json

EX_OK = 0
EX_OBSTRUCTION = 2
EX_INCONCLUSIVE = 3
EX_CERTFAIL = 4
EX_USAGE = 64

DEFAULT_PRIMES = (10007, 10009)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code contract."""

    def error(self, message):
        raise _UsageError(message)


def _instance_summary(inst):
    doc = {"n": inst.n, "alpha": str(inst.alpha)}
    if inst.epsilon is not None:
        doc["epsilon"] = str(inst.epsilon)
    if inst.seeds:
        doc["seeds"] = inst.seeds
    if inst.cubics:
        doc["perturbation_cubics"] = len(inst.cubics)
    return doc


def _new_report(command, instance=None):
    doc = {
        "version": 1,
        "command": command,
        "outcome": "Error",
        "certificates": [],
        "timings": {},
    }
    if instance is not None:
        doc["instance"] = instance
    return doc


# -- build-example -------------------------------------------------------------------


def cmd_build_example(args):
    if args.n < 8:
        raise _UsageError("the doubled-quartic family is built for n >= 8")
    try:
        epsilon = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise _UsageError("cannot read a rational from %r" % args.epsilon)
    inst = build_real_example(n=args.n, epsilon=epsilon, seed=args.seed,
                              preset=args.preset)
    save_instance(inst, args.out)
    print("wrote instance to %s" % args.out)
    print("n = %d, %d perturbation cubics (x5..x%d), epsilon = %s, preset = %s"
          % (args.n, len(inst.cubics), args.n, epsilon, args.preset))
    print("F restricts to f^2 on the slice x5..x%d = 0" % args.n)
    print("the doubled surface {f = 0} of the slice lies inside {F = 0}")
    if epsilon == 0:
        print("epsilon = 0: singular by construction along the doubled surface")
    return EX_OK


# -- certify -------------------------------------------------------------------------


def _smooth_job(params):
    F, p, ceiling = params
    try:
        return ("ok", certify_smooth_mod_p(F, p, degree_ceiling=ceiling))
    except NotEmptyModP as err:
        return ("inconclusive", str(err))
    except DegreeCeilingExceeded as err:
        return ("ceiling", str(err))


def cmd_certify(args):
    inst = load_instance(args.instance)
    chart = 4 if inst.gamma_coord is None else inst.gamma_coord
    primes = args.prime or list(DEFAULT_PRIMES)
    for p in primes:
        PrimeField(p)  # raises BadPrime before any work starts
    report = _new_report("certify", _instance_summary(inst))
    # positivity is a fast arithmetic pass; run it before the Groebner work
    t0 = time.perf_counter()
    try:
        pos = certify_positive_on_hyperplane(inst.F, chart=chart)
    except AbsorptionFails as err:
        report["outcome"] = "CertificateFailure"
        report["positivity_failure"] = str(err)
        if args.report:
            write_json(args.report, report)
        print("positivity on {x%d = 0}: %s" % (chart, err))
        print("hint: rebuild the instance with a smaller --epsilon")
        return EX_CERTFAIL
    report["timings"]["positivity_s"] = round(time.perf_counter() - t0, 3)
    report["certificates"].append(pos)
    print("positivity on {x%d = 0}: certified, all diagonal margins positive"
          % chart)
    t0 = time.perf_counter()
    results = run_jobs(_smooth_job, [(inst.F, p, args.ceiling) for p in primes],
                       args.jobs)
    report["timings"]["smooth_s"] = round(time.perf_counter() - t0, 3)
    smooth_ok = False
    notes = []
    for p, (status, payload) in zip(primes, results):
        if status == "ok":
            smooth_ok = True
            report["certificates"].append(payload)
            print("smooth mod %d: certified" % p)
        else:
            notes.append({"prime": p, "status": status, "detail": payload})
            print("smooth mod %d: %s (%s)" % (p, status, payload))
    if notes:
        report["smoothness_notes"] = notes
    if not smooth_ok:
        report["outcome"] = "Inconclusive"
        if args.report:
            write_json(args.report, report)
        print("no prime certified smoothness; try other primes or a sparser "
              "instance")
        return EX_INCONCLUSIVE
    report["outcome"] = "Success"
    if args.report:
        write_json(args.report, report)
        print("report written to %s" % args.report)
    return EX_OK


# -- parametrize ---------------------------------------------------------------------


def cmd_parametrize(args):
    inst = load_instance(args.instance)
    conic = inst.conic if inst.conic is not None else circle_conic()
    report = _new_report("parametrize", _instance_summary(inst))
    timings = report["timings"]
    report_path = args.report or (args.out + ".report.json")
    t0 = time.perf_counter()
    try:
        run = run_pass(inst, conic, seed=args.seed)
    except ConstructionFailed as err:
        print("inconclusive: the construction at --seed %d failed: %s: %s"
              % (args.seed, type(err).__name__, err), file=sys.stderr)
        return EX_INCONCLUSIVE
    timings.update((k, round(v, 3)) for k, v in run.timings.items())
    if not run.solver.feasible:
        report["outcome"] = "Obstruction"
        report["obstruction"] = certify_obstruction(inst, conic, run)
        write_json(report_path, report)
        print("obstruction: " + report["obstruction"]["message"])
        print("report written to %s" % report_path)
        return EX_OBSTRUCTION
    out_map = run.program
    # over QQ the sweep is certified too; on a pencil its q and c have
    # coefficients in the section parameters, which the certificates lack
    checks = [] if run.params else [(check_on_variety, run.phi, run.ci.q),
                                    (check_on_variety, run.phi, run.ci.c),
                                    (check_dominant, run.phi, 4)]
    checks += [(check_on_variety, out_map, inst.F),
               (check_dominant, out_map, inst.n - 1)]
    for idx, (check, slp, target) in enumerate(checks, 1):
        t1 = time.perf_counter()
        report["certificates"].append(check(slp, target, seed=args.seed))
        timings["certificate_%d_s" % idx] = round(time.perf_counter() - t1, 3)
    timings["total_s"] = round(time.perf_counter() - t0, 3)
    out_map.save(args.out)
    report["outcome"] = "Success"
    report["slp"] = program_summary(out_map)
    write_json(report_path, report)
    print("wrote a %d-parameter program with %d nodes to %s"
          % (out_map.in_arity, len(out_map.nodes), args.out))
    print("%d certificates embedded in %s" % (len(report["certificates"]),
                                              report_path))
    return EX_OK


# -- verify / replay -----------------------------------------------------------------


def cmd_verify(args):
    with open(args.slp) as fh:
        slp = SlpMap.from_json(json.load(fh))
    inst = load_instance(args.instance)
    try:
        cert = check_on_variety(slp, inst.F, seed=args.seed)
        print("on-variety: pass (%s mode)" % cert["mode"])
        dom = check_dominant(slp, inst.n - 1, seed=args.seed)
        print("dominance: pass (rank %d)" % dom["rank"])
    except (IdentityFails, RankDeficient) as err:
        print("verification failed: %s" % err)
        return EX_CERTFAIL
    return EX_OK


def cmd_replay(args):
    with open(args.report) as fh:
        report = json.load(fh)
    try:
        kinds = replay_report(report)
    except ReplayRejected as err:
        print("replay rejected: %s" % err)
        return EX_CERTFAIL
    for count, kind in enumerate(kinds, 1):
        print("certificate %d (%s): accepted" % (count, kind))
    if report.get("outcome") == "Obstruction":
        print("obstruction block: recomputed check passed")
    print("replay accepted (%d certificates)" % len(kinds))
    return EX_OK


# -- experiment ----------------------------------------------------------------------


def cmd_experiment(args):
    if args.what != "lemma-singdim":
        raise _UsageError("unknown experiment %r" % args.what)
    rep = singular_dimension_experiment(trials=args.trials, p=args.prime,
                                        seed=args.seed, jobs=args.jobs)
    print("singular-dimension experiment: d=%(d)d N=%(N)d k=%(k)d p=%(p)d "
          "trials=%(trials)d" % rep)
    print("predicted projective dimension: %d" % rep["predicted_dimension"])
    for dim, cnt in sorted(rep["dimension_counts"].items(), key=lambda kv: int(kv[0])):
        print("  dim %s: %d trials" % (dim, cnt))
    print("matches: %d/%d (fraction %s), ceiling aborts: %d"
          % (rep["matches"], rep["completed"], rep["fraction"],
             rep["ceiling_exceeded"]))
    if args.report:
        doc = _new_report("experiment")
        doc["outcome"] = "Success"
        doc["experiment"] = rep
        write_json(args.report, doc)
        print("report written to %s" % args.report)
    return EX_OK


# -- entry point ---------------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="unirat",
                     description="exact parametrization and certification "
                                 "toolkit for doubled quartics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-example", parents=[], help="write a doubled "
                       "quartic instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", default="1/16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=["seeded", "cubes"], default="seeded")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_example)

    p = sub.add_parser("certify", help="smoothness mod p plus real positivity "
                       "on a hyperplane")
    p.add_argument("--instance", required=True)
    p.add_argument("--prime", type=int, action="append")
    p.add_argument("--ceiling", type=int, default=20)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("parametrize", help="build the rational parametrization "
                       "or archive the obstruction")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_parametrize)

    p = sub.add_parser("verify", help="re-check a program against an instance "
                       "from scratch")
    p.add_argument("--slp", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-check the certificates stored in a "
                       "report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("experiment", help="statistical experiments")
    p.add_argument("what")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--prime", type=int, default=10007)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report")
    p.set_defaults(func=cmd_experiment)

    return parser


# built on the first call of main; no input changes it
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except NotEmptyModP as err:
        print("inconclusive: %s" % err, file=sys.stderr)
        return EX_INCONCLUSIVE
    except (IdentityFails, RankDeficient, AbsorptionFails, ReplayRejected) as err:
        print("certificate failure: %s" % err, file=sys.stderr)
        return EX_CERTFAIL
    # ReplayRejected is a ValueError, so usage errors come after it; a JSON
    # syntax error and a MalformedInput are ValueErrors too
    except (_UsageError, FileNotFoundError, ValueError) as err:
        print("usage error: %s" % err, file=sys.stderr)
        return EX_USAGE
    except Exception as err:  # pragma: no cover - the contract's catch-all
        print("internal error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
