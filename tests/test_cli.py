import copy
import hashlib
import io
import json
import random
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from unirat import cli, pipeline, slp
from unirat.certify import (
    certify_obstruction,
    certify_positive_on_hyperplane,
    certify_smooth_mod_p,
    check_dominant,
    check_on_variety,
)
from unirat.cli import main
from unirat.mpoly import MPoly, format_poly, parse_poly
from unirat.exactcore import QQ
from unirat.geom import TangentsCoincide
from unirat.pipeline import QuarticInstance, save_instance, sphere_form
from unirat.slp import SlpBuilder, SlpMap, write_json

REPO = Path(__file__).resolve().parent.parent
INSTANCES = REPO / "instances"


def quiet(argv):
    """Run a command discarding stdout; fixtures use this so their output
    does not leak into the capture of whichever test triggers them."""
    with redirect_stdout(io.StringIO()):
        return main(argv)


def strip_timings(doc):
    doc = dict(doc)
    doc.pop("timings", None)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def eps0(workdir):
    path = workdir / "eps0.json"
    assert quiet(["build-example", "--n", "8", "--epsilon", "0",
                  "--preset", "cubes", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def p5_run(workdir):
    """One parametrize run on the shipped reverse-built instance."""
    slp = workdir / "p5.slp.json"
    rep = workdir / "p5.report.json"
    assert quiet(["parametrize", "--instance", str(INSTANCES / "reverse_p5.json"),
                  "--out", str(slp), "--report", str(rep)]) == 0
    return slp, rep


# -- build-example -------------------------------------------------------------


def test_build_example_writes_instance(workdir, capsys):
    out = workdir / "n8.json"
    code = main(["build-example", "--n", "8", "--epsilon", "1/16",
                 "--seed", "0", "--preset", "cubes", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "4 perturbation cubics" in text
    assert "restricts to f^2" in text
    doc = json.loads(out.read_text())
    assert doc["n"] == 8 and doc["epsilon"] == "1/16"
    assert doc["seeds"] == {"seed": 0, "preset": "cubes"}


def test_build_example_flags_the_singular_case(workdir, capsys):
    assert main(["build-example", "--n", "8", "--epsilon", "0",
                 "--preset", "cubes", "--out", str(workdir / "flag.json")]) == 0
    assert "singular by construction" in capsys.readouterr().out


def test_build_example_usage_errors(workdir, capsys):
    assert main(["build-example", "--n", "7",
                 "--out", str(workdir / "no.json")]) == 64
    assert "n >= 8" in capsys.readouterr().err
    assert main(["build-example", "--n", "8", "--epsilon", "sixteen",
                 "--out", str(workdir / "no.json")]) == 64
    assert not (workdir / "no.json").exists()


# -- certify -------------------------------------------------------------------


def test_certify_inconclusive_on_the_unperturbed_instance(eps0, workdir, capsys):
    rep = workdir / "eps0.report.json"
    code = main(["certify", "--instance", str(eps0), "--report", str(rep)])
    text = capsys.readouterr().out
    assert code == 3
    assert "inconclusive" in text and "projective dimension 3" in text
    doc = json.loads(rep.read_text())
    assert doc["outcome"] == "Inconclusive"
    assert [n["prime"] for n in doc["smoothness_notes"]] == [10007, 10009]


def test_certify_absorption_failure_exit(workdir, capsys):
    inst = workdir / "eps3.json"
    assert quiet(["build-example", "--n", "8", "--epsilon", "3",
                  "--preset", "cubes", "--out", str(inst)]) == 0
    code = main(["certify", "--instance", str(inst)])
    text = capsys.readouterr().out
    assert code == 4
    assert "budget for x0 exhausted" in text
    assert "smaller --epsilon" in text


def test_certify_screens_primes_before_working(eps0, capsys):
    code = main(["certify", "--instance", str(eps0), "--prime", "2"])
    captured = capsys.readouterr()
    assert code == 64
    assert "positivity" not in captured.out  # nothing ran
    assert "odd prime" in captured.err


def test_certify_jobs_do_not_change_the_certificates(workdir):
    reports = []
    for jobs in ("1", "2"):
        rep = workdir / ("n8.jobs%s.report.json" % jobs)
        assert quiet(["certify", "--instance", str(INSTANCES / "n8_cubes.json"),
                      "--jobs", jobs, "--report", str(rep)]) == 0
        reports.append(json.loads(rep.read_text())["certificates"])
    assert reports[0] == reports[1]
    assert [c["kind"] for c in reports[0]] == ["positivity", "smooth-mod-p",
                                               "smooth-mod-p"]


def test_certify_chart_out_of_range(workdir, capsys):
    # certify reads its chart from the instance's Gamma; x9 is not a
    # coordinate of P^8
    doc = json.loads((INSTANCES / "n8_cubes.json").read_text())
    doc["Gamma"]["vanishing_coordinate"] = 9
    inst = workdir / "n8_chart9.json"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["certify", "--instance", str(inst)]) == 64
    assert "chart coordinate out of range" in capsys.readouterr().err


# -- parametrize: the feasible P^5 instance --------------------------------------


def test_parametrize_writes_program_and_report(p5_run):
    slp_path, rep_path = p5_run
    slp = SlpMap.from_json(json.loads(slp_path.read_text()))
    assert (slp.in_arity, slp.out_arity) == (4, 6)
    assert len(slp.nodes) == 785
    doc = json.loads(rep_path.read_text())
    assert doc["outcome"] == "Success"
    kinds = [c["kind"] for c in doc["certificates"]]
    assert kinds == ["on-variety", "on-variety", "dominance",
                     "on-variety", "dominance"]
    assert doc["slp"] == {"in_arity": 4, "out_arity": 6, "nodes": 785,
                          "chart": 0}


def test_parametrize_is_deterministic(p5_run, workdir):
    _, rep_path = p5_run
    rep2 = workdir / "p5.second.report.json"
    assert quiet(["parametrize", "--instance",
                  str(INSTANCES / "reverse_p5.json"),
                  "--out", str(workdir / "p5.second.slp.json"),
                  "--report", str(rep2)]) == 0
    a = strip_timings(json.loads(rep_path.read_text()))
    b = strip_timings(json.loads(rep2.read_text()))
    assert a == b


def test_verify_accepts_the_written_program(p5_run, capsys):
    slp_path, _ = p5_run
    code = main(["verify", "--slp", str(slp_path),
                 "--instance", str(INSTANCES / "reverse_p5.json")])
    text = capsys.readouterr().out
    assert code == 0
    assert "on-variety: pass" in text and "dominance: pass (rank 4)" in text


def test_verify_refuses_a_curve_as_a_dominant_map(workdir, capsys):
    # t -> (1 - t^2 : 2t : 0 : 0 : 1 + t^2 : 0) is the conic inside the
    # doubled surface, so it lies on reverse_p5; dominance asks for rank
    # n - 1 = 4 whatever the arity of the program
    b = SlpBuilder(1)
    (t,) = b.inputs
    one, zero = b.const(1), b.const(0)
    path = workdir / "conic.slp.json"
    b.finish([one - t * t, t + t, zero, zero, one + t * t, zero],
             chart=4).save(path)
    capsys.readouterr()
    assert main(["verify", "--slp", str(path),
                 "--instance", str(INSTANCES / "reverse_p5.json")]) == 4
    text = capsys.readouterr().out
    assert "on-variety: pass" in text and "stayed below the target 4" in text


def test_verify_refuses_a_malformed_program_as_usage(p5_run, workdir, capsys):
    slp_path, _ = p5_run
    doc = json.loads(slp_path.read_text())
    doc["nodes"][0]["args"] = None
    bad = workdir / "bad-args.slp.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--slp", str(bad),
                 "--instance", str(INSTANCES / "reverse_p5.json")]) == 64
    assert "node 0: args must be a list" in capsys.readouterr().err


def test_replay_accepts_then_rejects_after_tampering(p5_run, workdir, capsys):
    _, rep_path = p5_run
    assert main(["replay", "--report", str(rep_path)]) == 0
    doc = json.loads(rep_path.read_text())
    doc["certificates"][2]["rank"] = 3
    bad = workdir / "tampered.report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "replay rejected" in capsys.readouterr().out


def test_replay_refuses_a_program_with_a_key_the_writer_never_writes(
        p5_run, workdir, capsys):
    # the sweep's on-variety certificate embeds `provenance`, as programs
    # of the earlier format did: replay compares the stored program as a
    # value with the one it rebuilds from it
    doc = json.loads(p5_run[1].read_text())
    doc["certificates"][0]["phi"]["provenance"] = {}
    bad = workdir / "provenance.report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert ("replay rejected: the stored phi is not the rebuilt one"
            in capsys.readouterr().out)


def test_reports_and_programs_are_compact_json_with_sorted_keys(p5_run, workdir):
    # the bytes are those of the C encoder's one-shot dumps, but writing
    # entry by entry keeps the encoded text of the whole report out of memory
    for path in p5_run:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    doc = json.loads(p5_run[1].read_text())
    tracemalloc.start()
    try:
        write_json(workdir / "p5.rewritten.json", doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (workdir / "p5.rewritten.json").read_text() == p5_run[1].read_text()
    assert peak < 500_000


# sha256 of the reverse_p5 seed-0 report with its timings emptied, and of
# its program file
P5_REPORT_SHA256 = "032e9071c5d74606a63f65bd7e2987ddb21c7fdfd414b9f3061fee21f4fc29f2"
P5_PROGRAM_SHA256 = "3a9442c1eeb89e95a413e095fb29b31bfa491b238605458fcb4dc4cd49e7f3ab"


def test_p5_report_and_program_bytes_are_pinned(p5_run):
    slp_path, rep_path = p5_run
    doc = json.loads(rep_path.read_text())
    doc["timings"] = {}
    text = json.dumps(doc, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == P5_REPORT_SHA256
    assert hashlib.sha256(slp_path.read_bytes()).hexdigest() == P5_PROGRAM_SHA256


def node_lists(value):
    """How many program node lists one encoder call on `value` encodes."""
    if type(value) is dict:
        return sum(node_lists(v) for v in value.values())
    if type(value) is not list:
        return 0
    if value and all(type(e) is dict and "op" in e for e in value):
        return 1
    return sum(node_lists(v) for v in value)


def test_one_p5_op_builds_each_program_document_once(workdir, monkeypatch):
    # the five certificates embed two programs, the sweep and the final
    # map; the report and the program file encode at most three node lists
    built, encoded = [], []
    to_json, encode = SlpMap.to_json, slp._encode

    def counted_to_json(self):
        doc = to_json(self)
        if all(doc is not seen for seen in built):
            built.append(doc)
        return doc

    def counted_encode(value):
        encoded.append(node_lists(value))
        return encode(value)

    monkeypatch.setattr(SlpMap, "to_json", counted_to_json)
    monkeypatch.setattr(slp, "_encode", counted_encode)
    assert quiet(["parametrize", "--instance", str(INSTANCES / "reverse_p5.json"),
                  "--out", str(workdir / "counted.slp.json"),
                  "--report", str(workdir / "counted.report.json")]) == 0
    assert len(built) == 2
    assert sum(encoded) <= 3
    doc = json.loads((workdir / "counted.report.json").read_text())
    assert len(doc["certificates"]) == 5


def test_one_p5_op_sweeps_each_point_of_a_program_once(workdir, monkeypatch):
    # the on-variety certificates of q and c (on the sweep) and of F (on the
    # final map, an output slice of the sweep) draw the same two points
    swept = []
    scaled_sweep = SlpMap._scaled_sweep

    def counted(self, point):
        swept.append((self.nodes, tuple(point)))
        return scaled_sweep(self, point)

    monkeypatch.setattr(SlpMap, "_scaled_sweep", counted)
    assert quiet(["parametrize", "--instance", str(INSTANCES / "reverse_p5.json"),
                  "--out", str(workdir / "swept.slp.json"),
                  "--report", str(workdir / "swept.report.json")]) == 0
    points = set()
    for cert in json.loads((workdir / "swept.report.json").read_text())["certificates"]:
        if cert["kind"] == "on-variety":
            # the seeded sampler of check_on_variety
            rng, bound = random.Random(cert["seed"]), int(cert["coordinate_bound"])
            points |= {tuple(Fraction(rng.randint(-bound, bound))
                             for _ in range(cert["phi"]["in_arity"]))
                       for _ in range(cert["points"])}
    assert len(points) == 2
    assert len(swept) == len(set(swept))
    assert points <= {pt for _, pt in swept}


def test_write_json_keeps_the_bytes_of_a_report_with_equal_copies(p5_run, workdir):
    # a loaded report holds five equal but distinct program documents
    doc = json.loads(p5_run[1].read_text())
    phis = [c["phi"] for c in doc["certificates"]]
    assert len({id(phi) for phi in phis}) == 5
    assert phis[0] == phis[1] == phis[2] and phis[3] == phis[4]
    path = workdir / "p5.copies.json"
    write_json(path, doc)
    assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"


def dominance_edits():
    import sympy
    return {
        "composite p": lambda c: c.update(p=10007 * 10009),
        "p = 2": lambda c: c.update(p=2),
        "prime above 2^61 - 1": lambda c: c.update(p=int(sympy.nextprime(2 ** 61 - 1))),
        # the witness (3/4, -8/3, 7/4, 1) has no residue mod 3
        "p divides a witness denominator": lambda c: c.update(p=3),
        "version 1": lambda c: c.update(version=1),
        "rank": lambda c: c.update(rank=c["rank"] - 1),
    }


@pytest.mark.parametrize("edit", sorted(dominance_edits()))
def test_replay_rejects_an_edited_dominance_v2_certificate(
        edit, p5_run, workdir, capsys):
    _, rep_path = p5_run
    doc = json.loads(rep_path.read_text())
    cert = doc["certificates"][4]
    assert (cert["kind"], cert["version"], cert["p"]) == ("dominance", 2, 2 ** 61 - 1)
    assert "-8/3" in cert["witness"]
    dominance_edits()[edit](cert)
    bad = workdir / "p5.dominance-edit.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "replay rejected" in capsys.readouterr().out


def test_replay_rebuilds_dominance_with_the_stored_prime(p5_run, workdir):
    # rank 4 mod any odd prime that reduces the witness proves rank 4 over QQ
    _, rep_path = p5_run
    doc = json.loads(rep_path.read_text())
    doc["certificates"][4]["p"] = 1000003
    other = workdir / "p5.other-prime.json"
    other.write_text(json.dumps(doc))
    assert quiet(["replay", "--report", str(other)]) == 0


@pytest.mark.parametrize("report, drop, message", [
    ("p5", "dominance", "parametrize Success needs a dominance certificate"),
    ("n8", "positivity", "certify Success needs a positivity certificate"),
    ("n8", "smooth-mod-p", "certify Success needs a smooth-mod-p certificate"),
])
def test_replay_requires_the_certificates_a_success_implies(
        report, drop, message, p5_run, workdir, capsys):
    path = p5_run[1] if report == "p5" else REPO / "perfbench" / "data" / "n8_certify.json"
    doc = json.loads(path.read_text())
    doc["certificates"] = [c for c in doc["certificates"] if c["kind"] != drop]
    bad = workdir / "dropped.report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert message in capsys.readouterr().out
    # the same certify report as an Inconclusive run claims nothing more;
    # parametrize writes no outcome that claims less than a Success, and
    # an outcome a command never writes is rejected
    doc["outcome"] = "Inconclusive" if report == "n8" else "Error"
    bad.write_text(json.dumps(doc))
    assert quiet(["replay", "--report", str(bad)]) == (0 if report == "n8" else 4)


def test_replay_rejects_an_unknown_command(p5_run, workdir, capsys):
    doc = json.loads(p5_run[1].read_text())
    doc["command"] = "verify"
    bad = workdir / "p5.unknown-command.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "unknown command 'verify'" in capsys.readouterr().out


def test_replay_accepts_only_the_outcomes_each_command_writes(
        p5_run, eps0, workdir, capsys):
    eps3 = workdir / "outcomes-eps3.json"
    assert quiet(["build-example", "--n", "8", "--epsilon", "3",
                  "--preset", "cubes", "--out", str(eps3)]) == 0
    runs = [  # (command line, exit code, outcome)
        (["certify", "--instance", str(eps0), "--prime", "10007"], 3,
         "Inconclusive"),
        (["certify", "--instance", str(eps3)], 4, "CertificateFailure"),
        (["parametrize", "--instance", str(INSTANCES / "n8_cubes.json"),
          "--out", str(workdir / "outcomes.slp.json")], 2, "Obstruction"),
        (["experiment", "lemma-singdim", "--trials", "1"], 0, "Success"),
    ]
    reports = {("certify", "Success"): REPO / "perfbench" / "data" / "n8_certify.json",
               ("parametrize", "Success"): p5_run[1]}
    for i, (argv, code, outcome) in enumerate(runs):
        rep = workdir / ("outcome%d.report.json" % i)
        assert quiet(argv + ["--report", str(rep)]) == code
        assert json.loads(rep.read_text())["outcome"] == outcome
        reports[argv[0], outcome] = rep
    # each outcome a command writes replays
    for rep in reports.values():
        assert quiet(["replay", "--report", str(rep)]) == 0
    bogus = workdir / "outcome-bogus.report.json"
    bogus.write_text(json.dumps({"version": 1, "command": "certify",
                                 "outcome": "Bogus", "certificates": [],
                                 "timings": {}}))
    capsys.readouterr()
    assert main(["replay", "--report", str(bogus)]) == 4
    assert "certify never writes the outcome 'Bogus'" in capsys.readouterr().out
    # a replayable obstruction block does not make a certify report of it
    doc = json.loads(reports["parametrize", "Obstruction"].read_text())
    doc["command"] = "certify"
    bogus.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bogus)]) == 4
    assert "never writes the outcome 'Obstruction'" in capsys.readouterr().out


def test_replay_pairs_the_programs_of_a_parametrize_success(p5_run, workdir, capsys):
    genuine = json.loads(p5_run[1].read_text())
    bad = workdir / "p5.unpaired.json"
    # without the final map's dominance certificate: its on-variety one
    # still replays, but nothing shows that the map is dominant
    doc = dict(genuine, certificates=genuine["certificates"][:4])
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "has no dominance certificate" in capsys.readouterr().out
    # the slp block must describe a certified program onto a hypersurface;
    # out_arity 7 is the shape of the sweep onto {q = c = 0} in P^6
    for key, value in (("nodes", 852), ("chart", None), ("in_arity", 4.0),
                       ("out_arity", 5), ("out_arity", 7)):
        doc = copy.deepcopy(genuine)
        doc["slp"][key] = value
        bad.write_text(json.dumps(doc))
        assert main(["replay", "--report", str(bad)]) == 4
        assert "describes none of its certified programs" in capsys.readouterr().out
    # nor may the sweep stand in for the final map once the final map's two
    # certificates are gone: its dominance target is not out_arity - 2
    sweep = genuine["certificates"][2]
    assert (sweep["kind"], sweep["target_dim"]) == ("dominance", 4)
    shape = dict(genuine["slp"], out_arity=7)
    assert shape == {"in_arity": sweep["phi"]["in_arity"],
                     "out_arity": sweep["phi"]["out_arity"],
                     "nodes": len(sweep["phi"]["nodes"]),
                     "chart": sweep["phi"]["chart"]}
    doc = dict(genuine, certificates=genuine["certificates"][:3], slp=shape)
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4
    assert "describes none of its certified programs" in capsys.readouterr().out
    doc = copy.deepcopy(genuine)
    del doc["slp"]
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4
    assert "slp is missing" in capsys.readouterr().out


def test_replay_accepts_a_section_pencil_report(workdir):
    # the pencil of P^5 sections of a P^6 lift: only the final map is
    # certified, and it is paired
    Y = pipeline.load_instance(INSTANCES / "reverse_p5.json")
    x = [MPoly.variable(i, 7, QQ) for i in range(7)]
    lift = workdir / "pencil-lift.json"
    save_instance(QuarticInstance(
        n=6, F=Y.F.extend_variables(7) + x[6] ** 4 + x[5] * x[6] * x[0] * x[1],
        f=Y.f, alpha=Y.alpha), lift)
    rep = workdir / "pencil-lift.report.json"
    assert quiet(["parametrize", "--instance", str(lift),
                  "--out", str(workdir / "pencil-lift.slp.json"),
                  "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert [c["kind"] for c in doc["certificates"]] == ["on-variety", "dominance"]
    assert quiet(["replay", "--report", str(rep)]) == 0


@pytest.mark.parametrize("text", [
    "[]", '"abc"', '{"certificates": null}', '{"certificates": 5}'])
def test_replay_rejects_a_document_that_is_not_a_report(text, workdir, capsys):
    bad = workdir / "not-a-report.json"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "replay rejected: not a report document" in capsys.readouterr().out


def test_replay_ties_each_dominance_claim_to_a_program_of_the_report(
        p5_run, workdir, capsys):
    # a genuine dominance certificate of a program that maps into nothing
    # the report certifies: (x0 : x1 : x2 : x3 : 1 : 1)
    _, rep_path = p5_run
    doc = json.loads(rep_path.read_text())
    b = SlpBuilder(4)
    one = b.const(1)
    doc["certificates"][4] = check_dominant(
        b.finish(list(b.inputs) + [one, one], chart=4), 4)
    bad = workdir / "p5.foreign-dominance.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "no on-variety certificate" in capsys.readouterr().out


def test_verify_and_replay_refuse_a_program_with_division(workdir, capsys):
    # (1/t : u/t : v/t : w/t : 1 : 1): programs are polynomial, so a div
    # node is an unknown op and no on-variety claim is made
    nodes = ([{"op": "input", "args": [i]} for i in range(4)]
             + [{"op": "const", "args": [], "value": "1"}]
             + [{"op": "div", "args": [i, 0]} for i in (4, 1, 2, 3)])
    prog = {"version": 1, "in_arity": 4, "out_arity": 6, "nodes": nodes,
            "outputs": [5, 6, 7, 8, 4, 4], "chart": 4}
    path = workdir / "div.slp.json"
    path.write_text(json.dumps(prog))
    capsys.readouterr()
    assert main(["verify", "--slp", str(path),
                 "--instance", str(INSTANCES / "reverse_p5.json")]) == 64
    assert "unknown op 'div' at node 5" in capsys.readouterr().err
    F = pipeline.load_instance(INSTANCES / "reverse_p5.json").F
    cert = {"kind": "on-variety", "version": 1, "F": format_poly(F),
            "nvars": 6, "phi": prog, "tracked_degree": 4,
            "mode": "symbolic", "expansion_hash": "0" * 64}
    rep = workdir / "div.report.json"
    rep.write_text(json.dumps({"version": 1, "command": "parametrize",
                               "outcome": "Success", "certificates": [cert]}))
    assert main(["replay", "--report", str(rep)]) == 4
    assert ("malformed on-variety certificate: unknown op 'div'"
            in capsys.readouterr().out)


def probe_program(k, live):
    """ROADMAP's probes of check work, as a program document onto P^5:
    inputs x0..x3 and a chain of k squarings, of x3 feeding the first
    output (live) or of x0 + x1 feeding no output (dead), beside the
    outputs x0, x1, x2, 1, 1 (live) or x0..x3, 1, 1 (dead).  Written by
    hand: SlpBuilder.finish drops the dead chain, and a chain past
    slp.MAX_NODE_DEGREE cannot be built."""
    nodes = [{"op": "input", "args": [i]} for i in range(4)]
    nodes.append({"op": "const", "args": [], "value": "1"})
    if live:
        base = 3
    else:
        nodes.append({"op": "add", "args": [0, 1]})
        base = 5
    for _ in range(k):
        nodes.append({"op": "mul", "args": [base, base]})
        base = len(nodes) - 1
    outputs = [base, 0, 1, 2, 4, 4] if live else [0, 1, 2, 3, 4, 4]
    bounds = [2 ** k, 1, 1, 1, 0, 0] if live else [1, 1, 1, 1, 0, 0]
    return {"version": 1, "in_arity": 4, "out_arity": 6, "nodes": nodes,
            "outputs": outputs, "degree_bounds": bounds, "chart": 4}


def test_verify_refuses_a_program_whose_degree_no_point_count_covers(
        workdir, capsys, monkeypatch):
    # t^(2^70): the per-point bound 4 * 2^70 / (2^41 + 1) exceeds 1, so no
    # count of points reaches 2^-64; the degree cap refuses the program as
    # it is read, so nothing is sampled
    path = workdir / "squarings.slp.json"
    path.write_text(json.dumps(probe_program(70, live=True)))
    monkeypatch.setattr(SlpMap, "eval_scaled", lambda *args, **kw: pytest.fail("sampled"))
    capsys.readouterr()
    assert main(["verify", "--slp", str(path),
                 "--instance", str(INSTANCES / "reverse_p5.json")]) == 64
    assert "node 15 has degree 2048, above the cap of 1024" in capsys.readouterr().err


@pytest.mark.parametrize("live", [True, False], ids=["live-chain", "dead-chain"])
def test_the_degree_cap_answers_each_probe_within_a_second(
        p5_run, workdir, capsys, live):
    # k = 40 squarings: without the cap the sweeps would not end (the
    # live chain took 56 s at k = 18, the dead one 41 s at k = 12)
    program = probe_program(40, live)
    path = workdir / ("probe-%s.slp.json" % live)
    path.write_text(json.dumps(program))
    doc = json.loads(p5_run[1].read_text())
    cert = doc["certificates"][3]
    assert cert["kind"] == "on-variety"
    cert["phi"] = program
    report = workdir / ("probe-%s.report.json" % live)
    report.write_text(json.dumps(doc))
    message = "node %d has degree 2048, above the cap of 1024" % (15 if live else 16)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", "--slp", str(path),
                 "--instance", str(INSTANCES / "reverse_p5.json")]) == 64
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    start = time.perf_counter()
    assert main(["replay", "--report", str(report)]) == 4
    assert time.perf_counter() - start < 1.0
    assert ("replay rejected: malformed on-variety certificate: " + message
            in capsys.readouterr().out)


def test_verify_ranks_a_chartless_program_in_a_chart(p5_run, workdir, capsys):
    # s * psi(a, b, c, 1) for the written program psi maps onto psi's
    # threefold.  Written with no chart, its raw Jacobian ranks the affine
    # cone over that threefold (4); dominance ranks the chart map (3)
    psi = SlpMap.from_json(json.loads(p5_run[0].read_text()))
    b = SlpBuilder(4)
    s, x, y, z = b.inputs
    outs = psi.eval([x, y, z, b.const(1)], lift=b.const)
    cone = b.finish([s * o for o in outs])
    assert cone.chart is None
    path = workdir / "cone.slp.json"
    cone.save(path)
    capsys.readouterr()
    assert main(["verify", "--slp", str(path),
                 "--instance", str(INSTANCES / "reverse_p5.json")]) == 4
    text = capsys.readouterr().out
    assert "on-variety: pass" in text
    assert "jacobian rank 3 stayed below the target 4" in text


def test_replay_caps_the_stored_point_count(p5_run, workdir, capsys):
    # each stored point costs one evaluation of the program, so a count
    # above MAX_POINTS is refused before sampling; the genuine 2-point
    # document and one written with 20 points still replay
    slp_path, rep_path = p5_run
    doc = json.loads(rep_path.read_text())
    cert = doc["certificates"][3]
    assert (cert["mode"], cert["points"]) == ("randomized", 2)
    assert main(["replay", "--report", str(rep_path)]) == 0
    F = pipeline.load_instance(INSTANCES / "reverse_p5.json").F
    program = SlpMap.from_json(json.loads(slp_path.read_text()))
    doc["certificates"][3] = check_on_variety(program, F, seed=0, points=20)
    full = workdir / "p5.twenty-points.json"
    full.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(full)]) == 0
    doc["certificates"][3] = dict(cert, points=40)
    bad = workdir / "p5.forty-points.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "K = 40 points exceed the cap of 20" in capsys.readouterr().out


def test_replay_ties_a_certify_report_to_one_quartic(workdir, capsys):
    stored = REPO / "perfbench" / "data" / "n8_certify.json"
    assert main(["replay", "--report", str(stored)]) == 0
    fermat = sum((MPoly.variable(i, 9, QQ) ** 4 for i in range(9)),
                 MPoly.zero(9, QQ))
    bad = workdir / "n8_certify.forged.json"
    # genuine certificates, but of the Fermat quartic
    doc = json.loads(stored.read_text())
    doc["certificates"][0] = certify_positive_on_hyperplane(fermat, chart=4)
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "R is not the certified F on {x4 = 0}" in capsys.readouterr().out
    doc = json.loads(stored.read_text())
    doc["certificates"][2] = certify_smooth_mod_p(fermat, 10009)
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4
    assert "disagree on F" in capsys.readouterr().out


def test_parametrize_tries_the_next_witness_when_the_chart_vanishes(workdir):
    # with seed 3 a dominance witness draw zeroes the chart coordinate
    rep = workdir / "p5.seed3.report.json"
    assert quiet(["parametrize", "--instance", str(INSTANCES / "reverse_p5.json"),
                  "--seed", "3", "--out", str(workdir / "p5.seed3.slp.json"),
                  "--report", str(rep)]) == 0
    assert quiet(["replay", "--report", str(rep)]) == 0


def test_parametrize_uses_the_conic_the_instance_stores(workdir):
    # the circle misses {f = 0} for this rank-five form, so the pass starts
    # only from the conic the instance stores
    f = parse_poly("x0^2 + x1^2 - x2^2 + x3^2 - 2*x4^2", nvars=5)
    b = SlpBuilder(1)
    t = b.inputs[0]
    one, zero = b.const(1), b.const(0)
    conic = b.finish([one - t * t, t + t, one + t * t, zero, zero], chart=2)
    _, quart = pipeline.reverse_build(f=f, conic=conic)
    inst = workdir / "own_conic.json"
    save_instance(quart, inst)
    slp = workdir / "own_conic.slp.json"
    rep = workdir / "own_conic.report.json"
    assert main(["parametrize", "--instance", str(inst), "--out", str(slp),
                 "--report", str(rep)]) == 0
    assert main(["replay", "--report", str(rep)]) == 0
    assert main(["verify", "--slp", str(slp), "--instance", str(inst)]) == 0


def test_p5_parametrize_runs_each_stage_once(workdir, monkeypatch):
    calls = {}

    def counted(name):
        orig = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)
        return wrapper

    # count the calls under every name a caller can look the stage up by
    for name in ("solve_quadric_system", "ci23_parametrize"):
        wrapper = counted(name)
        for mod in (pipeline, cli):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    # P^5 and the pencil of P^5 sections of the P^6 lift take the same pass
    Y = pipeline.load_instance(INSTANCES / "reverse_p5.json")
    x = [MPoly.variable(i, 7, QQ) for i in range(7)]
    lift = workdir / "p6_lift.json"
    save_instance(QuarticInstance(
        n=6, F=Y.F.extend_variables(7) + x[6] ** 4 + x[5] * x[6] * x[0] * x[1],
        f=Y.f, alpha=Y.alpha), lift)
    for inst in (INSTANCES / "reverse_p5.json", lift):
        calls.clear()
        assert quiet(["parametrize", "--instance", str(inst),
                      "--out", str(workdir / "once.slp.json"),
                      "--report", str(workdir / "once.report.json")]) == 0
        assert calls == {"solve_quadric_system": 1, "ci23_parametrize": 1}


# -- parametrize: obstructions ----------------------------------------------------


def test_parametrize_obstruction_on_p5(workdir, capsys):
    # F = f^2 + x5 * x0^3: x0^3 restricted to the circle never vanishes
    f6 = sphere_form().extend_variables(6)
    x0 = MPoly.variable(0, 6, QQ)
    x5 = MPoly.variable(5, 6, QQ)
    Y = QuarticInstance(n=5, F=f6 * f6 + x5 * x0 ** 3, f=sphere_form())
    inst = workdir / "obstructed_p5.json"
    save_instance(Y, inst)
    rep = workdir / "obstructed_p5.report.json"
    code = main(["parametrize", "--instance", str(inst),
                 "--out", str(workdir / "obstructed_p5.slp.json"),
                 "--report", str(rep)])
    out = capsys.readouterr().out
    assert code == 2
    assert not (workdir / "obstructed_p5.slp.json").exists()
    doc = json.loads(rep.read_text())
    assert doc["outcome"] == "Obstruction"
    block = doc["obstruction"]
    # the printed line is the block's own message
    assert "obstruction: " + block["message"] in out
    assert block["obstruction"] == ["1", "0", "-3", "0", "3", "0", "-1"]
    assert block["c1"] == "x0^3"
    assert block["quadrics_through_cone"] == [8, 7]
    # rational reports carry c1 and the conic, so replay recomputes the block
    assert main(["replay", "--report", str(rep)]) == 0
    assert "recomputed" in capsys.readouterr().out
    block["obstruction"][0] = "2"
    bad = workdir / "obstructed_bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4


def test_parametrize_refuses_a_slice_form_of_lower_rank(workdir, capsys):
    # f = x0^2 + x1^2 - x4^2 holds the circle and c1 = x0^2*x2 vanishes on
    # it, yet every x5*l + lambda*f is degenerate: a malformed input, not an
    # obstruction
    inst = workdir / "rank3.json"
    inst.write_text(json.dumps({
        "version": 1, "n": 5, "alpha": "1", "f": "x0^2 + x1^2 - x4^2",
        "F": "x0^4 + 2*x0^2*x1^2 + x1^4 - 2*x0^2*x4^2 - 2*x1^2*x4^2 + x4^4"
             " + x5^4 + x0^2*x2*x5"}))
    capsys.readouterr()
    assert main(["parametrize", "--instance", str(inst),
                 "--out", str(workdir / "rank3.slp.json")]) == 64
    assert "f must have rank five" in capsys.readouterr().err
    assert not (workdir / "rank3.slp.json.report.json").exists()


def test_parametrize_names_p_when_it_divides_a_denominator(workdir, capsys):
    # reverse_p5 with every x5 term divided by P = 2^61 - 1: the residual
    # cubic has the denominator P, which no residue mod P can stand for
    P = 2 ** 61 - 1
    inst = pipeline.load_instance(INSTANCES / "reverse_p5.json")
    F = MPoly(6, QQ, {e: c / P if e[5] else c for e, c in inst.F.terms.items()})
    path = workdir / "p_denominator.json"
    pipeline.save_instance(QuarticInstance(n=5, F=F, f=inst.f, alpha=inst.alpha,
                                           conic=inst.conic), path)
    capsys.readouterr()
    assert main(["parametrize", "--instance", str(path),
                 "--out", str(workdir / "p_denominator.slp.json")]) == 64
    assert "p = %d divides the denominator of" % P in capsys.readouterr().err


def test_pencil_rehearsal_stops_at_once_when_p_divides_a_denominator(
        workdir, capsys, monkeypatch):
    # reverse_p5 lifted to P^6 with x5*x6*x0*x1/P: on the section pencil the
    # coefficient with the denominator P is a polynomial in b6, and no other
    # draw of b6 mends it, so the rehearsal runs once
    P = 2 ** 61 - 1
    inst = pipeline.load_instance(INSTANCES / "reverse_p5.json")
    x = lambda i: MPoly.variable(i, 7, QQ)
    F = (inst.F.extend_variables(7) + x(6) ** 4
         + (x(5) * x(6) * x(0) * x(1)).scale(Fraction(1, P)))
    path = workdir / "p_lift.json"
    pipeline.save_instance(QuarticInstance(n=6, F=F, f=inst.f, alpha=inst.alpha,
                                           conic=inst.conic), path)
    calls = []
    dry_plan = pipeline._dry_plan
    monkeypatch.setattr(pipeline, "_dry_plan",
                        lambda *args: calls.append(1) or dry_plan(*args))
    capsys.readouterr()
    assert main(["parametrize", "--instance", str(path),
                 "--out", str(workdir / "p_lift.slp.json")]) == 64
    assert capsys.readouterr().err.startswith(
        "usage error: p = %d divides the denominator" % P)
    assert len(calls) == 1


def test_parametrize_and_certify_refuse_an_instance_that_is_not_an_object(
        workdir, capsys):
    inst = workdir / "array.json"
    inst.write_text("[1, 2]")
    capsys.readouterr()
    assert main(["parametrize", "--instance", str(inst),
                 "--out", str(workdir / "array.slp.json")]) == 64
    assert main(["certify", "--instance", str(inst)]) == 64
    assert capsys.readouterr().err.count("unsupported instance format") == 2


def test_parametrize_exits_3_on_a_reducible_quartic(workdir, capsys):
    # (f + x5*l1)(f + x5*l2) over reverse_p5's f and conic: the witness
    # search succeeds, but at every seeded surface point the vertex
    # direction is singular on the fiber quadric, an event of the seeded
    # construction and not an internal error
    inst = pipeline.load_instance(INSTANCES / "reverse_p5.json")
    f6 = inst.f.extend_variables(6)
    x5 = MPoly.variable(5, 6, QQ)
    l1 = parse_poly("x0 + 2*x2 - x5", nvars=6)
    l2 = parse_poly("3*x1 - x3 + 2*x5", nvars=6)
    path = workdir / "reducible.json"
    save_instance(QuarticInstance(n=5, F=(f6 + x5 * l1) * (f6 + x5 * l2), f=inst.f,
                                  alpha=inst.alpha, conic=inst.conic), path)
    capsys.readouterr()
    for seed in ("0", "1"):
        assert main(["parametrize", "--instance", str(path), "--seed", seed,
                     "--out", str(workdir / "reducible.slp.json")]) == 3
        err = capsys.readouterr().err
        assert err == ("inconclusive: the construction at --seed %s failed: "
                       "SectionSingular: the vertex direction is singular on "
                       "the fiber quadric\n" % seed)
    assert not (workdir / "reducible.slp.json").exists()
    assert not (workdir / "reducible.slp.json.report.json").exists()


def test_parametrize_exits_3_when_the_tangents_coincide(workdir, capsys, monkeypatch):
    # TangentsCoincide was a ValueError, so it exited 64 as a usage error
    def coincide(*args):
        raise TangentsCoincide("the tangent spaces coincide")

    monkeypatch.setattr(pipeline, "_plan_fiber", coincide)
    capsys.readouterr()
    assert main(["parametrize", "--instance", str(INSTANCES / "reverse_p5.json"),
                 "--seed", "2", "--out", str(workdir / "coincide.slp.json")]) == 3
    assert capsys.readouterr().err == (
        "inconclusive: the construction at --seed 2 failed: TangentsCoincide: "
        "the tangent spaces coincide\n")
    # a malformed instance file is still a usage error
    bad = workdir / "no_f.json"
    bad.write_text(json.dumps({"version": 1, "n": 5, "alpha": "1", "F": "x0^4"}))
    assert main(["parametrize", "--instance", str(bad),
                 "--out", str(workdir / "no_f.slp.json")]) == 64
    assert capsys.readouterr().err.startswith("usage error: ")


def test_parametrize_obstruction_on_the_pencil(workdir, capsys):
    rep = workdir / "n8.report.json"
    code = main(["parametrize", "--instance", str(INSTANCES / "n8_cubes.json"),
                 "--out", str(workdir / "n8.slp.json"), "--report", str(rep)])
    out = capsys.readouterr().out
    assert code == 2
    assert ("obstruction: the residual cubic misses the conic for every "
            "section parameter") in out
    doc = json.loads(rep.read_text())
    assert doc["obstruction"]["obstruction"] == [
        "1/16", "0", "-3/16", "1/2*b6", "3/16", "0", "-1/16"]
    assert doc["obstruction"]["parameters"] == ["b6", "b7", "b8"]
    assert main(["replay", "--report", str(rep)]) == 0


def test_pencil_obstruction_replay_recomputes_the_block(workdir, capsys):
    # the block carries the section's c1, with b_i written as x_i, so replay
    # recomputes the coefficients and rejects a changed one
    rep = workdir / "n8.replay.report.json"
    assert quiet(["parametrize", "--instance", str(INSTANCES / "n8_cubes.json"),
                  "--out", str(workdir / "n8.replay.slp.json"),
                  "--report", str(rep)]) == 2
    doc = json.loads(rep.read_text())
    assert doc["obstruction"]["c1"] == (
        "x5^3*x6^4 + x5^3*x7^4 + x5^3*x8^4 + 1/16*x1^3*x6 + 1/16*x2^3*x7 "
        "+ 1/16*x3^3*x8 + 1/16*x0^3 + x5^3")
    capsys.readouterr()
    assert main(["replay", "--report", str(rep)]) == 0
    assert "obstruction block: recomputed check passed" in capsys.readouterr().out
    bad = workdir / "n8.forged.report.json"
    for forged in ("1/17", "1/16 + b7", "1/16*x0"):
        doc["obstruction"]["obstruction"][0] = forged
        bad.write_text(json.dumps(doc))
        assert main(["replay", "--report", str(bad)]) == 4
    assert "replay rejected" in capsys.readouterr().out
    # a consistent block whose c1 vanishes on the conic is not the
    # instance's c1
    doc["obstruction"]["c1"] = "x5^3"
    doc["obstruction"]["obstruction"] = ["0"] * 7
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4
    assert "c1 is not (F - F on M)/x5" in capsys.readouterr().out


def test_obstruction_replay_ties_the_block_to_its_quartic(workdir, capsys):
    # the block stores F; c1 must be the section cubic of that F, and a
    # block without c1 is no longer accepted on structure alone
    rep = workdir / "n8.tie.report.json"
    assert quiet(["parametrize", "--instance", str(INSTANCES / "n8_cubes.json"),
                  "--out", str(workdir / "n8.tie.slp.json"),
                  "--report", str(rep)]) == 2
    genuine = json.loads(rep.read_text())
    assert genuine["obstruction"]["F"] == format_poly(pipeline.load_instance(
        INSTANCES / "n8_cubes.json").F)
    bad = workdir / "n8.tie.forged.json"
    # a c1 consistent with its own coefficients, but not the instance's
    doc = json.loads(rep.read_text())
    doc["obstruction"]["c1"] = "x0^3"
    doc["obstruction"]["obstruction"] = ["1", "0", "-3", "0", "3", "0", "-1"]
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "c1 is not (F - F on M)/x5" in capsys.readouterr().out
    # no c1 at all
    doc = json.loads(rep.read_text())
    del doc["obstruction"]["c1"]
    doc["obstruction"]["obstruction"][0] = "1/17"
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4
    assert "lacks c1" in capsys.readouterr().out
    # an F whose slice misses the conic is not doubled along f
    doc = json.loads(rep.read_text())
    doc["obstruction"]["F"] = doc["obstruction"]["F"].replace("x4^4", "2*x4^4")
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4
    assert "does not restrict to alpha * f^2" in capsys.readouterr().out


def test_obstruction_replay_recounts_the_quadrics_and_the_solutions(workdir, capsys):
    # the block stores f and alpha; replay recounts the quadrics through the
    # cone and takes the solution dimension from c1 on the conic
    rep = workdir / "n8.count.report.json"
    assert quiet(["parametrize", "--instance", str(INSTANCES / "n8_cubes.json"),
                  "--out", str(workdir / "n8.count.slp.json"),
                  "--report", str(rep)]) == 2
    doc = json.loads(rep.read_text())
    block = doc["obstruction"]
    assert (block["kind"], block["version"]) == ("obstruction", 1)
    assert block["f"] == "x0^2 + x1^2 + x2^2 + x3^2 - x4^2"
    assert block["alpha"] == "1"
    assert (block["quadrics_through_cone"], block["solution_dim"]) == ([8, 7], 7)
    bad = workdir / "n8.count.forged.json"
    block["quadrics_through_cone"] = [9, 8]
    block["solution_dim"] = 5
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "quadrics through the cone" in capsys.readouterr().out
    block["quadrics_through_cone"] = [8, 7]
    bad.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(bad)]) == 4
    assert "solution dimension" in capsys.readouterr().out


def test_obstruction_replay_requires_the_obstruction_kind(workdir, capsys):
    # a genuine certificate of another kind in the obstruction slot would
    # replay as its own kind; the obstruction claim itself is then unchecked
    rep = workdir / "n8.kind.report.json"
    assert quiet(["parametrize", "--instance", str(INSTANCES / "n8_cubes.json"),
                  "--out", str(workdir / "n8.kind.slp.json"),
                  "--report", str(rep)]) == 2
    doc = json.loads(rep.read_text())
    F = pipeline.load_instance(INSTANCES / "n8_cubes.json").F
    doc["obstruction"] = certify_positive_on_hyperplane(F, chart=4)
    bad = workdir / "n8.kind.forged.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(bad)]) == 4
    assert "expected kind 'obstruction', found 'positivity'" in capsys.readouterr().out


def test_obstruction_on_a_conic_of_degree_four(workdir, capsys):
    # the circle reparametrized by t^2: c1 = x1^2*(x4 - x0) is 8t^8 on it,
    # past the t^6 that bounds c1 on a conic of degree two
    b = SlpBuilder(1)
    t2 = b.inputs[0] * b.inputs[0]
    t4 = t2 * t2
    one, zero = b.const(1), b.const(0)
    conic = b.finish([one - t4, t2 + t2, zero, zero, one + t4], chart=4)
    assert len(pipeline._conic_vanishing_cubics(conic)[1]) == 49
    f6 = sphere_form().extend_variables(6)
    x0, x1, x4, x5 = (MPoly.variable(i, 6, QQ) for i in (0, 1, 4, 5))
    Y = QuarticInstance(n=5, F=f6 * f6 + x5 * x1 ** 2 * (x4 - x0),
                        f=sphere_form())
    run = pipeline.run_pass(Y, conic)
    assert not run.solver.feasible
    block = certify_obstruction(Y, conic, run)
    assert block["obstruction"] == ["0"] * 8 + ["8"] + ["0"] * 4
    doc = {"version": 1, "command": "parametrize", "outcome": "Obstruction",
           "certificates": [], "obstruction": block}
    rep = workdir / "quartic-conic.report.json"
    rep.write_text(json.dumps(doc))
    assert main(["replay", "--report", str(rep)]) == 0
    block["obstruction"] = block["obstruction"][:7]
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--report", str(rep)]) == 4
    assert "stored obstruction is not the rebuilt one" in capsys.readouterr().out


# -- experiment and general usage --------------------------------------------------


def test_experiment_smoke(workdir, capsys):
    rep = workdir / "exp.report.json"
    code = main(["experiment", "lemma-singdim", "--trials", "2",
                 "--report", str(rep)])
    text = capsys.readouterr().out
    assert code == 0
    assert "predicted projective dimension: -1" in text
    doc = json.loads(rep.read_text())
    assert doc["experiment"]["matches"] == doc["experiment"]["completed"] == 2


def test_main_builds_its_parser_once(workdir, monkeypatch):
    # in-process calls of different commands, with usage errors between
    # them, keep their exit codes and share one parser
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    n8 = str(INSTANCES / "n8_cubes.json")
    stored = str(REPO / "perfbench" / "data" / "n8_certify.json")
    calls = [(["replay", "--report", stored], 0),
             (["replay"], 64),
             (["parametrize", "--instance", n8,
               "--out", str(workdir / "once.slp.json")], 2),
             (["certify", "--instance", n8, "--prime", "ten"], 64),
             (["build-example", "--n", "8", "--out", str(workdir / "once.json")], 0),
             (["no-such-command"], 64),
             (["replay", "--report", stored], 0)]
    assert [quiet(argv) for argv, _ in calls] == [code for _, code in calls]
    assert builds == [1]


def test_usage_errors(workdir, capsys):
    assert main(["experiment", "time-travel"]) == 64
    assert main(["parametrize", "--instance", str(INSTANCES / "n8_cubes.json"),
                 "--conic", "parabola", "--out", str(workdir / "x.json")]) == 64
    assert main(["certify", "--instance", str(workdir / "missing.json")]) == 64
    assert main(["no-such-command"]) == 64
    capsys.readouterr()
