"""Self-check of the benchmark's checkers.

    python3 perfbench/selfcheck.py

Each workload's checker is fed a genuine output, which it must pass, and
one wrong output, which it must fail: a flipped verdict (certify-n8,
replay), a perturbed program constant and a wrong obstruction coefficient
(parametrize), and a wrong dimension (singdim).  Also checks that
BENCHMARK.json lists exactly the per-layer metrics the traced run reports.
Exits 0 when every case behaves, 1 otherwise.  Takes a few seconds.
"""

import json
import os
import shutil
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads as W  # noqa: E402


def main():
    work = os.path.join(HERE, "work", "selfcheck-%d" % os.getpid())
    os.makedirs(work)
    bad = []

    def expect(label, wl, results, wrong):
        _, problems = W.judge(wl, results)
        ok = bool(problems) == wrong
        print("%-4s %-46s %s" % ("ok" if ok else "BAD", label,
                                 problems[0] if problems else "passes"))
        if not ok:
            bad.append(label)

    try:
        # certify-n8: the stored two-prime report, cut to one prime
        wl = W.CertifyN8(0)
        wl.setup(work)
        op = wl.ops[0]
        doc = W.read_json(W.N8_CERTIFY_REPORT)
        doc["certificates"] = [c for c in doc["certificates"]
                               if c.get("p") in (None, wl.prime)]
        W.write_json(wl.report, doc)
        expect("certify-n8 genuine report", wl, [(op, 0, 0.0)], False)
        doc["outcome"] = "Inconclusive"
        W.write_json(wl.report, doc)
        expect("certify-n8 flipped verdict", wl, [(op, 0, 0.0)], True)

        # singdim: one (2, 2) trial
        wl = W.Singdim(0)
        wl.setup(work)
        op = wl.ops[0]
        rep = op.fn()
        expect("singdim genuine trial", wl, [(op, rep, 0.0)], False)
        wrong = dict(rep, dimension_counts={"0": 1})
        expect("singdim wrong dimension", wl, [(op, wrong, 0.0)], True)

        # parametrize: the shipped P^5 instance, and the n = 8 obstruction
        wl = W.Parametrize(0)
        op = W.parametrize_op(W.REVERSE_P5, 0, work)
        code = op.fn()
        expect("parametrize genuine program", wl, [(op, code, 0.0)], False)
        out = op.files[1]
        W.write_json(out, W.tamper_program(W.read_json(out)))
        expect("parametrize perturbed program constant", wl,
               [(op, code, 0.0)], True)
        op = W.parametrize_op(W.N8_CUBES, 0, work, expect=2)
        code = op.fn()
        expect("parametrize genuine obstruction", wl, [(op, code, 0.0)], False)
        rep = W.read_json(op.files[2])
        rep["obstruction"]["obstruction"][3] = "1/3*b6"
        W.write_json(op.files[2], rep)
        expect("parametrize wrong obstruction coefficient", wl,
               [(op, code, 0.0)], True)

        # replay: a genuine document whose verdict is flipped
        wl = W.Replay(0)
        op = W.cli_op("replay n8_certify.json",
                      ["replay", "--report", W.N8_CERTIFY_REPORT], 0)
        code = op.fn()
        expect("replay genuine document", wl, [(op, code, 0.0)], False)
        expect("replay flipped verdict", wl, [(op, 4, 0.0)], True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = [(m["name"], m["unit"], m["better"])
                    for m in json.load(fh)["per_layer"]]
    same = declared == spans.per_layer_metrics()
    print("%-4s %-46s" % ("ok" if same else "BAD",
                          "BENCHMARK.json per_layer = traced metrics"))
    if not same:
        bad.append("per_layer")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
