"""Single-field mutations of the documents unirat reads, and a sweep of them.

Each mutant is a genuine document with one value changed in one of six
ways (MUTATIONS), fed to the command that reads it.  The exit-code
contract allows 0, 2, 3, 4 and 64; exit 1 ("internal error") means the
reader let a malformed value through to code that crashed on it.

    PYTHONPATH=src python tests/sweep_documents.py [--json OUT]

runs every mutation class on every value of the six documents, except
that a list longer than four entries is entered only at its first two,
middle and last entries (a program's 853 nodes share four shapes), and
prints how many mutants each document answers with each exit code, the
crashes, and the mutants answered like the genuine document.  pytest does
not collect this file; `test_documents.py` draws from the same mutants.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import shutil
import sys
import tempfile

from unirat.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTANCES = os.path.join(ROOT, "instances")
N8_CERTIFY = os.path.join(ROOT, "perfbench", "data", "n8_certify.json")

MUTATIONS = ("null", "float", "numeric-string", "bool", "drop", "container")
ALLOWED_EXITS = {0, 2, 3, 4, 64}
_DROP = object()
_SAME = object()


def run(argv):
    """Exit code of one in-process `unirat` command, its printout discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def mutated_value(value, how):
    """The replacement for `value`, _DROP to delete it, or _SAME when the
    mutation would leave it as it is."""
    number = type(value) is int
    new = {
        "null": None,
        "float": value + 0.9 if number else 5.9,
        "numeric-string": str(value) if number else "5",
        "bool": value is not True,
        "drop": _DROP,
        "container": {} if type(value) is list else [] if type(value) is dict
        else [value],
    }[how]
    if new is not _DROP and type(new) is type(value) and new == value:
        return _SAME
    return new


def paths(doc, prefix=()):
    """The path of every value below `doc`, entering long lists at four
    entries."""
    if type(doc) is dict:
        items = sorted(doc.items())
    elif type(doc) is list:
        n = len(doc)
        picks = range(n) if n <= 4 else sorted({0, 1, n // 2, n - 1})
        items = [(i, doc[i]) for i in picks]
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def replaced(doc, path, new):
    """A deep copy of `doc` with the value at `path` set to `new`, or
    deleted when `new` is _DROP."""
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return out


def mutate(doc, path, how):
    """`doc` with the value at `path` mutated, or None when the mutation
    leaves it as it is."""
    value = doc
    for key in path:
        value = value[key]
    new = mutated_value(value, how)
    return None if new is _SAME else replaced(doc, path, new)


class Documents:
    """The six genuine documents, made in `work`, and the command that reads
    each one.  `exit_code(name, doc)` writes `doc` and runs that command.
    "n8-certify" is the stored report, whose smooth-mod-p certificates are
    of version 1; "n8-certify-v2" is made afresh."""

    NAMES = ("p5-report", "n8-obstruction", "n8-certify", "n8-instance",
             "p5-program", "n8-certify-v2")

    def __init__(self, work):
        self.work = work
        p5 = os.path.join(INSTANCES, "reverse_p5.json")
        n8 = os.path.join(INSTANCES, "n8_cubes.json")
        program = os.path.join(work, "p5.slp.json")
        p5_report = os.path.join(work, "p5.report.json")
        n8_report = os.path.join(work, "n8.report.json")
        if run(["parametrize", "--instance", p5, "--out", program,
                "--report", p5_report]) != 0:
            raise RuntimeError("parametrize reverse_p5 failed")
        if run(["parametrize", "--instance", n8, "--out",
                os.path.join(work, "n8.slp.json"), "--report", n8_report]) != 2:
            raise RuntimeError("parametrize n8_cubes found no obstruction")
        certify = os.path.join(work, "n8_certify.json")
        shutil.copyfile(N8_CERTIFY, certify)
        fresh = os.path.join(work, "n8_certify-v2.json")
        if run(["certify", "--instance", n8, "--report", fresh]) != 0:
            raise RuntimeError("certify n8_cubes failed")
        self.genuine = {}
        for name, path in zip(self.NAMES, (p5_report, n8_report, certify, n8,
                                           program, fresh)):
            with open(path) as fh:
                self.genuine[name] = json.load(fh)
        self.p5 = p5
        self.expected = {name: self.exit_code(name, self.genuine[name])
                         for name in self.NAMES}

    def exit_code(self, name, doc):
        path = os.path.join(self.work, "mutant-%s.json" % name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        if name == "n8-instance":
            return run(["parametrize", "--instance", path, "--out",
                        os.path.join(self.work, "mutant.slp.json"),
                        "--report", os.path.join(self.work, "mutant.report.json")])
        if name == "p5-program":
            return run(["verify", "--slp", path, "--instance", self.p5])
        return run(["replay", "--report", path])


def _label(path):
    return "/".join(str(k) for k in path)


def sweep(docs):
    """{document: [(path, mutation, exit code)]} over every mutant."""
    results = {}
    for name in docs.NAMES:
        rows = results[name] = []
        for path in paths(docs.genuine[name]):
            for how in MUTATIONS:
                mutant = mutate(docs.genuine[name], path, how)
                if mutant is not None:
                    rows.append((_label(path), how, docs.exit_code(name, mutant)))
    return results


def main_sweep(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="write every mutant's exit code here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        docs = Documents(work)
        results = sweep(docs)
    print("%-16s %8s  %s" % ("document", "mutants", "exit codes"))
    for name, rows in results.items():
        counts = {}
        for _, _, code in rows:
            counts[code] = counts.get(code, 0) + 1
        print("%-16s %8d  %s" % (name, len(rows), ", ".join(
            "%d: %d" % kv for kv in sorted(counts.items()))))
    for title, keep in (("crashes (exit 1)", lambda name, code: code == 1),
                        ("answered like the genuine document",
                         lambda name, code: code == docs.expected[name])):
        print("\n%s:" % title)
        for name, rows in results.items():
            for label, how, code in rows:
                if keep(name, code):
                    print("  %s %s %s -> %d" % (name, label, how, code))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({name: [list(r) for r in rows]
                       for name, rows in results.items()}, fh, indent=1)
    crashes = sum(code == 1 for rows in results.values() for _, _, code in rows)
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
