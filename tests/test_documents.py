"""A document with one malformed field exits with a code of the contract.

The mutants come from `sweep_documents.py`, which runs all of them; here a
derandomized draw of them runs on each document, next to pinned mutants
that once crashed (exit 1) or were accepted after truncation.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sweep_documents import ALLOWED_EXITS, MUTATIONS, Documents, mutate, paths, replaced

# a malformed document is a usage error when loaded, a rejection when replayed
MALFORMED = {"p5-report": 4, "n8-obstruction": 4, "n8-certify": 4,
             "n8-instance": 64, "p5-program": 64, "n8-certify-v2": 4}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    return Documents(str(tmp_path_factory.mktemp("documents")))


def test_genuine_documents_exit_by_their_outcome(docs):
    # the stored report's smooth-mod-p certificates are of version 1, the
    # fresh report's of version 2
    assert docs.expected == {"p5-report": 0, "n8-obstruction": 0,
                             "n8-certify": 0, "n8-instance": 2,
                             "p5-program": 0, "n8-certify-v2": 0}


@pytest.mark.parametrize("name", Documents.NAMES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_one_field_mutants_exit_by_the_contract(docs, name, data):
    genuine = docs.genuine[name]
    path = data.draw(st.sampled_from(list(paths(genuine))), label="path")
    how = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    mutant = mutate(genuine, path, how)
    assume(mutant is not None)
    assert docs.exit_code(name, mutant) in ALLOWED_EXITS


@pytest.mark.parametrize("name, path, value", [
    # crashed with exit 1
    ("p5-report", ("certificates", 0, "version"), None),
    ("p5-report", ("certificates", 2, "version"), None),
    ("n8-certify", ("certificates", 0, "version"), None),
    ("n8-certify", ("certificates", 1, "version"), None),
    ("n8-obstruction", ("obstruction", "version"), None),
    ("p5-report", ("certificates", 0, "kind"), ["on-variety"]),
    ("n8-certify", ("certificates", 1, "kind"), ["smooth-mod-p"]),
    ("n8-instance", ("F",), None),
    ("n8-instance", ("f",), 5.9),
    ("n8-instance", ("alpha",), ["1"]),
    ("n8-instance", ("epsilon",), None),
    ("n8-instance", ("Gamma",), 4),
    ("n8-instance", ("Gamma", "vanishing_coordinate"), [4]),
    ("n8-instance", ("cubics",), [5]),
    ("n8-instance", ("cubics", 0), True),
    ("n8-instance", ("alpha",), "1/0"),
    ("n8-instance", ("epsilon",), "1/0"),
    # accepted after truncation, or never read
    ("n8-instance", ("n",), 8.9),
    ("n8-instance", ("version",), True),
    ("p5-report", ("certificates", 0, "seed"), True),
    ("n8-certify", ("certificates", 1, "pure_powers", "4"), 10.9),
    ("p5-program", ("version",), True),
    ("p5-report", ("version",), 2),
    ("p5-report", ("version",), "1"),
    ("p5-report", ("version",), None),
    ("n8-obstruction", ("obstruction", "version"), 2),
    # an instance's cubics and epsilon rebuild its F, and its M is the slice
    ("n8-instance", ("epsilon",), "5"),
    ("n8-instance", ("epsilon",), "0"),
    ("n8-instance", ("cubics", 0), "x1^3"),
    ("n8-instance", ("M",), "x5..x7 = 0"),
    ("n8-instance", ("M",), "x4..x8 = 0"),
    # the slp block describes the final map, not the sweep onto P^6
    ("p5-report", ("slp", "out_arity"), 7),
    # a version 2 smooth-mod-p certificate binds its order and its stats
    ("n8-certify-v2", ("certificates", 1, "order"), [5, 5, 7, 8, 4, 0, 1, 2, 3]),
    ("n8-certify-v2", ("certificates", 1, "order"), [5, 6, 7, 8, 4, 0, 1, 2, 9]),
    ("n8-certify-v2", ("certificates", 1, "order", 0), 5.0),
    ("n8-certify-v2", ("certificates", 1, "order"), [5, 6, 7, 8, 4, 0, 1, 2]),
    ("n8-certify-v2", ("certificates", 1, "stats", "pure_power_degrees", "0"), 8),
    ("n8-certify-v2", ("certificates", 2, "stats", "basis_size"), 853),
], ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else repr(v))
def test_pinned_mutants_are_malformed(docs, name, path, value):
    mutant = replaced(docs.genuine[name], path, value)
    assert docs.exit_code(name, mutant) == MALFORMED[name]


def test_a_version_2_smooth_certificate_needs_its_order(docs):
    mutant = mutate(docs.genuine["n8-certify-v2"], ("certificates", 1, "order"),
                    "drop")
    assert docs.exit_code("n8-certify-v2", mutant) == 4
