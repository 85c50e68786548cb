"""Byte-exact CLI reports against files recorded under tests/golden/.

Each case in golden/cases.json names a command line, its exit code and the
file holding its exact stdout; an ``--input`` fixture is named relative to
tests/golden/.  The files were recorded with the CLI and change only when a
report is meant to change.
"""

import pytest

from trialg import cli, polysolve
from trialg import ring as rg

from conftest import GOLDEN, GOLDEN_CASES, golden_argv


def run_case(case, capsys):
    code = cli.main(golden_argv(case["argv"]))
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / case["stdout"]).read_bytes()
    assert code == case["exit"]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["stdout"][:-4] for c in GOLDEN_CASES])
def test_report_is_byte_identical(case, capsys):
    run_case(case, capsys)


def test_express_witnesses_are_checked_without_fraction_evaluation(capsys, monkeypatch):
    # the lift (at 5, at 7, by CRT over 35 and the failed lift ending in a
    # GF(p) witness) and the re-check of sweep hits work in integers
    def refuse(*args):
        raise AssertionError("a witness was checked by Fraction evaluation")

    monkeypatch.setattr(rg, "_poly_eval", refuse)
    assert not hasattr(polysolve, "_poly_eval")
    for case in GOLDEN_CASES:
        if case["argv"][0] == "express":
            run_case(case, capsys)
