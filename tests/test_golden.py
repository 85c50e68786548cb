"""Byte-exact CLI reports against files recorded under tests/golden/.

Each case in golden/cases.json names a command line, its exit code and the
file holding its exact stdout.  The files were recorded with the CLI and
change only when a report is meant to change.
"""

import json
from pathlib import Path

import pytest

from trialg import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"][:-4] for c in CASES])
def test_report_is_byte_identical(case, capsys):
    code = cli.main(case["argv"])
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / case["stdout"]).read_bytes()
    assert code == case["exit"]
