import json
import os
import subprocess
import sys

import pytest

from trialg.cli import main
from trialg.msc import msc_to_doc
from trialg.catalog import catalog_get


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load(out):
    return json.loads(out)


def test_generate_trivial_family(capsys):
    code, out, _ = run_cli(capsys, "generate", "--name", "A12", "--arity", "3")
    assert code == 0
    doc = load(out)
    assert doc["entries"] == [["0"] * 8, ["0"] * 8]


def test_generate_b4_unit(capsys):
    code, out, _ = run_cli(capsys, "generate", "--name", "A4",
                           "--params", "a1=1,b2=1", "--arity", "3")
    assert code == 0
    assert load(out) == msc_to_doc(catalog_get("Ex52"))


def test_generate_bad_arity_exits_2(capsys):
    code, _, err = run_cli(capsys, "generate", "--name", "A4", "--arity", "1")
    assert code == 2
    assert "arity" in err


def test_generate_from_file(tmp_path, capsys):
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(msc_to_doc(catalog_get("A4", {"a1": 1, "b2": 1}))))
    code, out, _ = run_cli(capsys, "generate", "--input", str(path))
    assert code == 0
    assert load(out) == msc_to_doc(catalog_get("Ex52"))


def test_assoc_true_exits_0(capsys):
    code, out, _ = run_cli(capsys, "assoc", "--name", "B2",
                           "--params", "a1=1/2,b1=0,b2=1/2")
    assert code == 0
    assert load(out)["verdict"] is True


def test_assoc_false_exits_1(capsys):
    code, out, _ = run_cli(capsys, "assoc", "--name", "A2",
                           "--params", "a1=0,b1=0,b2=0")
    assert code == 1
    doc = load(out)
    assert doc["verdict"] is False
    assert doc["violating_tuple"] == [2, 1, 1]


def test_assoc_bad_input_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "arity": 4}')
    code, _, err = run_cli(capsys, "assoc", "--input", str(path))
    assert code == 2 and "missing" in err


def test_assoc_arity_4_rejected(capsys, tmp_path):
    doc = {"dim": 2, "arity": 4, "ring": {"kind": "Q"},
           "entries": [["0"] * 16, ["0"] * 16]}
    path = tmp_path / "a4ary.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "assoc", "--input", str(path))
    assert code == 2


def test_iso_nonisomorphic_exits_1(capsys):
    code, out, _ = run_cli(capsys, "iso", "--a", "A4(a1=1,b2=1)",
                           "--b", "A4(a1=1,b2=-1)", "--prime", "5")
    assert code == 1
    doc = load(out)
    assert doc["witness_count"] == 0 and doc["exhaustive"] is True


def test_iso_self_exits_0_with_identity(capsys):
    code, out, _ = run_cli(capsys, "iso", "--a", "Cstar", "--b", "Cstar",
                           "--prime", "5", "--all")
    assert code == 0
    doc = load(out)
    assert [["1", "0"], ["0", "1"]] in doc["witnesses"]


def test_iso_cstar_vs_b10_exits_1(capsys):
    code, out, _ = run_cli(capsys, "iso", "--a", "Cstar", "--b", "B10", "--prime", "5")
    assert code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_iso_prime_divides_denominator_exits_2(capsys):
    code, _, err = run_cli(capsys, "iso", "--a", "A9", "--b", "A9", "--prime", "3")
    assert code == 2 and "3" in err


def test_express_witness_exits_0(capsys):
    code, out, _ = run_cli(capsys, "express", "--name", "Cdagger", "--primes", "5,7")
    assert code == 0
    doc = load(out)
    assert doc["status"] == "witness"
    assert doc["witness"]["h111"] == "1/3"


def test_express_cstar_exits_1(capsys):
    code, out, _ = run_cli(capsys, "express", "--name", "Cstar", "--primes", "5")
    assert code == 1
    doc = load(out)
    assert doc["status"] in ("no_solution_mod_p", "certified_empty_over_closure")


def test_express_zero_exits_0(capsys, tmp_path):
    doc = {"dim": 2, "arity": 3, "ring": {"kind": "Q"},
           "entries": [["0"] * 8, ["0"] * 8]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "express", "--input", str(path))
    assert code == 0
    assert set(load(out)["witness"].values()) == {"0"}


def test_express_inconclusive_exits_3(capsys):
    code, out, _ = run_cli(capsys, "express", "--name", "Cstar", "--primes", "",
                           "--max-pairs", "2")
    assert code == 3
    assert load(out)["status"] == "inconclusive"


def test_express_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "express", "--input", str(path))
    assert code == 2


def test_catalog_dump_and_single(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert len(load(out)["families"]) == 26
    code, out, _ = run_cli(capsys, "catalog", "--name", "A9")
    assert code == 0
    assert load(out)["entries"][0] == ["1/3", "0", "0", "0"]


def test_table1_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "table1-verify")
    assert code == 0
    doc = load(out)
    assert doc["summary"]["clean"] is True
    assert doc["summary"]["documented_mismatches"] == [
        "table1:A1", "table1:A11", "table1:A7", "table1:A8",
    ]


def test_totassoc_scan_cli(capsys):
    code, out, _ = run_cli(capsys, "totassoc-scan", "--family", "B4")
    assert code == 0
    doc = load(out)
    assert len(doc["points"]) == 7
    code, out, _ = run_cli(capsys, "totassoc-scan", "--family", "B2",
                           "--grid", "0,1/2,-1/2")
    assert code == 0
    assert load(out)["points"] == [["0", "0", "0"], ["1/2", "0", "-1/2"], ["1/2", "0", "1/2"]]


def test_paper_replay_deterministic(capsys, tmp_path):
    args = ("paper-replay", "--primes", "5", "--collision-primes", "5",
            "--no-groebner")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = load(out1)
    assert doc["summary"]["total"] >= 20


def test_paper_replay_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "paper-replay", "--primes", "5",
                             "--collision-primes", "5", "--no-groebner",
                             "--out", str(target))
    assert code == 0
    assert out == ""
    assert "report written" in err
    assert json.loads(target.read_text())["summary"]["clean"] is True


def test_paper_replay_unwritable_out_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "paper-replay", "--primes", "5",
                           "--collision-primes", "5", "--no-groebner",
                           "--out", str(tmp_path / "nodir" / "x.json"))
    assert code == 2


def test_deeply_nested_scalar_exits_2(capsys, tmp_path):
    doc = msc_to_doc(catalog_get("A12"))
    doc["entries"][0][0] = "(" * 5000 + "1" + ")" * 5000
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "assoc", "--input", str(path))
    assert code == 2 and out == ""
    assert "nesting" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("express", "--name", "Cstar", "--primes", "4294967311", "--no-groebner"),
    ("iso", "--a", "Cstar", "--b", "Cdagger", "--prime", "4294967311"),
])
def test_too_large_modulus_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "too large" in err


def test_unknown_input_name_exits_2(capsys):
    code, _, err = run_cli(capsys, "assoc", "--name", "NoSuch")
    assert code == 2 and "NoSuch" in err


def test_missing_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "assoc")
    assert code == 2 and "required" in err


def test_table1_verify_is_byte_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "table1-verify")
    code2, out2, _ = run_cli(capsys, "table1-verify")
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "trialg.cli", "catalog", "--name", "A12"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"] == [["0", "0", "0", "0"],
                                                  ["1", "0", "0", "0"]]
