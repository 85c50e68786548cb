import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trialg import identities, iso, msc, polysolve
from trialg import ring as rg
from trialg.cli import COMMANDS, _json, build_parser, main
from trialg.msc import BasisChange, Msc, msc_to_doc, transform
from trialg.catalog import catalog_get

from conftest import GOLDEN_CASES, golden_argv


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


def test_iso_prime_divides_denominator_exits_2(capsys):
    # the weak-evidence warning comes first, as a diagnostic, not a warning
    code, _, err = run_cli(capsys, "iso", "--a", "A9", "--b", "A9", "--prime", "3")
    assert code == 2
    assert err.splitlines()[1:] == ["trialg: denominator of 1/3 vanishes mod 3"]


@pytest.mark.parametrize("prime", ["15", "1", "-7"])
def test_iso_composite_prime_exits_2(capsys, prime):
    code, out, err = run_cli(capsys, "iso", "--a", "Cstar", "--b", "Cstar", "--prime", prime)
    assert (code, out) == (2, "")
    assert err == f"trialg: prime field modulus must be prime, got '{prime}'\n"


@pytest.mark.parametrize("command", ["express", "paper-replay"])
@pytest.mark.parametrize("degree", ["-1", "1025", "1" + "0" * 4000])
def test_max_degree_out_of_range_exits_2_before_any_work(capsys, command, degree):
    argv = [command, "--max-degree", degree] + (["--name", "Cstar"] if command == "express" else [])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "trialg: max_degree must lie between 0 and 1024\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("prime", [2, 3])
def test_iso_weak_characteristic_warns_in_one_line(capsys, prime):
    # the library's RuntimeWarning, without its file, line and source line
    code, out, err = run_cli(capsys, "iso", "--a", "Cstar", "--b", "Cstar",
                             "--prime", str(prime))
    assert code == 0
    assert out == _json({"exhaustive": False, "prime": prime, "witness_count": 1,
                         "witnesses": [[["0", "1"], ["1", "0"]]]}) + "\n"
    assert err == (f"trialg: isomorphism evidence over GF({prime}) is weak: "
                   "characteristics 2 and 3 sit outside the intended evidence range\n")


@pytest.mark.parametrize("prime", [2, 3])
def test_paper_replay_weak_characteristic_warns_once_in_one_line(capsys, prime):
    # both collision claims search at the prime and warn alike; p = 3
    # divides a denominator of the Cdagger pair, which ends the replay
    code, out, err = run_cli(capsys, "paper-replay", "--collision-primes", f"11,{prime}")
    warning = (f"trialg: isomorphism evidence over GF({prime}) is weak: "
               "characteristics 2 and 3 sit outside the intended evidence range\n")
    if prime == 2:
        assert code == 1 and load(out)["summary"]["clean"] is False
        assert err == warning
    else:
        assert (code, out) == (2, "")
        assert err == warning + "trialg: denominator of 1/3 vanishes mod 3\n"


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


@pytest.mark.parametrize("family, grid, message", [
    ("B4", "--grid=,", "empty grid"),
    ("B4", "--grid=", "empty grid"),
    ("B1", "--grid=" + ",".join(map(str, range(18))), "exceeds the scan budget"),
])
def test_totassoc_scan_bad_grid_exits_2(capsys, family, grid, message):
    code, out, err = run_cli(capsys, "totassoc-scan", "--family", family, grid)
    assert code == 2 and out == ""
    assert message in err


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


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "assoc", "--input", str(path))
    assert code == 2 and out == ""
    assert "nested too deeply" in err


def test_oversized_products_exit_2(capsys, tmp_path):
    # 2 x 2^40 generated entries; three 10 x 10^5 residuals
    path = tmp_path / "dim10.json"
    path.write_text(json.dumps(msc_to_doc(Msc.zero(rg.QQ, 10, 3))))
    for argv in (("generate", "--name", "A4(a1=1,b2=1)", "--arity", "40"),
                 ("assoc", "--input", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "exceeds 262144 entries" in err


def test_generate_dimension_1_huge_arity_exits_2(capsys, tmp_path, monkeypatch):
    # a 1 x 1 result never exceeds the entry budget, so only the arity bound
    # stops this; refusing the kernel shows that no product is built first
    def refuse(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(msc, "_nest_ints", refuse)
    path = tmp_path / "dim1.json"
    path.write_text(json.dumps({"dim": 1, "arity": 2, "ring": {"kind": "Q"},
                                "entries": [["2"]]}))
    code, out, err = run_cli(capsys, "generate", "--input", str(path),
                             "--arity", "100000000")
    assert code == 2 and out == ""
    assert "exceeds 262144 entries" in err


@pytest.mark.parametrize("argv", [
    ("express", "--name", "Cstar", "--primes", "4294967311", "--no-groebner"),
    ("iso", "--a", "Cstar", "--b", "Cdagger", "--prime", "4294967311"),
])
def test_too_large_modulus_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "too large" in err


def test_iso_past_its_work_budget_exits_2(capsys, monkeypatch):
    # used to run without end; at the default budget it is refused after
    # some seconds, a smaller one takes the same path at once.  The Cdagger
    # collision pair agrees on every invariant of the screen, so it reaches
    # the enumerator and its budget
    p = 3037000493
    pair = [catalog_get("A4", {"a1": Fraction(1, 3), "b2": Fraction(-1, 3)}),
            catalog_get("A5", {"a1": Fraction(1, 3)})]
    assert len({iso._invariants(X.reduce_mod(p).rows, 2, 2, p) for X in pair}) == 1
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 1 << 20)
    code, out, err = run_cli(capsys, "iso", "--a", "A4(a1=1/3,b2=-1/3)",
                             "--b", "A5(a1=1/3)", "--prime", str(p))
    assert code == 2 and out == ""
    assert f"passed {1 << 20} rows unfinished" in err


def test_iso_separated_by_invariants_is_answered_past_the_budget(capsys, monkeypatch):
    # Cstar and Cdagger differ in an invariant mod p, so the exact answer
    # comes without a scan even where a scan could not finish
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 0)
    code, out, _ = run_cli(capsys, "iso", "--a", "Cstar", "--b", "Cdagger",
                           "--prime", "3037000493")
    assert code == 1
    doc = load(out)
    assert doc["witness_count"] == 0 and doc["exhaustive"] is True


@pytest.mark.parametrize("groebner, code, status", [
    ("--no-groebner", 3, "inconclusive"),
    ("--groebner", 1, "certified_empty_over_closure"),
])
def test_express_past_its_work_budget_is_inconclusive(capsys, monkeypatch,
                                                       groebner, code, status):
    # a sweep refused by the row budget is no evidence either way: it leaves
    # an inconclusive entry for its prime and the pipeline goes on
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 1 << 20)
    p = 3037000493
    got, out, err = run_cli(capsys, "express", "--name", "Cstar", "--primes", f"5,{p}",
                            groebner)
    assert (got, err) == (code, "")
    doc = load(out)
    assert doc["status"] == status
    sweeps = doc["evidence"][:2]
    assert sweeps[0]["status"] == "no_solution_mod_p"
    assert sweeps[1]["status"] == "inconclusive" and sweeps[1]["prime"] == p
    assert sweeps[1]["effort"] == {"prime": p, "assignments": p ** 8,
                                   "exhaustive": False, "row_budget_hit": True}
    assert len(doc["evidence"]) == (3 if groebner == "--groebner" else 2)


def test_iso_on_a_dimension_10_ternary_algebra_exits_2_before_building(
        capsys, tmp_path, monkeypatch):
    # only 10 x 10^3 entries, but 10^7 products to expand
    def refuse(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(msc.Msc, "reduce_mod", refuse)
    monkeypatch.setattr(iso, "_iso_polys", refuse)
    doc = msc_to_doc(Msc.zero(rg.QQ, 10, 3))
    doc["entries"][0][0] = "1"
    path = tmp_path / "dim10.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "iso", "--a", str(path), "--b", str(path),
                             "--prime", "5")
    assert code == 2 and out == ""
    assert "more than 262144" in err


@pytest.mark.parametrize("doc", [
    # 80 bytes: 3^10000000 was formed (10 s) and printed (a 4300-digit error)
    {"dim": 3, "arity": 10000000, "ring": {"kind": "Q"}, "entries": [[], [], []]},
    # 2^10000000000 would take a 1.25 GB integer
    {"dim": 2, "arity": 10000000000, "ring": {"kind": "Q"}, "entries": [[], []]},
    {"dim": 2, "arity": 10000000000, "ring": {"kind": "Q"}, "entries": [["0"] * 64] * 2},
    # dimension 1 loads: the commands refuse the arity
    {"dim": 1, "arity": 10000000, "ring": {"kind": "Q"}, "entries": [["1"]]},
])
@pytest.mark.parametrize("command", ["assoc", "iso", "express"])
def test_huge_arity_document_exits_2_at_once(capsys, tmp_path, doc, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = {
        "assoc": ("assoc", "--input", str(path)),
        "iso": ("iso", "--a", str(path), "--b", str(path), "--prime", "5"),
        "express": ("express", "--input", str(path)),
    }[command]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert time.perf_counter() - start < 1
    assert "arity" in err and "digits" not in err


def test_documents_that_fit_their_arity_still_load():
    for dim, arity in ((1, 2), (1, 18), (2, 2), (2, 3), (2, 5), (3, 3), (4, 2)):
        doc = msc_to_doc(Msc.zero(rg.QQ, dim, arity))
        assert msc.msc_from_doc(doc) == Msc.zero(rg.QQ, dim, arity)
    for doc, field in (
        ({"dim": 2, "arity": 3, "ring": {"kind": "Q"}, "entries": [["0"] * 4] * 2}, "arity"),
        ({"dim": 2, "arity": 3, "ring": {"kind": "Q"}, "entries": [["0"] * 9] * 2}, "entries"),
        ({"dim": 2, "arity": 3, "ring": {"kind": "Q"}, "entries": [["0"] * 8]}, "entries"),
        ({"dim": 1, "arity": 3, "ring": {"kind": "Q"}, "entries": [["0"] * 2]}, "entries"),
    ):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            msc.msc_from_doc(doc)


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


def test_numpy_is_imported_only_to_enumerate():
    # building the parser (what every command pays) loads only trialg and
    # trialg.cli, and leaves numpy out; the first sweep imports numpy
    code = (
        "import sys\n"
        "from trialg import cli\n"
        "cli.build_parser()\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'trialg')\n"
        "assert loaded == ['trialg', 'trialg.cli'], loaded\n"
        "assert 'numpy' not in sys.modules, 'numpy imported at start-up'\n"
        "status = cli.main(['express', '--name', 'Cdagger'])\n"
        "assert 'numpy' in sys.modules\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "witness"


def fresh_process(code):
    """stdout of ``code`` run in a new interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('trialg.'))"


def test_import_trialg_loads_no_submodule():
    assert fresh_process(f"import sys, trialg\nprint({LOADED})") == "[]\n"


A4_11 = ("A4", {"a1": 1, "b2": 1})


@pytest.mark.parametrize("command, algebra, runs, left_out", [
    ("assoc", A4_11, "identities", {"catalog", "polysolve", "iso", "generate"}),
    ("generate", A4_11, "generate", {"catalog", "polysolve", "iso", "identities"}),
    ("express", ("Cdagger", None), "polysolve", {"catalog", "iso"}),
])
def test_a_command_on_a_file_loads_only_what_it_runs(tmp_path, command, algebra, runs,
                                                     left_out):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(msc_to_doc(catalog_get(*algebra))))
    code = ("import contextlib, io, json, sys\n"
            "from trialg import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main([{command!r}, '--input', {str(path)!r}])\n"
            f"print(json.dumps([status, {LOADED}]))\n")
    status, loaded = json.loads(fresh_process(code))
    loaded = {m.split(".")[1] for m in loaded}
    assert status in (0, 1) and runs in loaded
    assert not loaded & left_out


# every name trialg exports, by the module that defines it
EXPORTS = {
    "ring": "Ring RingElem prime_field polynomial_ring parse_scalar substitute",
    "msc": "Matrix Msc BasisChange kron eval_product transform basis_vector msc_to_doc "
           "msc_from_doc",
    "generate": "generate_nary expressibility_residual symbolic_system",
    "identities": "total_assoc_residuals is_totally_associative quintuple_oracle "
                  "binary_assoc_residual assoc_report",
    "iso": "iso_verify iso_search iso_report",
    "polysolve": "PolySystem SolveOutcome solve_ff_exhaustive buchberger "
                 "certify_expressibility",
    "catalog": "catalog_get catalog_names table1_verify totassoc_scan claims_verify "
               "paper_replay",
}


def test_every_export_and_submodule_resolves_after_a_bare_import():
    code = (
        "import importlib, trialg\n"
        "assert trialg.catalog is importlib.import_module('trialg.catalog')\n"
        f"for module, names in {EXPORTS!r}.items():\n"
        "    owner = importlib.import_module('trialg.' + module)\n"
        "    for name in names.split():\n"
        "        scope = {}\n"
        "        exec(f'from trialg import {name} as value', scope)\n"
        "        assert scope['value'] is getattr(owner, name), name\n"
        "        assert name in dir(trialg) and name in trialg.__all__, name\n"
        "try:\n"
        "    trialg.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert fresh_process(code) == "module 'trialg' has no attribute 'nope'\n"
    assert sum(len(names.split()) for names in EXPORTS.values()) == 37


GOLDEN_ARGVS = [case["argv"] for case in GOLDEN_CASES]


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_one_command_parser_parses_like_the_full_one(argv):
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


def parse_output(parser, argv):
    """(exit code, stdout, stderr) of a parse that argparse ends with exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_prints_the_full_help(command):
    full = parse_output(build_parser(), [command, "--help"])
    assert parse_output(build_parser(command), [command, "--help"]) == full
    assert full[0] == 0 and full[1].startswith(f"usage: trialg {command} [-h]")


CHOICES = "{" + ",".join(COMMANDS) + "}"


@pytest.mark.parametrize("argv, usage, message", [
    (["assoc", "--input", "x", "extra"], CHOICES, "unrecognized arguments: extra"),
    (["assoc", "--nope"], CHOICES, "unrecognized arguments: --nope"),
    (["iso", "--a", "x"], "usage: trialg iso [-h]",
     "the following arguments are required: --b, --prime"),
    (["bogus"], CHOICES, "argument command: invalid choice: 'bogus'"),
    ([], CHOICES, "the following arguments are required: command"),
])
def test_usage_errors_read_as_the_full_parser_gives_them(capsys, argv, usage, message):
    # the full parser, which --help and unknown commands still get, is the reference
    expected = parse_output(build_parser(), argv)
    assert run_cli(capsys, *argv) == (2, "", expected[2])
    assert expected[0] == 2 and usage in expected[2]
    assert f"error: {message}" in expected[2]


@pytest.mark.parametrize("argv", [
    ["catalog", "--name", "A4", "--params", "a1=1,a1=2,b2=3"],
    ["assoc", "--name", "A4(a1=1, a1=2, b2=3)"],
    ["iso", "--a", "A4", "--params-a", "a1=1,b2=3", "--b", "A4",
     "--params-b", "a1=1,b2=3,a1 =2", "--prime", "5"],
])
def test_repeated_parameter_name_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "'a1' given more than once" in err


NINES = "9" * 4000
LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("entry, argv, message", [
    # a literal past the limit, in an entry and in a scan grid
    ("1" + "0" * 4999, ["assoc"], f"integer literal of 5000 digits exceeds the limit of {LIMIT}"),
    ("1", ["totassoc-scan", "--family", "B4", "--grid=" + "1" * 5000],
     f"integer literal of 5000 digits exceeds the limit of {LIMIT}"),
    # results too long to print: a 16000-digit entry, an 8000-digit grid value,
    # and the 4399-digit square that generate forms from a 2200-digit entry
    (f"{NINES}*{NINES}", ["generate", "--arity", "3"],
     f"a scalar past {LIMIT} digits is too long to print"),
    ("1", ["totassoc-scan", "--family", "B4", f"--grid={NINES}*{NINES}"],
     f"a scalar past {LIMIT} digits is too long to print"),
    ("1" * 2200, ["generate", "--arity", "3"],
     f"a scalar past {LIMIT} digits is too long to print"),
])
def test_integers_past_the_digit_limit_exit_2_naming_it(capsys, tmp_path, entry, argv,
                                                        message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "arity": 2, "ring": {"kind": "Q"},
                                "entries": [[entry]]}))
    if argv[0] != "totassoc-scan":
        argv = argv[:1] + ["--input", str(path)] + argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err
    assert "set_int_max_str_digits" not in err


def test_no_command_reaches_a_reference_path(capsys, tmp_path, monkeypatch):
    # the golden commands, assoc binary and ternary over Q and GF(5) (clean,
    # violating and symbolic), generate, totassoc-scan, express with a lifted
    # witness and iso --all with a witness; their bytes must not change when
    # the references raise
    argvs = [golden_argv(case["argv"]) for case in GOLDEN_CASES]
    algebras = {"b2": catalog_get("B2", {"a1": Fraction(1, 2), "b1": 0, "b2": Fraction(1, 2)}),
                "b11": catalog_get("B11"), "a4": catalog_get("A4", {"a1": 1, "b2": 0}),
                "a2": catalog_get("A2", {"a1": 0, "b1": 0, "b2": 0})}
    for name, A in algebras.items():
        for suffix, B in (("q", A), ("gf5", A.reduce_mod(5))):
            path = tmp_path / f"{name}-{suffix}.json"
            path.write_text(json.dumps(msc_to_doc(B)))
            argvs.append(["assoc", "--input", str(path)])
    argvs += [["assoc", "--name", "B4"], ["assoc", "--name", "A2"],
              ["generate", "--name", "A4", "--params", "a1=1,b2=1", "--arity", "4"],
              ["totassoc-scan", "--family", "B4", "--grid=0,1/2,1,-1/2"],
              ["express", "--name", "Cdagger"],
              ["iso", "--a", "A2", "--params-a", "a1=1,b1=1,b2=1", "--b", "A2",
               "--params-b", "a1=1,b1=-1,b2=1", "--prime", "7", "--all"],
              ["iso", "--a", str(tmp_path / "b11-q.json"), "--b", str(tmp_path / "b11-g.json"),
               "--prime", "7", "--all"]]
    g = BasisChange.from_strings(rg.QQ, [["1", "1"], ["0", "2"]])
    (tmp_path / "b11-g.json").write_text(json.dumps(msc_to_doc(transform(algebras["b11"], g))))
    expected = [run_cli(capsys, *argv) for argv in argvs]
    assert {code for code, _, _ in expected} == {0, 1}
    assert all(json.loads(out)["witness_count"] for _, out, _ in expected[-2:])

    def refuse(*args, **kwargs):
        raise AssertionError("a command reached a reference path")

    for owner, name in ((identities, "quintuple_oracle"), (identities, "binary_triple_oracle"),
                        (msc, "eval_product"), (msc.Matrix, "__mul__"), (msc.Matrix, "kron"),
                        (msc.Matrix, "__add__"), (msc.Matrix, "__sub__"),
                        (msc.Matrix, "map_entries"),
                        (polysolve, "solve_ff_reference"), (polysolve, "reduce_poly"),
                        (polysolve, "groebner_selfcheck")):
        monkeypatch.setattr(owner, name, refuse)
    # no command builds a Matrix: an algebra's Matrix of RingElems, and a
    # polynomial system's RingElems, are built only where one is asked for
    monkeypatch.setattr(msc.Matrix, "__init__", refuse)
    monkeypatch.setattr(msc.Msc, "mat", property(refuse))
    monkeypatch.setattr(polysolve.PolySystem, "polys", property(refuse))
    assert [run_cli(capsys, *argv) for argv in argvs] == expected


class Tag(str):
    pass


class Count(int):
    pass


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30), st.text())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(JSON_VALUES)
@example({"\u00e9\n\t\"\\\x00\ud800\U0001f600": [[], {}, (), True, False, None, -0, 10 ** 40]})
@example([{"b": 1, "a": [2, {"c": None}]}, "", [[[]]]])
@example({"residual_nonzeros": [{"which": "ab"[i % 2], "row": i % 3, "col": -i, "value": str(i),
                                 "zero": None, "kept": i % 5 == 0} for i in range(300)]})
@example({Tag("k\u00e9"): [Tag("v\n"), Count(7), {Tag("a"): Tag("")}], "b": Tag("x")})
def test_report_writer_gives_the_bytes_of_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, [{"a": {2}}], b"x"])
def test_report_writer_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        _json(value)
