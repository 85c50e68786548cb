"""The CLI's text inputs other than documents under generated input.

Parameter lists (`catalog --params`, refused without `--name`; the inline
`A4(...)` form, also under `catalog --name`), scan grids
(`totassoc-scan --grid`) and prime lists (`express --primes`) are built from
digits, the operators of the scalar grammar, separators and parameter
names, and given as --option=text, so that a text starting with "-" reaches
the program instead of argparse.  Every run ends with an exit code in 0-3
and never raises; a refusal writes a diagnostic and nothing on stdout.
Number tokens stay below 20: a Cstar sweep mod 23 already takes a quarter
of a second.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from trialg.cli import main

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    phases=(Phase.explicit, Phase.generate))

NUMBERS = st.integers(0, 19).map(str)
NAMES = st.sampled_from(["a1", "b2", "x"])
TOKENS = st.one_of(NUMBERS, st.sampled_from(list("/-+*^(),= ")), NAMES)


@st.composite
def soups(draw):
    """Tokens in any order; two numbers in a row are kept apart by a space,
    so that they never join into one of 20 or more."""
    out = ""
    for token in draw(st.lists(TOKENS, max_size=12)):
        if token.isdigit() and out[-1:].isdigit():
            out += " "
        out += token
    return out


@st.composite
def expressions(draw, atoms):
    out = draw(st.sampled_from(["", "-", "("])) + draw(atoms)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from("+-*^"))
        out += op + draw(NUMBERS if op == "^" else atoms)
    return out + (")" if out.startswith("(") else "")


NUMERALS = st.one_of(NUMBERS, st.builds("{}/{}".format, NUMBERS, NUMBERS))
VALUES = expressions(NUMERALS)
TERMS = expressions(st.one_of(NUMERALS, NAMES))


def joined(items, max_size=4):
    return st.lists(items, max_size=max_size).map(",".join)


# shapes that each input mostly accepts (A4's parameters, grids, primes),
# shapes that mostly fail late (names in values, unknown names) and soups
TEXTS = st.one_of(
    st.builds("a1={},b2={}".format, VALUES, VALUES),
    joined(VALUES), joined(st.sampled_from("2 3 5 7 11 13 17 19 1 9".split()), 3),
    joined(st.one_of(TERMS, st.builds("{}={}".format, NAMES, TERMS))), soups(),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "set_int_max_str_digits" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("trialg: ")
    else:
        json.loads(out.getvalue())
    return code


@SETTINGS
@given(TEXTS)
@example("a1=1,a1=2,b2=3")
@example("a1=19^19^19^19,b2=1")
def test_catalog_params(text):
    run(["catalog", "--name", "A4", f"--params={text}"])


@pytest.mark.parametrize("text", ["zz", "a1=1"])
def test_catalog_params_without_a_name_exits_2(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["catalog", "--params", text])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("trialg: ") and "--name" in err.getvalue()


@SETTINGS
@given(TEXTS)
@example("a1=1/2, b2=-1")
@example(")(")
def test_inline_params(text):
    # catalog --name refuses exactly the inline texts every other command refuses
    assert (run(["assoc", "--name", f"A4({text})"]) == 2) == \
        (run(["catalog", "--name", f"A4({text})"]) == 2)


@SETTINGS
@given(TEXTS)
@example("0,1/2,1,-1/2")
@example(",,")
@example("--")  # argparse before Python 3.13 passes "--" on as []
def test_scan_grid(text):
    run(["totassoc-scan", "--family", "B4", f"--grid={text}"])


@SETTINGS
@given(TEXTS)
@example("19,17,2")
@example("")
def test_express_primes(text):
    run(["express", "--name", "Cstar", "--no-groebner", f"--primes={text}"])


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text", ["5," + "7" * 5000, "7" * 5000, "5,1" + "0" * 4000 + "1"],
                         ids=["second", "only", "composite-within-the-limit"])
def test_a_prime_past_the_digit_limit_exits_2_naming_it(text):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["express", "--name", "Cstar", "--no-groebner", f"--primes={text}"])
    assert code == 2
    message = err.getvalue()
    assert len(message) < 200
    if text.endswith("1"):  # converts, and is refused as composite
        assert message.startswith("trialg: '1000") and "(4002 characters) is not prime" in message
        return
    assert message.startswith("trialg: bad prime '7777") and "(5000 characters)" in message
    assert f"at most {LIMIT} digits" in message


@pytest.mark.parametrize("entry", ["9" * 4000 + "x", "9" * 4000 + "!", "(" + "9" * 4000],
                         ids=["trailing-name", "bad-character", "unclosed"])
def test_a_long_malformed_entry_gives_a_short_diagnostic(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "arity": 2, "ring": {"kind": "Q"},
                                "entries": [[entry]]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["assoc", "--input", str(path)])
    assert code == 2 and out.getvalue() == ""
    message = err.getvalue()
    assert message.startswith("trialg: msc: bad entry: ") and message.count("\n") == 1
    assert "9999'... " in message and f"({len(entry)} characters)" in message
    assert len(message) < 200


@pytest.mark.parametrize("entry, why", [("1/5", "denominator of 1/5 vanishes mod 5"),
                                        ("1/0", "zero denominator in '1/0'")],
                         ids=["vanishing-mod-p", "zero"])
def test_a_bad_denominator_is_a_bad_entry(tmp_path, entry, why):
    # a denominator that p divides used to escape without the document's prefix
    path = tmp_path / "gf5.json"
    path.write_text(json.dumps({"dim": 1, "arity": 2, "ring": {"kind": "GF", "p": 5},
                                "entries": [[entry]]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["assoc", "--input", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"trialg: msc: bad entry: {why}\n")


@pytest.mark.parametrize("argv, prime", [
    (["express", "--name", "Cstar", "--no-groebner", "--primes=5,5"], 5),
    (["express", "--name", "Cstar", "--primes=7,5,11,7"], 7),
    (["paper-replay", "--primes=5,7,5"], 5),
    (["paper-replay", "--collision-primes=5,5"], 5),
], ids=["express", "express-apart", "replay", "replay-collision"])
def test_a_repeated_prime_exits_2_naming_it(argv, prime):
    # swept twice it would be reported twice, and a CRT lift of p with
    # itself works modulo p^2, where p has no inverse
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == f"trialg: prime '{prime}' given more than once\n"


PSI_12 = 318665857834031151167461  # 399165290221 x 798330580441


def test_a_composite_passing_twelve_prime_bases_exits_2(tmp_path):
    path = tmp_path / "gf.json"
    path.write_text(json.dumps({"dim": 2, "arity": 2, "ring": {"kind": "GF", "p": PSI_12},
                                "entries": [["1", "0", "0", "0"], ["0", "0", "0", "1"]]}))
    for argv, message in [
        (["assoc", "--input", str(path)],
         f"trialg: prime field modulus must be prime, got '{PSI_12}'\n"),
        (["express", "--name", "Cstar", f"--primes={PSI_12}"], f"trialg: '{PSI_12}' is not prime\n"),
    ]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == (2, "", message)


def test_a_gf_document_quotes_a_long_modulus(tmp_path):
    # printed in full, a modulus of 4000 digits made a 4048-byte line
    path = tmp_path / "gf.json"
    path.write_text(json.dumps({"dim": 2, "arity": 2, "ring": {"kind": "GF", "p": 10 ** 3999},
                                "entries": [["1", "0", "0", "0"], ["0", "0", "0", "1"]]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["assoc", "--input", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == ("trialg: prime field modulus must be prime, got "
                              f"'1{'0' * 39}'... (4000 characters)\n")


PSI_13 = 3317044064679887385961981  # 1287836182261 x 2575672364521


def test_a_composite_passing_thirteen_prime_bases_exits_2(tmp_path):
    # assoc and generate used to answer over "GF(psi_13)" with exit 0
    path = tmp_path / "gf.json"
    path.write_text(json.dumps({"dim": 2, "arity": 2, "ring": {"kind": "GF", "p": PSI_13},
                                "entries": [["1", "0", "0", "0"], ["0", "0", "0", "1"]]}))
    message = (f"trialg: '{PSI_13}' is a strong probable prime to bases 2-41, "
               f"which decide primality only below psi_13 = {PSI_13}\n")
    for argv in (["assoc", "--input", str(path)],
                 ["generate", "--input", str(path), "--arity", "3"],
                 ["express", "--name", "Cstar", f"--primes={PSI_13}"],
                 ["iso", "--a", "Cstar", "--b", "Cstar", "--prime", str(PSI_13)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == (2, "", message), argv
