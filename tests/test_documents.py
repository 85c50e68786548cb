"""The msc JSON codec and the CLI's document inputs under generated input.

Round trips: msc_to_doc then msc_from_doc, also through JSON text, gives
back the same algebra over Q, GF(p) and Q[vars].  Hostile documents:
mutations of valid ones (wrong types, huge integers, missing or extra
fields, malformed rows and entries, huge arities) fed to `assoc --input`
and `iso --a` end with an exit code in 0-3 and never raise.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import Phase, example, given, settings, strategies as st

from trialg import ring as rg
from trialg.cli import main
from trialg.msc import Matrix, Msc, msc_from_doc, msc_to_doc

RINGS = (rg.QQ, rg.prime_field(5), rg.prime_field(3037000493),
         rg.polynomial_ring(("a", "b")), rg.polynomial_ring(("x",)))
SHAPES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))

# deterministic, bounded, no example database on disk
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    phases=(Phase.explicit, Phase.generate))


@st.composite
def scalars(draw, ring):
    if ring.kind == "GF":
        return rg.RingElem(ring, draw(st.integers(0, ring.p - 1)))
    fractions = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 6))
    if ring.kind == "Q":
        return rg.RingElem(ring, draw(fractions))
    nvars = len(ring.vars)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                                 fractions.filter(bool), max_size=3))
    return rg.RingElem(ring, terms)


@st.composite
def algebras(draw):
    ring = draw(st.sampled_from(RINGS))
    dim, arity = draw(st.sampled_from(SHAPES))
    width = dim ** arity
    flat = draw(st.lists(scalars(ring), min_size=dim * width, max_size=dim * width))
    return Msc(dim, arity, Matrix(ring, [flat[r * width:(r + 1) * width] for r in range(dim)]))


@SETTINGS
@given(algebras())
def test_codec_round_trips(A):
    doc = msc_to_doc(A)
    assert msc_from_doc(doc) == A
    text = json.dumps(doc)
    again = msc_from_doc(json.loads(text))
    assert again == A
    assert json.dumps(msc_to_doc(again)) == text


HOSTILE = st.one_of(
    st.integers(-3, 20), st.sampled_from([10 ** 7, 10 ** 10, 2 ** 63, -(10 ** 30), 10 ** 100]),
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(),
                                                             max_size=2),
)
# scalar texts: digits, names and operators, plus sizes that used to hang
ENTRY_TEXT = st.one_of(
    st.text(alphabet="0123456789ab+-*/^() ", max_size=12),
    st.sampled_from(["2^9999999999", "((2^100)^100)^100", "(a+b)^99999", "1/0",
                     "9" * 5000, "(" * 200 + "1" + ")" * 200]),
)


@st.composite
def mutated_documents(draw):
    """A valid document with up to three hostile changes."""
    doc = msc_to_doc(draw(algebras()))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["entry", "arity", "row", "ring", "extra", "rows", "replace", "drop"]))
        if kind == "drop":
            doc.pop(draw(st.sampled_from(["dim", "arity", "ring", "entries"])), None)
        elif kind == "replace":
            doc[draw(st.sampled_from(["dim", "arity", "ring", "entries"]))] = draw(HOSTILE)
        elif kind == "ring":
            doc["ring"] = draw(st.one_of(
                HOSTILE,
                st.fixed_dictionaries({"kind": st.sampled_from(["Q", "GF", "poly", "R"])}),
                st.fixed_dictionaries({"kind": st.just("GF"), "p": HOSTILE}),
                st.fixed_dictionaries({"kind": st.just("poly"), "vars": HOSTILE}),
                st.fixed_dictionaries({"kind": st.just("poly"),
                                       "vars": st.lists(st.text(max_size=3), max_size=3)}),
            ))
        elif kind == "arity":
            doc["arity"] = draw(st.sampled_from([10 ** 7, 3 * 10 ** 7, 10 ** 10]))
            if draw(st.booleans()) and isinstance(doc.get("entries"), list):
                doc["entries"] = [[] for _ in doc["entries"]]
        elif not isinstance(doc.get("entries"), list) or not doc["entries"]:
            doc["entries"] = draw(HOSTILE)
        elif kind == "entry":
            row = draw(st.sampled_from(doc["entries"]))
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(ENTRY_TEXT, HOSTILE))
        elif kind == "row":
            row = draw(st.sampled_from(doc["entries"]))
            if isinstance(row, list):
                if row and draw(st.booleans()):
                    row.pop()
                else:
                    row.append("0")
        elif kind == "rows":
            doc["entries"] = draw(st.sampled_from([doc["entries"][:-1], doc["entries"] * 2,
                                                   [doc["entries"]]]))
        else:
            doc[draw(st.text(max_size=4))] = draw(HOSTILE)
    return doc


def _q_doc(dim, arity, entries):
    return {"dim": dim, "arity": arity, "ring": {"kind": "Q"}, "entries": entries}


@SETTINGS
@given(mutated_documents())
@example(_q_doc(3, 10 ** 7, [[], [], []]))  # formed 3^10000000 (10 s), then failed to print it
@example(_q_doc(2, 10 ** 10, [[], []]))
@example(_q_doc(1, 10 ** 7, [["1"]]))  # loads; iso expanded 10^7-factor products
@example(_q_doc(2, 2, [["2^9999999999", "0", "0", "0"], ["0"] * 4]))  # a 1.25 GB power
@example(_q_doc(10 ** 100, 2, [["0"]]))
@example({"dim": 2, "arity": 2, "ring": {"kind": "GF", "p": 10 ** 100}, "entries": [["0"] * 4] * 2})
def test_hostile_documents_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["assoc", "--input", path],
                     ["iso", "--a", path, "--b", path, "--prime", "5"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("trialg: ")
            else:
                json.loads(out.getvalue())
