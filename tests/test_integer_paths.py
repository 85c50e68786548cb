"""Each integer fast path against the code it replaces.

The commands read plain entries without the tokenizer, hold algebras and
basis changes as the contraction kernel's integer numerators, print
generated algebras and associativity reports from them, specialize catalog
templates in integers, and parse documents straight to them.  Each of
those paths is checked here against the RingElem path it stands in for:
the scalar parser, the Matrix of _from_ints and its to_strings(), nesting
on Matrices, the report built from total_assoc_residuals /
binary_assoc_residual, quintuple_oracle, rg.substitute entry by entry, the
Matrix products g . g^-1 and g . A . (g^-1)^(tensor n), and the Matrix of
a document's parsed entries.
"""

import sys
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from trialg import msc
from trialg import ring as rg
from trialg.generate import generate_nary
from trialg.identities import (
    assoc_report,
    binary_assoc_residual,
    is_totally_associative,
    quintuple_oracle,
    total_assoc_residuals,
)
from trialg.msc import (
    BasisChange,
    Matrix,
    Msc,
    column_tuple,
    msc_from_doc,
    msc_to_doc,
    transform,
)

from conftest import nest

Q = rg.QQ
F = Fraction
POLY = rg.polynomial_ring(["a", "b"])
RINGS = (Q, rg.prime_field(2), rg.prime_field(5), rg.prime_field(7), POLY)
FIELDS = (Q, rg.prime_field(5), rg.prime_field(7))
LIMIT = sys.get_int_max_str_digits()
TOO_LONG = f"a scalar past {LIMIT} digits is too long to print"
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the parser's plain-entry path
# ---------------------------------------------------------------------------

# ASCII digits, the grammar's signs and '/', a blank, and digits of other
# scripts (Arabic-Indic three, Devanagari seven, fullwidth one), which the
# tokenizer reads as digits and the plain-entry path must leave to it
SCALAR_CHARS = "-+/0123456789 ٣७１"


@SETTINGS
@given(text=st.text(SCALAR_CHARS, max_size=8), ring=st.sampled_from(RINGS))
def test_plain_entries_parse_as_the_parser_reads_them(text, ring):
    assert outcome(rg.parse_scalar, text, ring) == outcome(lambda: rg._Parser(text, ring).parse())


@pytest.mark.parametrize("text", [
    "0", "-0", "007", "-3", "7/2", "-7/2", "6/4", "0/5", "-0/5", "3/0", "-3/0", "0/0",
    "10/5", "-10/5", "25/7", "2/1", "3/", "/3", "--3", "-", "", "1/2/3",
    "1" * (LIMIT + 1), "-" + "1" * (LIMIT + 1), "1/" + "1" * (LIMIT + 1), "1" * LIMIT,
], ids=lambda text: repr(text) if len(text) < 12 else f"{text[:3]}...({len(text)} chars)")
@pytest.mark.parametrize("ring", RINGS)
def test_plain_entry_edge_cases_keep_value_and_refusal(text, ring):
    assert outcome(rg.parse_scalar, text, ring) == outcome(lambda: rg._Parser(text, ring).parse())


# ---------------------------------------------------------------------------
# printing from integers
# ---------------------------------------------------------------------------

def numerators(ring, width):
    """One row of numerators as _nest_ints leaves it: unreduced ints over
    every ring, {monomial: int} dicts with zero coefficients over Q[vars]."""
    if ring.kind != "poly":
        return st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=width, max_size=width)
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.lists(st.dictionaries(monos, st.integers(-40, 40), max_size=3),
                    min_size=width, max_size=width)


SHAPES = st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])


def kernel_output(data, ring, shape, den):
    """Drawn (rows, den) numerators of a dim x dim^arity matrix (den 1 over
    GF(p), whose rows are residues), or these nested into themselves."""
    dim, arity = shape
    rows = data.draw(st.lists(numerators(ring, dim ** arity), min_size=dim, max_size=dim))
    if ring.kind == "GF":
        rows, den = [[v % ring.p for v in row] for row in rows], 1
    if dim ** (2 * arity) <= 64 and data.draw(st.booleans()):
        rows, den = msc._nest_ints(ring, (rows, den), arity, arity, (rows, den))
        arity = 2 * arity - 1
    return dim, arity, rows, den


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(RINGS), shape=SHAPES, den=st.integers(1, 60))
def test_integer_texts_are_the_matrix_strings(data, ring, shape, den):
    dim, arity, rows, den = kernel_output(data, ring, shape, den)
    A = msc.Msc._of(ring, dim, arity, rows, den)
    expected = msc._from_ints(ring, rows, den)
    assert [msc._texts(ring, row, A.den) for row in A.rows] == expected.to_strings()
    assert msc_to_doc(A) == {
        "dim": dim, "arity": arity, "ring": rg.ring_to_doc(ring),
        "entries": expected.to_strings()}


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(RINGS), shape=SHAPES, den=st.integers(1, 60))
def test_an_algebra_on_kernel_output_is_the_algebra_of_its_matrix(data, ring, shape, den):
    dim, arity, rows, den = kernel_output(data, ring, shape, den)
    A = msc.Msc._of(ring, dim, arity, rows, den)
    B = Msc(dim, arity, msc._from_ints(ring, rows, den))
    assert A == B and hash(A) == hash(B)
    # lowest terms: exactly the pair the Matrix converts to
    assert (A.rows, A.den) == msc._to_ints(A.ring, A.mat.rows) == (B.rows, B.den)
    assert A.mat == B.mat
    assert msc_to_doc(A) == msc_to_doc(B) == {
        "dim": dim, "arity": arity, "ring": rg.ring_to_doc(ring),
        "entries": A.mat.to_strings()}
    assert A.is_zero() is B.mat.is_zero()


@pytest.mark.parametrize("ring", [Q, POLY])  # a residue mod p is below p
def test_integer_texts_refuse_what_str_refuses(ring):
    big = 10 ** (LIMIT + 5)
    value = {(1, 0): big} if ring.kind == "poly" else big
    with pytest.raises(ValueError) as via_ring:
        str(msc._from_ints(ring, [[value]], 3).rows[0][0])
    with pytest.raises(ValueError) as via_ints:
        msc._texts(ring, [value], 3)
    assert str(via_ring.value) == str(via_ints.value) == TOO_LONG


@SETTINGS
@given(data=st.data(), ring=st.sampled_from((Q, rg.prime_field(5), POLY)),
       n=st.integers(2, 5))
def test_generate_prints_what_generate_nary_builds(data, ring, n):
    M = data.draw(sparse_algebras(2, 2, ring))
    expected = M.mat
    for _ in range(n - 2):
        expected = nest(M.mat, 2, 2, expected)
    C = generate_nary(M, n)
    assert C.mat == expected
    assert msc_to_doc(C) == {"dim": 2, "arity": n, "ring": rg.ring_to_doc(ring),
                             "entries": expected.to_strings()}


# ---------------------------------------------------------------------------
# associativity reports from integers
# ---------------------------------------------------------------------------

def scalars(ring):
    if ring.kind == "GF":
        return st.builds(lambda v: rg.RingElem(ring, v), st.integers(1, ring.p - 1))
    if ring.kind == "Q":
        return st.builds(lambda n, d: rg.from_fraction(ring, F(n, d)),
                         st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))
    return st.sampled_from(["a", "b", "-a", "1", "a*b", "2*a-1", "b^2", "1/2"]).map(
        lambda s: rg.parse_scalar(s, ring))


@st.composite
def sparse_algebras(draw, dim, arity, ring=None):
    """At most three nonzero entries a row: many such algebras are
    (totally) associative, and the others violate in few entries."""
    ring = ring or draw(st.sampled_from(RINGS))
    rows = []
    for _ in range(dim):
        row = [rg.zero(ring)] * dim ** arity
        cells = st.dictionaries(st.integers(0, dim ** arity - 1), scalars(ring), max_size=3)
        for col, value in draw(cells).items():
            row[col] = value
        rows.append(row)
    return Msc(dim, arity, Matrix(ring, rows))


def report_from_matrices(A):
    """The report as it was formed from the residual matrices: verdict,
    first violating column of residual a or b, and every nonzero entry."""
    residuals = total_assoc_residuals(A) if A.arity == 3 else (binary_assoc_residual(A),)
    verdict = all(r.is_zero() for r in residuals)
    tup = None
    if not verdict and A.ring.kind != "poly":
        col = min(j for r in residuals[:2] for row in r.mat.rows
                  for j, x in enumerate(row) if not x.is_zero())
        tup = list(column_tuple(A.dim, 2 * A.arity - 1, col))
    labels = ("a", "b", "c") if A.arity == 3 else ("binary",)
    nonzeros = [{"which": label, "row": i + 1, "col": j + 1, "value": str(x)}
                for label, R in zip(labels, residuals)
                for i, row in enumerate(R.mat.rows) for j, x in enumerate(row)
                if not x.is_zero()]
    return residuals, {"verdict": verdict, "residual_nonzeros": nonzeros, "violating_tuple": tup}


@SETTINGS
@given(data=st.data(), shape=st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]))
def test_assoc_report_is_the_report_of_the_residual_matrices(data, shape):
    A = data.draw(sparse_algebras(*shape))
    residuals, doc = report_from_matrices(A)
    report = assoc_report(A)
    assert report.to_doc() == doc
    assert report.verdict is doc["verdict"]
    assert report.residuals == residuals


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data(), ring=st.sampled_from(FIELDS))
def test_is_totally_associative_agrees_with_the_quintuple_oracle(data, ring):
    A = data.draw(sparse_algebras(2, 3, ring))
    assert is_totally_associative(A) is quintuple_oracle(A)[0]


def test_is_totally_associative_keeps_its_arity_check():
    with pytest.raises(ValueError, match="arity 3, got 2"):
        is_totally_associative(Msc.zero(Q, 2, 2))


# ---------------------------------------------------------------------------
# specialization in integers
# ---------------------------------------------------------------------------

TEMPLATE_RING = rg.polynomial_ring(["a", "b", "c"])
TEMPLATE_ENTRIES = ["0", "a", "b", "-c", "a*b", "a^2-1/3", "2*b^3+a*c", "1/2", "3*a*b*c-7/5",
                    "(a+b)^2", "c^2*b-a"]


def substituted(A, assignment):
    """Msc.specialize's reference: rg.substitute on every entry."""
    return Msc(A.dim, A.arity, A.mat.map_entries(lambda x: rg.substitute(x, assignment), Q))


rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 12))


@SETTINGS
@given(data=st.data(), shape=st.sampled_from([(1, 2), (2, 2), (2, 3)]),
       point=st.dictionaries(st.sampled_from("abcz"), rationals | st.integers(-5, 5)
                             | st.sampled_from(["1/2", "-3", "2/7"])))
def test_specialize_is_substitution_entry_by_entry(data, shape, point):
    dim, arity = shape
    texts = st.sampled_from(TEMPLATE_ENTRIES)
    rows = [[data.draw(texts) for _ in range(dim ** arity)] for _ in range(dim)]
    A = Msc.from_strings(TEMPLATE_RING, dim, arity, rows)
    assert outcome(A.specialize, point) == outcome(substituted, A, point)


def test_specialize_keeps_the_substitution_refusals():
    A = Msc.from_strings(TEMPLATE_RING, 2, 2, [["1", "a", "b*c", "c"], ["0", "b", "0", "0"]])
    for point in ({"a": 1}, {"a": 1, "c": 2}, {"a": "x", "b": 1, "c": 1}, {}):
        got = outcome(A.specialize, point)
        assert got == outcome(substituted, A, point)
        assert issubclass(got[0], ValueError)
    with pytest.raises(ValueError, match="missing variable 'b'"):
        A.specialize({"a": 1, "c": 2})


# ---------------------------------------------------------------------------
# basis changes and documents on integer rows
# ---------------------------------------------------------------------------

BASIS_FIELDS = (Q, rg.prime_field(2), rg.prime_field(5), rg.prime_field(3037000493))


def leibniz_det(rows):
    """The determinant of a square matrix of Fractions or ints, by the
    permutation expansion."""
    total = 0
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])
        total += sign * prod(rows[r][c] for r, c in enumerate(perm))
    return total


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(BASIS_FIELDS), m=st.integers(1, 3),
       arity=st.integers(2, 3))
def test_a_basis_change_and_its_inverse_are_integer_rows(data, ring, m, arity):
    values = (st.integers(0, ring.p - 1) if ring.kind == "GF"
              else st.builds(F, st.integers(-9, 9), st.integers(1, 6)))
    rows = data.draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=m, max_size=m))
    mat = Matrix(ring, [[rg.from_fraction(ring, x) for x in row] for row in rows])
    det = leibniz_det(rows)
    if (det % ring.p if ring.kind == "GF" else det) == 0:
        with pytest.raises(ValueError) as refused:
            BasisChange(mat)
        assert str(refused.value) == "matrix is singular"
        return
    g = BasisChange(mat)
    assert g.mat == mat and g.to_strings() == mat.to_strings()
    ident = Matrix.identity(ring, m)
    assert g.mat * g.inv_mat == ident == g.inv_mat * g.mat
    A = data.draw(sparse_algebras(m, arity, ring))
    B = transform(A, g)
    assert B.mat == (g.mat * A.mat) * reduce(Matrix.kron, [g.inv_mat] * arity)
    assert transform(B, BasisChange(g.inv_mat)) == A
    if ring.kind == "GF":
        # a witness as the isomorphism search builds it, from residues
        witness = BasisChange._of(ring, [list(row) for row in rows])
        assert witness == g and hash(witness) == hash(g)
        assert (witness.inv, witness.to_strings()) == (g.inv, g.to_strings())
    if m > 1:
        with pytest.raises(ValueError) as refused:
            BasisChange(Matrix(ring, mat.rows[:-1]))
        assert str(refused.value) == "basis change must be square"


def document_via_matrix(doc):
    """msc_from_doc's reference on a well-shaped document: the Matrix of the
    parsed entries, every bad entry refused with the document's prefix."""
    try:
        mat = Matrix.from_strings(rg.ring_from_doc(doc["ring"]), doc["entries"])
    except (rg.ScalarParseError, ZeroDivisionError) as exc:
        raise ValueError(f"msc: bad entry: {exc}") from exc
    return Msc(doc["dim"], doc["arity"], mat)


ENTRY_TEXTS = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 15)),
    st.sampled_from(["a", "-b", "a*b - 1/2", "(a+b)^2", "2*(3/10)", "a/2", "1/x", "", "x"]),
)


@SETTINGS
@given(data=st.data(), ring=st.sampled_from((Q, rg.prime_field(5), rg.prime_field(7), POLY)),
       shape=SHAPES)
def test_a_document_parses_to_the_algebra_of_its_matrix(data, ring, shape):
    dim, arity = shape
    entries = [[data.draw(ENTRY_TEXTS) for _ in range(dim ** arity)] for _ in range(dim)]
    doc = {"dim": dim, "arity": arity, "ring": rg.ring_to_doc(ring), "entries": entries}
    got, expected = outcome(msc_from_doc, doc), outcome(document_via_matrix, doc)
    assert got == expected
    if isinstance(got, Msc):
        assert hash(got) == hash(expected) and msc_to_doc(got) == msc_to_doc(expected)


@pytest.mark.parametrize("dim, arity, rows", [
    (1, 2, [["2"]]), (2, 2, [["1", "0", "a/2", "0"], ["0"] * 4]), (1, 2, []), (1, 2, [[]]),
    (2, 2, [["1", "0", "0", "0"], ["0"] * 3]), (0, 2, [["1"]]), (1, 1, [["1"]]),
    (2, 2, [["1", "0", "0"], ["0"] * 3]), (2, 2, [["1", "x", "0", "0"], ["0"] * 4]),
])
@pytest.mark.parametrize("ring", [Q, rg.prime_field(5), POLY])
def test_from_strings_builds_and_refuses_as_the_matrix_path(dim, arity, rows, ring):
    assert (outcome(Msc.from_strings, ring, dim, arity, rows)
            == outcome(lambda: Msc(dim, arity, Matrix.from_strings(ring, rows))))
    assert (outcome(Msc.zero, ring, dim, arity)
            == outcome(lambda: Msc(dim, arity, Matrix.zeros(ring, dim, dim ** arity))))
