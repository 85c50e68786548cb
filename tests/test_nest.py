"""The nesting contraction msc._nest_ints and its callers against Kronecker oracles.

Each composite product is also a matrix product with identity Kronecker
factors: C_k = M . (I x C_{k-1}), the residuals A (A x I x I - I x A x I)
etc., M (M x I) - M (I x M) and g . A . (g^-1)^(x n).  Those formulas are
written out here with the public kron and compared entry by entry with
the kernel's results over GF(5), Q and a small polynomial ring.  The
kernel is reached through conftest.nest, which wraps it on Matrix operands.
"""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from trialg import msc
from trialg import ring as rg
from trialg.catalog import FAMILIES, TOTASSOC_ITEMS, catalog_get
from trialg.generate import generate_nary
from trialg.identities import (
    binary_assoc_residual,
    is_totally_associative,
    total_assoc_residuals,
)
from trialg.msc import BasisChange, Matrix, Msc, basis_vector, eval_product, transform

from conftest import nest

GF5 = rg.prime_field(5)
Q = rg.QQ
POLY = rg.polynomial_ring(("a", "b"))
FIELDS = (GF5, Q)
RINGS = FIELDS + (POLY,)

DIMS = (1, 2, 3)

# deterministic, bounded, no example database on disk, and no shrinking: the
# Kronecker oracles are slow enough that shrinking a failure takes minutes
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=4,
                    phases=(Phase.explicit, Phase.generate))


@st.composite
def scalars(draw, ring):
    """Zero about half the time, so both sparse and dense rows occur."""
    if draw(st.booleans()):
        return rg.zero(ring)
    if ring.kind == "GF":
        return rg.RingElem(ring, draw(st.integers(0, ring.p - 1)))
    if ring.kind == "Q":
        return rg.RingElem(ring, Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3))))
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                 st.integers(-2, 2).filter(bool), max_size=2))
    return rg.RingElem(ring, {mono: Fraction(c) for mono, c in terms.items()})


@st.composite
def matrices(draw, ring, nrows, ncols):
    flat = draw(st.lists(scalars(ring), min_size=nrows * ncols, max_size=nrows * ncols))
    return Matrix(ring, [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)])


def algebras(ring, dim, arity):
    return matrices(ring, dim, dim ** arity).map(lambda mat: Msc(dim, arity, mat))


@st.composite
def basis_changes(draw, ring, dim):
    try:
        return BasisChange(draw(matrices(ring, dim, dim)))
    except ValueError:
        assume(False)


def identity(A: Msc) -> Matrix:
    return Matrix.identity(A.ring, A.dim)


def generate_by_kron(M: Msc, n: int) -> Matrix:
    mat = M.mat
    for _ in range(n - 2):
        mat = M.mat * identity(M).kron(mat)
    return mat


def residuals_by_kron(A: Msc):
    i = identity(A)
    a_i_i = A.mat.kron(i).kron(i)
    i_a_i = i.kron(A.mat).kron(i)
    i_i_a = i.kron(i.kron(A.mat))
    return (A.mat * (a_i_i - i_a_i), A.mat * (a_i_i - i_i_a), A.mat * (i_a_i - i_i_a))


def transform_by_kron(A: Msc, g: BasisChange) -> Matrix:
    return (g.mat * A.mat) * reduce(Matrix.kron, [g.inv_mat] * A.arity)


def truncated_polynomial_algebra(ring, dim) -> Msc:
    """k[x]/(x^dim): e_i e_j = e_{i+j-1}; associative, so it generates a
    totally associative ternary algebra."""
    z, o = rg.zero(ring), rg.one(ring)
    rows = [[o if i + j - 1 == l else z for i in range(1, dim + 1) for j in range(1, dim + 1)]
            for l in range(1, dim + 1)]
    return Msc(dim, 2, Matrix(ring, rows))


# the listed family members (their transcribed displays include a documented
# mismatch), reduced mod 5 too, and generated truncated polynomial algebras
TOTALLY_ASSOCIATIVE = [
    catalog_get(family, dict(zip(FAMILIES[family].params, values)))
    for _tag, family, values, _rows in TOTASSOC_ITEMS
]
TOTALLY_ASSOCIATIVE += [A.reduce_mod(5) for A in TOTALLY_ASSOCIATIVE]
TOTALLY_ASSOCIATIVE += [
    generate_nary(truncated_polynomial_algebra(ring, dim), 3)
    for ring in FIELDS for dim in (1, 2, 3)
]


def test_totally_associative_examples_are_totally_associative():
    assert all(is_totally_associative(A) for A in TOTALLY_ASSOCIATIVE)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(SETTINGS, max_examples=20)
@given(data=st.data())
def test_nest_matches_its_definition(ring, data):
    dim = data.draw(st.sampled_from(DIMS))
    arity = data.draw(st.sampled_from((2, 3)))
    slot = data.draw(st.integers(1, arity))
    b = data.draw(st.sampled_from((1, 2, 3) if dim < 3 else (1, 2)))
    outer = Msc(dim, arity, data.draw(matrices(ring, dim, dim ** arity)))
    inner = data.draw(matrices(ring, dim, dim ** b))
    out = nest(outer.mat, arity, slot, inner)
    assert (out.nrows, out.ncols) == (dim, dim ** (arity + b - 1))
    basis = [basis_vector(ring, dim, i) for i in range(1, dim + 1)]
    for col, tup in enumerate(iter_product(range(dim), repeat=arity + b - 1)):
        ys = tup[slot - 1:slot - 1 + b]
        inner_value = tuple(inner.rows[l][msc.column_index(dim, [y + 1 for y in ys])]
                            for l in range(dim))
        args = ([basis[i] for i in tup[:slot - 1]] + [inner_value]
                + [basis[i] for i in tup[slot - 1 + b:]])
        assert tuple(row[col] for row in out.rows) == eval_product(outer, args)


@pytest.mark.parametrize("slot", [1, 3])
def test_nest_linear_map_at_either_end(slot):
    # A(e1, e1, e1) = e1; g swaps e1 and e2, so the product moves to the
    # column where slot `slot` holds e2
    A = Msc.zero(Q, 2, 3)
    rows = [list(r) for r in A.mat.rows]
    rows[0][0] = rg.one(Q)
    swap = Matrix.from_strings(Q, [["0", "1"], ["1", "0"]])
    out = nest(Matrix(Q, rows), 3, slot, swap)
    tup = [1, 1, 1]
    tup[slot - 1] = 2
    expected = [[rg.zero(Q)] * 8, [rg.zero(Q)] * 8]
    expected[0][msc.column_index(2, tup)] = rg.one(Q)
    assert out == Matrix(Q, expected)


def test_nest_rejects_bad_shapes_and_slots():
    A = Msc.zero(Q, 2, 3).mat
    for arity, slot in ((3, 0), (3, 4), (2, 1)):
        with pytest.raises(ValueError, match="cannot nest"):
            nest(A, arity, slot, Matrix.identity(Q, 2))


def test_nest_budget_is_checked_exactly(monkeypatch):
    A = Msc.zero(Q, 2, 2).mat
    inner = Msc.zero(Q, 2, 2).mat
    monkeypatch.setattr(msc, "_MAX_ENTRIES", 16)  # result is 2 x 8
    assert nest(A, 2, 2, inner).is_zero()
    monkeypatch.setattr(msc, "_MAX_ENTRIES", 15)
    with pytest.raises(ValueError, match="exceeds 15 entries"):
        nest(A, 2, 2, inner)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_generate_nary_matches_kronecker_form(ring, dim, data):
    M, n = data.draw(algebras(ring, dim, 2)), data.draw(st.integers(3, 5))
    assert generate_nary(M, n).mat == generate_by_kron(M, n)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(SETTINGS, max_examples=2)  # the first example is all zeros
@given(data=st.data())
def test_generate_nary_matches_kronecker_form_in_dimension_4(ring, data):
    M = data.draw(algebras(ring, 4, 2))
    for n in (3, 4, 5):
        assert generate_nary(M, n).mat == generate_by_kron(M, n)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_total_assoc_residuals_match_kronecker_form(ring, dim, data):
    A = data.draw(algebras(ring, dim, 3))
    assert tuple(R.mat for R in total_assoc_residuals(A)) == residuals_by_kron(A)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_binary_assoc_residual_matches_kronecker_form(ring, dim, data):
    M = data.draw(algebras(ring, dim, 2))
    i = identity(M)
    assert binary_assoc_residual(M).mat == M.mat * M.mat.kron(i) - M.mat * i.kron(M.mat)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_transform_matches_kronecker_form(field, dim, data):
    A = data.draw(algebras(field, dim, data.draw(st.sampled_from((2, 3)))))
    g = data.draw(basis_changes(field, dim))
    assert transform(A, g).mat == transform_by_kron(A, g)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_total_associativity_is_invariant_under_transform(field, dim, data):
    examples = [A for A in TOTALLY_ASSOCIATIVE if A.ring == field and A.dim == dim]
    A = data.draw(st.one_of(st.sampled_from(examples), algebras(field, dim, 3)))
    g = data.draw(basis_changes(field, dim))
    assert is_totally_associative(transform(A, g)) == is_totally_associative(A)


# ---------------------------------------------------------------------------
# the integer kernel: Q operands are scaled to integers by the lcm of their
# denominators, GF(p) residues are reduced once per result entry
# ---------------------------------------------------------------------------

# denominators are pairwise-coprime prime powers up to 97, so a matrix's
# common denominator is huge; numerators go far beyond the +-2 of scalars()
COPRIME_DENOMINATORS = (1, 64, 81, 25, 49, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
BIG_GF = rg.prime_field(3037000493)  # the largest modulus the enumerator accepts
WIDE_FIELDS = (Q, BIG_GF)
WIDE_RINGS = WIDE_FIELDS + (POLY,)


@st.composite
def wide_scalars(draw, ring, denominators=COPRIME_DENOMINATORS):
    if draw(st.booleans()):
        return rg.zero(ring)
    if ring.kind == "GF":
        top = (1, ring.p - 2, ring.p - 1)
        return rg.RingElem(ring, draw(st.one_of(st.sampled_from(top),
                                                st.integers(0, ring.p - 1))))
    coefficients = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                             st.sampled_from(denominators))
    if ring.kind == "poly":  # up to three terms of degree at most 2 in each variable
        monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
        return rg.RingElem(ring, draw(st.dictionaries(monomials, coefficients,
                                                      min_size=1, max_size=3)))
    return rg.RingElem(ring, draw(coefficients))


@st.composite
def wide_matrices(draw, ring, nrows, ncols):
    """Over Q, sometimes all-integer (common denominator 1)."""
    denominators = draw(st.sampled_from((COPRIME_DENOMINATORS, (1,))))
    flat = draw(st.lists(wide_scalars(ring, denominators),
                         min_size=nrows * ncols, max_size=nrows * ncols))
    return Matrix(ring, [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)])


def wide_algebras(ring, dim, arity):
    return wide_matrices(ring, dim, dim ** arity).map(lambda mat: Msc(dim, arity, mat))


def assert_canonical(mat: Matrix):
    """Every entry reads back from its own string, and has the payload type
    of its ring (a Fraction over Q, a residue in [0, p) over GF(p), a dict
    of nonzero Fractions over Q[vars]), zeros included."""
    zero = rg.zero(mat.ring)
    for row in mat.rows:
        for x in row:
            assert rg.parse_scalar(str(x), mat.ring) == x
            assert type(x.v) is type(zero.v)
            if mat.ring.kind == "GF":
                assert 0 <= x.v < mat.ring.p
            if mat.ring.kind == "poly":
                assert all(type(c) is Fraction and c for c in x.v.values())


def assert_nest_is_its_definition(outer: Msc, slot: int, inner: Matrix):
    dim, arity, ring = outer.dim, outer.arity, outer.ring
    b = {dim ** k: k for k in range(1, 4)}[inner.ncols]
    out = nest(outer.mat, arity, slot, inner)
    assert (out.nrows, out.ncols) == (dim, dim ** (arity + b - 1))
    basis = [basis_vector(ring, dim, i) for i in range(1, dim + 1)]
    for col, tup in enumerate(iter_product(range(dim), repeat=arity + b - 1)):
        ys = tup[slot - 1:slot - 1 + b]
        inner_value = tuple(inner.rows[l][msc.column_index(dim, [y + 1 for y in ys])]
                            for l in range(dim))
        args = ([basis[i] for i in tup[:slot - 1]] + [inner_value]
                + [basis[i] for i in tup[slot - 1 + b:]])
        assert tuple(row[col] for row in out.rows) == eval_product(outer, args)
    assert_canonical(out)
    return out


@pytest.mark.parametrize("ring", WIDE_RINGS, ids=str)
@settings(SETTINGS, max_examples=12)
@given(data=st.data())
def test_nest_matches_its_definition_on_wide_scalars(ring, data):
    dim = data.draw(st.sampled_from(DIMS))
    arity = data.draw(st.sampled_from((2, 3)))
    slot = data.draw(st.integers(1, arity))
    b = data.draw(st.sampled_from((1, 2, 3) if dim < 3 else (1, 2)))
    outer = Msc(dim, arity, data.draw(wide_matrices(ring, dim, dim ** arity)))
    assert_nest_is_its_definition(outer, slot, data.draw(wide_matrices(ring, dim, dim ** b)))


@pytest.mark.parametrize("ring", WIDE_RINGS, ids=str)
@settings(SETTINGS, max_examples=12)
@given(data=st.data())
def test_nest_cancels_to_exact_zero(ring, data):
    # row 1 of outer holds a and c at the columns whose slot index is e1 and
    # e2 (same other indices, nothing at e3), and inner's rows 1 and 2 are
    # c and -a times one row, so that block of the result's row 1 cancels
    # exactly (over Q[a, b] term by term, leaving no zero coefficient)
    dim = data.draw(st.sampled_from((2, 3)))
    arity = data.draw(st.sampled_from((2, 3)))
    slot = data.draw(st.integers(1, arity))
    b = data.draw(st.sampled_from((1, 2)))
    tail = dim ** (arity - slot)
    pre = data.draw(st.integers(0, dim ** (slot - 1) - 1))
    post = data.draw(st.integers(0, tail - 1))
    a, c = (data.draw(wide_scalars(ring).filter(bool)) for _ in range(2))
    outer = [list(row) for row in data.draw(wide_matrices(ring, dim, dim ** arity)).rows]
    inner = [list(row) for row in data.draw(wide_matrices(ring, dim, dim ** b)).rows]
    for k, value in enumerate([a, c] + [rg.zero(ring)] * (dim - 2)):
        outer[0][(pre * dim + k) * tail + post] = value
    inner[0], inner[1] = [c * x for x in inner[0]], [-a * x for x in inner[0]]
    out = assert_nest_is_its_definition(Msc(dim, arity, Matrix(ring, outer)), slot,
                                        Matrix(ring, inner))
    width = dim ** b
    for y in range(width):
        assert out.rows[0][(pre * width + y) * tail + post] == rg.zero(ring)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("ring", WIDE_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_callers_match_kronecker_forms_on_wide_scalars(ring, dim, data):
    M = data.draw(wide_algebras(ring, dim, 2))
    A = data.draw(wide_algebras(ring, dim, 3))
    g = data.draw(wide_matrices(ring, dim, dim))
    try:
        g = BasisChange(g)
    except ValueError:
        assume(False)
    i = identity(M)
    results = [
        (generate_nary(M, 4).mat, generate_by_kron(M, 4)),
        (binary_assoc_residual(M).mat, M.mat * M.mat.kron(i) - M.mat * i.kron(M.mat)),
        (transform(A, g).mat, transform_by_kron(A, g)),
    ]
    results += [(R.mat, K) for R, K in zip(total_assoc_residuals(A), residuals_by_kron(A))]
    for got, expected in results:
        assert got == expected
        assert_canonical(got)


@pytest.mark.parametrize("dim", DIMS)
@SETTINGS
@given(data=st.data())
def test_callers_match_kronecker_forms_on_wide_polynomials(dim, data):
    M = data.draw(wide_algebras(POLY, dim, 2))
    A = data.draw(wide_algebras(POLY, dim, 3))
    i = identity(M)
    results = [
        (generate_nary(M, 4).mat, generate_by_kron(M, 4)),
        (binary_assoc_residual(M).mat, M.mat * M.mat.kron(i) - M.mat * i.kron(M.mat)),
    ]
    results += [(R.mat, K) for R, K in zip(total_assoc_residuals(A), residuals_by_kron(A))]
    for got, expected in results:
        assert got == expected
        assert_canonical(got)


@pytest.mark.parametrize("ring", WIDE_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_residuals_cancel_exactly_after_a_wide_basis_change(ring, data):
    examples = [A if ring == Q else A.reduce_mod(ring.p)
                for A in TOTALLY_ASSOCIATIVE if A.ring == Q]
    A = data.draw(st.sampled_from(examples))
    g = data.draw(wide_matrices(ring, A.dim, A.dim))
    try:
        g = BasisChange(g)
    except ValueError:
        assume(False)
    for residual in total_assoc_residuals(transform(A, g)):
        assert residual.is_zero()
        assert_canonical(residual.mat)
    M = transform(truncated_polynomial_algebra(ring, A.dim), g)
    assert binary_assoc_residual(M).is_zero()
    assert_canonical(binary_assoc_residual(M).mat)


def sparse_algebra(dim, arity, seed, ring=Q):
    """About one entry in ten nonzero: a small integer, times a or b over Q[a, b]."""
    rnd = random.Random(seed)

    def entry():
        x = rg.from_int(ring, rnd.choice((-2, -1, 1, 3)))
        return x * rg.variable(ring, rnd.choice("ab")) if ring.kind == "poly" else x

    return Msc(dim, arity, Matrix(ring, [
        [entry() if rnd.random() < 0.1 else rg.zero(ring) for _ in range(dim ** arity)]
        for _ in range(dim)]))


def peak_bytes(fn):
    """Peak traced allocation while fn runs, and the ValueError it raised."""
    tracemalloc.start()
    try:
        fn()
        error = None
    except ValueError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


# (caller, its operand, the call, the operand conversions it makes, result
# shape): every result row is far larger than the conversions' row copies;
# only the Matrix helper nest converts (its operand is a Matrix), the others
# read the algebra's integers
BUDGET_CASES = {
    "nest": (sparse_algebra(5, 3, 1).mat, lambda a: nest(a, 3, 2, a), 2, (5, 5 ** 5)),
    "generate_nary": (sparse_algebra(5, 2, 2), lambda M: generate_nary(M, 5), 0, (5, 5 ** 5)),
    "total_assoc_residuals": (sparse_algebra(5, 3, 3), total_assoc_residuals, 0, (5, 5 ** 5)),
    "total_assoc_residuals over Q[a, b]": (sparse_algebra(5, 3, 5, POLY), total_assoc_residuals,
                                           0, (5, 5 ** 5)),
    "binary_assoc_residual": (sparse_algebra(12, 2, 4), binary_assoc_residual, 0,
                              (12, 12 ** 3)),
}


@pytest.mark.parametrize("caller", sorted(BUDGET_CASES))
def test_budget_holds_on_every_path_into_the_kernel(caller, monkeypatch):
    A, call, conversions, (nrows, ncols) = BUDGET_CASES[caller]
    monkeypatch.setattr(msc, "_MAX_ENTRIES", nrows * ncols)
    call(A)
    monkeypatch.setattr(msc, "_MAX_ENTRIES", nrows * ncols - 1)
    baseline, _ = peak_bytes(lambda: [msc._to_ints(A.ring, A.rows) for _ in range(conversions)])
    peak, error = peak_bytes(lambda: call(A))
    assert error is not None and f"exceeds {nrows * ncols - 1} entries" in str(error)
    # refused before allocating even one result row (8 bytes per slot)
    assert peak < baseline + 8 * ncols // 2, (peak, baseline)
