import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from trialg import ring as rg
from trialg.catalog import TOTASSOC_ITEMS, catalog_get
from trialg.identities import (
    assoc_report,
    binary_assoc_residual,
    binary_triple_oracle,
    is_totally_associative,
    quintuple_oracle,
    total_assoc_residuals,
)
from trialg.msc import Matrix, Msc, basis_vector, eval_product, transform

from conftest import rand_basis_change, rand_msc

Q = rg.QQ
F = Fraction


def b2(a1, b1, b2_):
    return catalog_get("B2", {"a1": a1, "b1": b1, "b2": b2_})


def b4(a1, b2_):
    return catalog_get("B4", {"a1": a1, "b2": b2_})


def test_residuals_zero_on_listed_members():
    for A in (b2(0, 0, 0), b4(F(1, 2), 0)):
        assert all(r.is_zero() for r in total_assoc_residuals(A))


def test_residual_shapes():
    residuals = total_assoc_residuals(catalog_get("B11"))
    assert all(r.mat.nrows == 2 and r.mat.ncols == 32 for r in residuals)


def test_b3_has_nonzero_residual_and_oracle_agrees():
    A = catalog_get("B3", {"b1": 0, "b2": 0})
    assert not all(r.is_zero() for r in total_assoc_residuals(A))
    ok, tup = quintuple_oracle(A)
    assert not ok and tup is not None


def test_is_totally_associative_examples():
    assert is_totally_associative(catalog_get("Ex52"))
    assert is_totally_associative(Msc.zero(Q, 2, 3))
    assert not is_totally_associative(catalog_get("B11"))


def test_quintuple_oracle_examples():
    ok, tup = quintuple_oracle(b4(1, 1))
    assert ok and tup is None
    ok, tup = quintuple_oracle(Msc.zero(Q, 2, 3))
    assert ok and tup is None


def test_quintuple_oracle_violation_is_genuine():
    A = catalog_get("B7", {"b1": 0})
    ok, tup = quintuple_oracle(A)
    assert not ok
    basis = [basis_vector(Q, 2, i) for i in (1, 2)]
    u, v, w, x, y = (basis[i - 1] for i in tup)
    left = eval_product(A, (eval_product(A, (u, v, w)), x, y))
    mid = eval_product(A, (u, eval_product(A, (v, w, x)), y))
    right = eval_product(A, (u, v, eval_product(A, (w, x, y))))
    assert left != mid or left != right


def test_quintuple_oracle_preconditions(gf5, rng):
    with pytest.raises(ValueError):
        quintuple_oracle(rand_msc(gf5, 2, 2, rng))
    with pytest.raises(ValueError):
        quintuple_oracle(catalog_get("B4"))  # symbolic template


def test_binary_assoc_residual_examples():
    assert binary_assoc_residual(catalog_get("A4", {"a1": 1, "b2": 0})).is_zero()
    assert binary_assoc_residual(Msc.zero(Q, 2, 2)).is_zero()
    a2 = catalog_get("A2", {"a1": 0, "b1": 0, "b2": 0})
    assert not binary_assoc_residual(a2).is_zero()
    # witness triple (e2, e1, e1): (e2 e1) e1 = e2 while e2 (e1 e1) = 0
    e1, e2 = basis_vector(Q, 2, 1), basis_vector(Q, 2, 2)
    lhs = eval_product(a2, (eval_product(a2, (e2, e1)), e1))
    rhs = eval_product(a2, (e2, eval_product(a2, (e1, e1))))
    assert lhs == (rg.zero(Q), rg.one(Q)) and rhs == (rg.zero(Q), rg.zero(Q))
    ok, tup = binary_triple_oracle(a2)
    assert not ok and tup == (2, 1, 1)


def test_binary_residual_arity_check(gf5, rng):
    with pytest.raises(ValueError):
        binary_assoc_residual(rand_msc(gf5, 2, 3, rng))


def test_oracle_equivalence_random(gf5, rng):
    # residual definition vs direct quintuple expansion, 200 random algebras
    for _ in range(200):
        A = rand_msc(gf5, 2, 3, rng)
        assert is_totally_associative(A) == quintuple_oracle(A)[0]


def test_total_associativity_is_basis_invariant(gf5, rng):
    members = [
        catalog_get(family, dict(zip(("a1", "b1", "b2")[: len(values)], values))
                    if family == "B2" else dict(zip(("a1", "b2"), values))).reduce_mod(5)
        for _, family, values, _rows in TOTASSOC_ITEMS
    ]
    for i in range(100):
        g = rand_basis_change(gf5, 2, rng)
        A = members[i % len(members)]
        assert is_totally_associative(transform(A, g))
        B = rand_msc(gf5, 2, 3, rng)
        if not is_totally_associative(B):
            assert not is_totally_associative(transform(B, g))


def test_residual_linear_dependence(gf5, rng):
    # the three residuals satisfy Ra - Rb + Rc = 0 identically
    for _ in range(100):
        A = rand_msc(gf5, 2, 3, rng)
        ra, rb, rc = total_assoc_residuals(A)
        assert (ra.mat - rb.mat + rc.mat).is_zero()


def test_symbolic_numeric_consistency():
    template = catalog_get("B4")
    point = {"a1": F(1, 2), "b2": F(1, 2)}
    symbolic = total_assoc_residuals(template)
    numeric = total_assoc_residuals(b4(F(1, 2), F(1, 2)))
    for sym, num in zip(symbolic, numeric):
        substituted = sym.mat.map_entries(lambda x: rg.substitute(x, point), Q)
        assert substituted == num.mat


def test_assoc_report_ternary_doc():
    report = assoc_report(catalog_get("B11"))
    doc = report.to_doc()
    assert doc["verdict"] is False
    assert doc["violating_tuple"] == [1, 1, 2, 1, 1]
    assert all(item["which"] in ("a", "b", "c") for item in doc["residual_nonzeros"])
    assert doc["residual_nonzeros"]


def test_assoc_report_binary_doc():
    a2 = catalog_get("A2", {"a1": 0, "b1": 0, "b2": 0})
    doc = assoc_report(a2).to_doc()
    assert doc["verdict"] is False
    assert doc["violating_tuple"] == [2, 1, 1]
    assert all(item["which"] == "binary" for item in doc["residual_nonzeros"])
    clean = assoc_report(Msc.zero(Q, 2, 2)).to_doc()
    assert clean == {"verdict": True, "residual_nonzeros": [], "violating_tuple": None}


def test_assoc_report_symbolic_input():
    report = assoc_report(catalog_get("B4"))
    assert report.verdict is False
    assert report.violating_tuple is None  # no enumeration over a polynomial ring


def test_assoc_report_arity_guard(gf5, rng):
    with pytest.raises(ValueError):
        assoc_report(rand_msc(gf5, 2, 4, rng))


# ---------------------------------------------------------------------------
# the report's violating tuple, read off the residuals, against the oracles
# ---------------------------------------------------------------------------

FIELDS = (Q, rg.prime_field(5), rg.prime_field(7))


@st.composite
def nonzero_scalars(draw, ring):
    if ring.kind == "GF":
        return rg.RingElem(ring, draw(st.integers(1, ring.p - 1)))
    return rg.from_fraction(ring, F(draw(st.integers(-3, 3).filter(bool)),
                                    draw(st.sampled_from((1, 2)))))


@st.composite
def sparse_algebras(draw, dim, arity):
    """At most three nonzero entries a row, in any column, or only in the
    columns whose first index is dim: then every product whose first
    argument is another basis vector is 0, so no tuple before
    (dim, 1, ..., 1) violates and the first violation comes late."""
    ring = draw(st.sampled_from(FIELDS))
    width = dim ** arity
    first = draw(st.sampled_from((0, width - width // dim)))
    rows = []
    for _ in range(dim):
        row = [rg.zero(ring)] * width
        entries = st.dictionaries(st.integers(first, width - 1), nonzero_scalars(ring),
                                  max_size=3)
        for col, value in draw(entries).items():
            row[col] = value
        rows.append(row)
    return Msc(dim, arity, Matrix(ring, rows))


# (arity, dim, examples): the oracle expands every tuple up to the first
# violation, 1.5-2.5 s for all 4^5 quintuples, so dimension 4 runs few
ORACLE_CASES = [(3, 1, 10), (3, 2, 40), (3, 3, 15), (3, 4, 3)]
ORACLE_CASES += [(2, dim, 20) for dim in range(1, 7)]


@pytest.mark.parametrize("arity, dim, examples", ORACLE_CASES)
def test_violating_tuple_is_the_oracles(arity, dim, examples):
    oracle = quintuple_oracle if arity == 3 else binary_triple_oracle

    @settings(derandomize=True, database=None, deadline=None, max_examples=examples,
              phases=(Phase.explicit, Phase.generate))
    @given(sparse_algebras(dim, arity))
    def check(A):
        assert assoc_report(A).violating_tuple == oracle(A)[1]

    check()
