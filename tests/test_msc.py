import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from trialg import ring as rg
from trialg.msc import (
    BasisChange,
    Matrix,
    Msc,
    basis_vector,
    column_index,
    column_tuple,
    eval_product,
    kron,
    msc_from_doc,
    msc_to_doc,
    transform,
)

from conftest import rand_basis_change, rand_matrix, rand_msc, rand_vector

Q = rg.QQ


def msc_q(rows, arity=3):
    return Msc.from_strings(Q, 2, arity, rows)


B11 = msc_q([["1", "0", "0", "-1", "-1", "1", "1", "0"],
             ["0", "1", "1", "0", "0", "0", "0", "1"]])
EX52 = msc_q([["1", "0", "0", "0", "0", "0", "0", "0"],
              ["0", "1", "0", "0", "0", "0", "0", "0"]])
A4_10 = msc_q([["1", "0", "0", "0"], ["0", "0", "0", "0"]], arity=2)
A12 = msc_q([["0", "0", "0", "0"], ["1", "0", "0", "0"]], arity=2)


def test_kron_identity_blocks():
    i2 = Matrix.identity(Q, 2)
    assert kron(i2, i2) == Matrix.identity(Q, 4)


def test_kron_direct_block_expansion():
    a = Matrix.from_strings(Q, [["1", "2"]])
    b = Matrix.from_strings(Q, [["3"], ["4"]])
    assert kron(a, b) == Matrix.from_strings(Q, [["3", "6"], ["4", "8"]])


def test_kron_mixed_product_random(gf5, rng):
    for _ in range(100):
        a, b, c, d = (rand_matrix(gf5, 2, 2, rng) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_kron_ring_mismatch():
    with pytest.raises(ValueError):
        kron(Matrix.identity(Q, 2), Matrix.identity(rg.prime_field(5), 2))


def test_column_convention_round_trip():
    for dim, arity in ((2, 3), (2, 2), (3, 2)):
        for col in range(dim ** arity):
            assert column_index(dim, column_tuple(dim, arity, col)) == col
    assert column_index(2, (1, 1, 1)) == 0
    assert column_index(2, (2, 1, 1)) == 4
    assert column_index(2, (2, 2, 2)) == 7


def test_eval_product_on_basis_is_column():
    e1 = basis_vector(Q, 2, 1)
    assert eval_product(B11, (e1, e1, e1)) == (rg.one(Q), rg.zero(Q))
    e2 = basis_vector(Q, 2, 2)
    assert eval_product(EX52, (e1, e1, e2)) == (rg.zero(Q), rg.one(Q))


def test_eval_product_multilinear_zero(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    zero_vec = (rg.zero(gf5), rg.zero(gf5))
    v, w = rand_vector(gf5, 2, rng), rand_vector(gf5, 2, rng)
    assert eval_product(A, (zero_vec, v, w)) == zero_vec


def test_eval_product_column_convention_random(gf5, rng):
    for arity in (2, 3):
        A = rand_msc(gf5, 2, arity, rng)
        basis = [basis_vector(gf5, 2, i) for i in (1, 2)]
        for tup in product((1, 2), repeat=arity):
            col = column_index(2, tup)
            expected = tuple(A.mat.rows[l][col] for l in range(2))
            assert eval_product(A, [basis[i - 1] for i in tup]) == expected


def test_eval_product_arg_validation(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    v = rand_vector(gf5, 2, rng)
    with pytest.raises(ValueError):
        eval_product(A, (v, v))
    with pytest.raises(ValueError):
        eval_product(A, (v, v, (rg.zero(gf5),)))


def test_transform_identity_is_identity(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    assert transform(A, BasisChange.identity(gf5, 2)) == A


def test_transform_swap_relabels_product_table():
    # e1*e1 = e1 becomes e2*e2 = e2 after swapping the basis vectors
    swap = BasisChange.from_strings(Q, [["0", "1"], ["1", "0"]])
    expected = msc_q([["0", "0", "0", "0"], ["0", "0", "0", "1"]], arity=2)
    assert transform(A4_10, swap) == expected


def test_transform_composition_random(gf5, rng):
    for _ in range(50):
        A = rand_msc(gf5, 2, 3, rng)
        g = rand_basis_change(gf5, 2, rng)
        h = rand_basis_change(gf5, 2, rng)
        assert transform(transform(A, h), g) == transform(A, g.compose(h))


def _all_gl2(ring):
    out = []
    elems = [rg.RingElem(ring, v) for v in range(ring.p)]
    for a, b, c, d in product(elems, repeat=4):
        if not (a * d - b * c).is_zero():
            out.append(BasisChange(Matrix(ring, [[a, b], [c, d]])))
    return out


def test_transform_group_action_exhaustive_gl2_f3(gf3):
    rng = random.Random(3)
    A = rand_msc(gf3, 2, 3, rng)
    group = _all_gl2(gf3)
    assert len(group) == 48
    assert transform(A, BasisChange.identity(gf3, 2)) == A
    for g in group:
        for h in group:
            assert transform(transform(A, h), g) == transform(A, g.compose(h))


def test_transported_product_matches_definition(gf5, rng):
    # applying g to a product equals the transported algebra's product of
    # the transformed arguments
    for _ in range(100):
        A = rand_msc(gf5, 2, 3, rng)
        g = rand_basis_change(gf5, 2, rng)
        B = transform(A, g)
        args = [rand_vector(gf5, 2, rng) for _ in range(3)]
        lhs = g.apply(eval_product(A, args))
        rhs = eval_product(B, [g.apply(v) for v in args])
        assert lhs == rhs


def test_basis_change_validation():
    with pytest.raises(ValueError):
        BasisChange.from_strings(Q, [["1", "2"], ["2", "4"]])  # singular
    poly = rg.polynomial_ring(["t"])
    with pytest.raises(ValueError):
        BasisChange(Matrix.from_strings(poly, [["t", "0"], ["0", "1"]]))
    g = BasisChange.from_strings(Q, [["1", "2"], ["3", "4"]])
    assert g.mat * g.inv_mat == Matrix.identity(Q, 2)


def test_transform_needs_matching_field(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    g = BasisChange.identity(rg.prime_field(7), 2)
    with pytest.raises(ValueError):
        transform(A, g)


def test_matrix_inverse_random_field(gf5, rng):
    for _ in range(20):
        g = rand_basis_change(gf5, 3, rng)
        assert g.mat * g.inv_mat == Matrix.identity(gf5, 3)


def test_msc_shape_validation():
    with pytest.raises(ValueError):
        Msc(2, 3, Matrix.zeros(Q, 2, 7))
    with pytest.raises(ValueError):
        Msc(2, 1, Matrix.zeros(Q, 2, 2))


def test_codec_exact_document():
    assert msc_to_doc(A12) == {
        "dim": 2,
        "arity": 2,
        "ring": {"kind": "Q"},
        "entries": [["0", "0", "0", "0"], ["1", "0", "0", "0"]],
    }


def test_codec_roundtrip(gf5, rng):
    for ring in (Q, gf5, rg.polynomial_ring(["a1", "b2"])):
        A = rand_msc(ring, 2, 3, rng)
        assert msc_from_doc(msc_to_doc(A)) == A


def test_codec_rejects_bad_documents():
    good = msc_to_doc(A12)
    with pytest.raises(ValueError, match="entries"):
        bad = dict(good)
        bad["entries"] = [["0"] * 7, ["0"] * 7]
        bad["arity"] = 3
        msc_from_doc(bad)
    with pytest.raises(ValueError, match="dim"):
        msc_from_doc({**good, "dim": 0})
    with pytest.raises(ValueError, match="dim"):
        msc_from_doc({**good, "dim": True})
    with pytest.raises(ValueError, match="arity"):
        msc_from_doc({**good, "arity": True})
    with pytest.raises(ValueError, match="vars"):
        msc_from_doc({**good, "ring": {"kind": "poly", "vars": "ab"}})
    with pytest.raises(ValueError, match="missing"):
        msc_from_doc({"dim": 2, "arity": 2, "ring": {"kind": "Q"}})
    with pytest.raises(ValueError, match="entry"):
        msc_from_doc({**good, "entries": [["0", "0", "0", "?"], ["0", "0", "0", "0"]]})


def test_specialize_and_reduce_mod():
    ring = rg.polynomial_ring(["a1", "b2"])
    tmpl = Msc.from_strings(ring, 2, 2,
                            [["a1", "0", "0", "0"], ["0", "b2", "1-a1", "0"]])
    spec = tmpl.specialize({"a1": 1, "b2": 1})
    assert spec.mat == Matrix.from_strings(Q, [["1", "0", "0", "0"], ["0", "1", "0", "0"]])
    reduced = spec.reduce_mod(5)
    assert reduced.ring == rg.prime_field(5)
    with pytest.raises(ZeroDivisionError):
        msc_q([["1/5", "0", "0", "0"], ["0", "0", "0", "0"]], arity=2).reduce_mod(5)


REDUCE_PRIMES = (5, 7, 11)


def reduce_per_entry(A, p):
    """Msc.reduce_mod's reference: rg.reduce_mod on every entry, in row-major
    order, so that the first entry it rejects raises."""
    return Msc(A.dim, A.arity, A.mat.map_entries(lambda x: rg.reduce_mod(x, p),
                                                 rg.prime_field(p)))


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@st.composite
def reducible_algebras(draw):
    """An algebra over Q (denominators up to 30, so that p divides some) or
    over GF(q) for q among REDUCE_PRIMES."""
    dim, arity = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2)]))
    ring = draw(st.sampled_from([Q] + [rg.prime_field(q) for q in REDUCE_PRIMES]))
    if ring == Q:
        entry = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
    else:
        entry = st.integers(0, ring.p - 1)
    return Msc(dim, arity, Matrix(ring, [
        [rg.from_fraction(ring, draw(entry)) for _ in range(dim ** arity)] for _ in range(dim)
    ]))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(A=reducible_algebras(), p=st.sampled_from(REDUCE_PRIMES))
def test_reduce_mod_matches_the_per_entry_reduction(A, p):
    assert outcome(A.reduce_mod, p) == outcome(reduce_per_entry, A, p)


def test_reduce_mod_raises_what_the_first_rejected_entry_raises():
    ring = rg.polynomial_ring(["a1"])
    for A, p, error in [
        (msc_q([["1/3", "1/5", "0", "1/10"], ["0"] * 4], arity=2), 5, ZeroDivisionError),
        (Msc.zero(rg.prime_field(7), 2, 2), 5, ValueError),
        (Msc.from_strings(ring, 2, 2, [["a1", "0", "0", "0"], ["0"] * 4]), 5, ValueError),
        (Msc.from_strings(ring, 2, 2, [["1", "0", "0", "0"], ["0"] * 4]), 5, ValueError),
    ]:
        got = outcome(A.reduce_mod, p)
        assert got == outcome(reduce_per_entry, A, p)
        assert got[0] is error


def test_reduce_mod_builds_one_prime_field(monkeypatch):
    built = []
    prime_field = rg.prime_field

    def counted(p):
        built.append(p)
        return prime_field(p)

    A = msc_q([["1/3", "2", "0", "-1/4"], ["0", "5/2", "1", "0"]], arity=2)
    expected = reduce_per_entry(A, 7)
    monkeypatch.setattr(rg, "prime_field", counted)
    for B in (A, expected):
        built.clear()
        assert B.reduce_mod(7) == expected
        assert built == [7]
