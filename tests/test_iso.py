from fractions import Fraction
from itertools import product as iter_product

import pytest

from trialg import polysolve
from trialg import ring as rg
from trialg.catalog import catalog_get
from trialg.identities import is_totally_associative
from trialg.iso import iso_report, iso_search, iso_verify
from trialg.msc import BasisChange, Matrix, Msc, transform

from conftest import rand_basis_change, rand_msc

Q = rg.QQ
F = Fraction


def a4(a1, b2):
    return catalog_get("A4", {"a1": a1, "b2": b2})


def test_iso_verify_identity(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    assert iso_verify(A, A, BasisChange.identity(gf5, 2))


def test_iso_verify_swap_witness():
    swap = BasisChange.from_strings(Q, [["0", "1"], ["1", "0"]])
    target = Msc.from_strings(Q, 2, 2, [["0", "0", "0", "0"], ["0", "0", "0", "1"]])
    assert iso_verify(a4(1, 0), target, swap)
    assert not iso_verify(a4(1, 0), a4(1, 0), swap)


def test_iso_verify_shape_guards(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    B = rand_msc(gf5, 2, 2, rng)
    with pytest.raises(ValueError):
        iso_verify(A, B, BasisChange.identity(gf5, 2))


def test_nonisomorphic_pair_has_no_witness_over_gf5():
    assert iso_search(a4(1, 1), a4(1, -1), 5) == []


def test_sign_flip_pair_is_isomorphic_over_gf5():
    plus = catalog_get("A2", {"a1": 1, "b1": 1, "b2": 1})
    minus = catalog_get("A2", {"a1": 1, "b1": -1, "b2": 1})
    witnesses = iso_search(plus, minus, 5)
    assert witnesses
    for w in witnesses:
        assert iso_verify(w.source, w.target, w.g)


def test_self_search_contains_identity(gf5, rng):
    for _ in range(3):
        A = rand_msc(gf5, 2, 3, rng)
        witnesses = iso_search(A, A, 5)
        mats = [w.g.mat.to_strings() for w in witnesses]
        assert [["1", "0"], ["0", "1"]] in mats


def test_cstar_not_isomorphic_to_b11_over_gf5():
    assert iso_search(catalog_get("Cstar"), catalog_get("B11"), 5) == []


def test_search_enumerates_all_of_gl2_f5():
    # the zero algebra is fixed by every basis change, so its self-search
    # returns the whole group: |GL(2, GF(5))| = (25 - 1)(25 - 5) = 480
    zero = Msc.zero(rg.prime_field(5), 2, 3)
    assert len(iso_search(zero, zero, 5)) == 480


def test_witness_soundness_recheck(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    g = rand_basis_change(gf5, 2, rng)
    B = transform(A, g)
    witnesses = iso_search(A, B, 5)
    assert witnesses
    for w in witnesses:
        assert transform(w.source, w.g) == w.target


def test_search_symmetry_spot_checks(gf5, rng):
    for trial in range(20):
        A = rand_msc(gf5, 2, 2, rng)
        if trial % 2:
            B = transform(A, rand_basis_change(gf5, 2, rng))
        else:
            B = rand_msc(gf5, 2, 2, rng)
        ab = bool(iso_search(A, B, 5))
        ba = bool(iso_search(B, A, 5))
        assert ab == ba


def test_isomorphism_transports_total_associativity(gf5, rng):
    cases = 0
    while cases < 10:
        A = rand_msc(gf5, 2, 3, rng)
        B = transform(A, rand_basis_change(gf5, 2, rng))
        if iso_search(A, B, 5, find_all=False):
            assert is_totally_associative(A) == is_totally_associative(B)
            cases += 1


def test_enumeration_order_is_row_major_lexicographic(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    witnesses = iso_search(A, A, 5)
    flats = [
        [int(x) for row in w.g.mat.to_strings() for x in row] for w in witnesses
    ]
    assert flats == sorted(flats)


def test_find_first_matches_full_enumeration(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    all_wits = iso_search(A, A, 5)
    first = iso_search(A, A, 5, find_all=False)
    assert len(first) == 1
    assert first[0].g == all_wits[0].g


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rational_entries_are_reduced_mod_p():
    a9 = catalog_get("A9")
    assert iso_search(a9, a9, 5, find_all=False)
    with pytest.raises(ZeroDivisionError):
        iso_search(a9, a9, 3, find_all=False)  # 1/3 has no image mod 3


def test_small_characteristic_warns(gf5):
    A = Msc.zero(rg.prime_field(3), 2, 2)
    with pytest.warns(RuntimeWarning):
        iso_search(A, A, 3, find_all=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bad_prime_rejected(gf5, rng):
    A = rand_msc(gf5, 2, 2, rng)
    with pytest.raises(ValueError):
        iso_search(A, A, 4)
    for p in (3037000507, 4294967311):  # residue products (p - 1)^2 >= 2^63
        with pytest.raises(ValueError, match="too large"):
            iso_search(a4(1, 1), a4(1, -1), p)


def test_shape_mismatch_rejected(gf5, rng):
    with pytest.raises(ValueError):
        iso_search(rand_msc(gf5, 2, 3, rng), rand_msc(gf5, 2, 2, rng), 5)


def brute_force_iso(A, B, p):
    """Every invertible g over GF(p), in row-major lexicographic order, that
    iso_verify accepts; independent of the search's polynomial system."""
    gf = rg.prime_field(p)
    m = A.dim
    found = []
    for values in iter_product(range(p), repeat=m * m):
        mat = Matrix(gf, [
            [rg.RingElem(gf, x) for x in values[r * m:(r + 1) * m]] for r in range(m)
        ])
        try:
            g = BasisChange(mat)
        except ValueError:  # singular
            continue
        if iso_verify(A, B, g):
            found.append(mat.to_strings())
    return found


def oracle_pairs(ring, dim, arity, rng):
    """A random pair, an isomorphic pair and a self pair of a sparse algebra."""
    A = rand_msc(ring, dim, arity, rng)
    sparse = Msc(dim, arity, Matrix(ring, [
        [x if rng.random() < 0.2 else rg.zero(ring) for x in row] for row in A.mat.rows
    ]))
    return [
        (A, rand_msc(ring, dim, arity, rng)),
        (A, transform(A, rand_basis_change(ring, dim, rng))),
        (sparse, sparse),
    ]


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("arity", [2, 3])
def test_search_matches_brute_force_oracle_dim_2(gf5, rng, monkeypatch, arity, rows):
    if rows is not None:
        monkeypatch.setattr(polysolve, "_MAX_ROWS", rows)
    for A, B in oracle_pairs(gf5, 2, arity, rng):
        got = [w.g.mat.to_strings() for w in iso_search(A, B, 5)]
        assert got == brute_force_iso(A, B, 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_search_matches_brute_force_oracle_dim_3(gf3, rng):
    A = rand_msc(gf3, 3, 2, rng)
    B = transform(A, rand_basis_change(gf3, 3, rng))
    got = [w.g.mat.to_strings() for w in iso_search(A, B, 3)]
    assert got and got == brute_force_iso(A, B, 3)


def test_iso_report_document(gf5, rng):
    A = rand_msc(gf5, 2, 3, rng)
    doc = iso_report(A, A, 5, find_all=True)
    assert doc["prime"] == 5
    assert doc["exhaustive"] is True
    assert doc["witness_count"] == len(doc["witnesses"]) > 0
    empty = iso_report(a4(1, 1), a4(1, -1), 5)
    assert empty == {"prime": 5, "witness_count": 0, "witnesses": [], "exhaustive": True}
