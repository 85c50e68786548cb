import random
import warnings
from fractions import Fraction
from itertools import permutations
from itertools import product as iter_product

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from trialg import iso, msc, polysolve
from trialg import ring as rg
from trialg.catalog import catalog_get, claims_verify
from trialg.identities import is_totally_associative
from trialg.iso import iso_report, iso_search, iso_verify
from trialg.msc import BasisChange, Matrix, Msc, transform
from trialg.polysolve import PolySystem, _compile_mod_p

from conftest import nest, rand_basis_change, rand_msc

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


def test_search_hits_are_rechecked_by_the_scalar_path(monkeypatch):
    # every hit of the sweep core passes _check_assignment_mod_p before
    # iso_verify sees it
    plus = catalog_get("A2", {"a1": 1, "b1": 1, "b2": 1})
    minus = catalog_get("A2", {"a1": 1, "b1": -1, "b2": 1})
    monkeypatch.setattr(polysolve, "_check_assignment_mod_p", lambda system, p, values: False)
    with pytest.raises(RuntimeError, match="the scalar check rejects"):
        iso_search(plus, minus, 5)


def test_small_characteristic_warns(gf5):
    A = Msc.zero(rg.prime_field(3), 2, 2)
    with pytest.warns(RuntimeWarning):
        iso_search(A, A, 3, find_all=False)


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


# ---------------------------------------------------------------------------
# the integer builder of the search's system against the Q[g, t] construction
# ---------------------------------------------------------------------------

def _cofactor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = rg.zero(rows[0][0].ring)
    for j, a in enumerate(rows[0]):
        term = a * _cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def oracle_iso_system(A, B, p):
    """B . g^(x n) - g . A = 0 and t . det(g) - 1 = 0 built over Q[g, t] (g
    nested into each slot of B, a cofactor determinant) from the residues of
    A and B mod p: the int_polys of PolySystem(ring, RingElems), and the
    system compiled mod p."""
    Ap, Bp = A.reduce_mod(p), B.reduce_mod(p)
    m = A.dim
    names = [f"g{r}_{c}" for r in range(1, m + 1) for c in range(1, m + 1)]
    ring = rg.polynomial_ring(names + ["t"])
    g = Matrix(ring, [
        [rg.variable(ring, names[r * m + c]) for c in range(m)] for r in range(m)
    ])
    a, b = (X.mat.map_entries(lambda x: rg.from_int(ring, x.v), ring) for X in (Ap, Bp))
    for slot in range(1, A.arity + 1):
        b = nest(b, A.arity, slot, g)
    unit = rg.variable(ring, "t") * _cofactor_det(g.rows) - rg.one(ring)
    system = PolySystem(ring, [x for row in (b - g * a).rows for x in row] + [unit])
    compiled, obstructed = _compile_mod_p(system, p)
    assert not obstructed
    return system.int_polys, compiled


def iso_system(A, B, p):
    """iso_search's system for A and B mod p: its int_polys, and the system
    compiled mod p as the sweep core compiles it."""
    system = iso._iso_polys(A.reduce_mod(p).rows, B.reduce_mod(p).rows, A.dim, A.arity)
    compiled, obstructed = _compile_mod_p(system, p)
    assert not obstructed
    assert all(d <= system.top for _, terms in system.int_polys for _, _, d in terms)
    return system.int_polys, compiled


def canonical(polys):
    return [sorted(terms) for terms in polys]


def _coprime_fraction(rng):
    # denominators prime to every modulus the oracle tests use
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 11, 13)))


def _alternating_msc(ring, dim, arity, rng):
    """mu(e_sigma(J)) = sign(sigma) mu(e_J), zero on repeated indices: every
    polynomial of the self system at a column with a repeated index cancels."""
    rows = [[rg.zero(ring)] * dim ** arity for _ in range(dim)]
    for J in iter_product(range(dim), repeat=arity):
        if list(J) != sorted(set(J)):
            continue
        for k in range(dim):
            c = rg.from_fraction(ring, rng.randint(1, 9))
            for perm in permutations(range(arity)):
                inversions = sum(x > y for s, x in enumerate(perm) for y in perm[s + 1:])
                col = msc.column_index(dim, [J[s] + 1 for s in perm])
                rows[k][col] = -c if inversions % 2 else c
    return Msc(dim, arity, Matrix(ring, rows))


def builder_pairs(dim, arity, p, rng):
    gf = rg.prime_field(p)
    A = rand_msc(gf, dim, arity, rng)
    sparse = Msc(dim, arity, Matrix(gf, [
        [x if rng.random() < 0.2 else rg.zero(gf) for x in row] for row in A.mat.rows
    ]))
    rational, other = (Msc(dim, arity, Matrix(Q, [
        [rg.from_fraction(Q, _coprime_fraction(rng)) for _ in row] for row in A.mat.rows
    ])) for _ in range(2))
    zero = Msc.zero(gf, dim, arity)
    alternating = _alternating_msc(gf, dim, arity, rng)
    return {
        "random": (A, rand_msc(gf, dim, arity, rng)),
        "isomorphic": (A, transform(A, rand_basis_change(gf, dim, rng))),
        "sparse": (sparse, sparse),
        "rational": (rational, other),
        "rational-self": (rational, rational),
        "zero": (zero, zero),
        "zero-vs-random": (zero, A),
        "alternating": (alternating, alternating),
    }


@pytest.mark.parametrize("p", [3, 5, 7, 3037000493])
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_builder_matches_the_polynomial_ring_oracle(dim, arity, p):
    rng = random.Random(f"{dim}:{arity}:{p}")
    for kind, (A, B) in builder_pairs(dim, arity, p, rng).items():
        polys, got = iso_system(A, B, p)
        expected_polys, expected = oracle_iso_system(A, B, p)
        # the same integers, L = 1 and degrees included, and the same residues
        assert [(L, sorted(terms)) for L, terms in polys] == \
            [(L, sorted(terms)) for L, terms in expected_polys], kind
        assert canonical(got) == canonical(expected), kind
        assert all(0 < c < p for terms in got for c, _ in terms), kind
        if kind == "zero":
            assert len(got) == 1  # only t . det(g) - 1 is left


def test_builder_leaves_out_polynomials_that_cancel():
    # over the integers the alternating self system does not cancel; mod p it
    # does, at every column with a repeated index
    p = 7
    A = _alternating_msc(rg.prime_field(p), 2, 2, random.Random(3))
    polys, compiled = iso_system(A, A, p)
    assert len(compiled) < len(polys) == 2 * 4 + 1
    assert canonical(compiled) == canonical(oracle_iso_system(A, A, p)[1])


def test_builder_reduces_rationals_once_and_keeps_the_zero_division():
    a9 = catalog_get("A9")
    assert canonical(iso_system(a9, a9, 5)[1]) == canonical(oracle_iso_system(a9, a9, 5)[1])
    with pytest.raises(ZeroDivisionError, match="mod 3"):
        a9.reduce_mod(3)
    with pytest.raises(ValueError):
        Msc.zero(rg.prime_field(7), 2, 2).reduce_mod(5)


def iso_system_over_q(A, B):
    """_iso_polys over Q: B . g^(x n) = g . A for A and B over Q, each
    algebra's numerators scaled by the other algebra's denominator."""
    a = [[x * B.den for x in row] for row in A.rows]
    b = [[x * A.den for x in row] for row in B.rows]
    return iso._iso_polys(a, b, A.dim, A.arity)


@pytest.mark.parametrize("A, B, pairs", [
    (a4(1, 1), a4(1, -1), 12),
    (a4(F(1, 3), F(-1, 3)), catalog_get("A5", {"a1": F(1, 3)}), 13),
], ids=["A4-sign-flip", "Cdagger-collision"])
def test_buchberger_certifies_a_non_isomorphism_over_q(A, B, pairs):
    system = iso_system_over_q(A, B)
    assert isinstance(system, PolySystem) and system.vars == ("g11", "g12", "g21", "g22", "t")
    out = polysolve.buchberger(system)
    assert out.status == "certified_empty_over_closure"
    assert [str(b) for b in out.basis] == ["1"]
    assert out.effort["pairs_processed"] == pairs


def test_a_sign_flip_witness_lifts_to_an_isomorphism_over_q():
    A = catalog_get("A2", {"a1": 1, "b1": 1, "b2": 1})
    B = catalog_get("A2", {"a1": 1, "b1": -1, "b2": 1})
    system = iso_system_over_q(A, B)
    out = polysolve.solve_ff_exhaustive(system, 5)
    assert out.status == "witness" and len(out.witnesses) == 1
    lifted, attempts = polysolve._try_lift(system, out.witnesses, 5)
    assert attempts == 1
    assert {k: str(v) for k, v in lifted.items()} == \
        {"g11": "1", "g12": "0", "g21": "0", "g22": "-1", "t": "-1"}
    g = BasisChange.from_strings(Q, [[str(lifted[f"g{r}{c}"]) for c in (1, 2)] for r in (1, 2)])
    assert iso_verify(A, B, g)


def test_gf_algebras_are_built_only_for_a_hit(monkeypatch):
    # the GF(p) algebras are integer rows; no Matrix of them is built
    # without a hit to re-check
    def refuse(*args):
        raise AssertionError("GF(p) matrices built without a hit to re-check")

    A, B = catalog_get("Cstar"), catalog_get("B11")
    monkeypatch.setattr(msc, "_from_ints", refuse)
    monkeypatch.setattr(msc.Msc, "mat", property(refuse))
    assert iso_search(A, B, 5) == []


@pytest.mark.parametrize("p", [5, 7])
def test_witness_algebras_are_the_reductions_mod_p(p):
    # the witnesses carry the GF(p) algebras the search reduced once, and
    # they must be what reduce_mod gives
    rng = random.Random(p)
    g = BasisChange.from_strings(Q, [["1", "1"], ["0", "2"]])
    for ring in (Q, rg.prime_field(p)):
        A = Msc(2, 2, Matrix(ring, [
            [rg.from_fraction(ring, _coprime_fraction(rng)) for _ in range(4)] for _ in range(2)
        ]))
        B = transform(A, g if ring == Q else BasisChange(g.mat.map_entries(
            lambda x: rg.reduce_mod(x, p), ring)))
        witnesses = iso_search(A, B, p)
        assert witnesses
        for w in witnesses:
            assert w.source == A.reduce_mod(p) and w.target == B.reduce_mod(p)
            assert w.source.ring == w.target.ring == rg.prime_field(p)


def test_search_keeps_the_first_witnesses_up_to_the_cap(monkeypatch):
    zero = Msc.zero(rg.prime_field(7), 2, 2)  # every g is an automorphism
    full = [w.g.mat.to_strings() for w in iso_search(zero, zero, 7)]
    assert len(full) == (7 ** 2 - 1) * (7 ** 2 - 7) == 2016
    assert iso_report(zero, zero, 7, find_all=True)["exhaustive"] is True
    monkeypatch.setattr(polysolve, "_MAX_WITNESSES", 100)
    assert [w.g.mat.to_strings() for w in iso_search(zero, zero, 7)] == full[:100]
    doc = iso_report(zero, zero, 7, find_all=True)
    assert doc["witness_count"] == 100 and doc["witnesses"] == full[:100]
    assert doc["exhaustive"] is False
    assert iso_report(zero, zero, 7)["witnesses"] == full[:1]


def test_a_large_search_space_does_not_warn():
    zero = Msc.zero(rg.prime_field(7), 3, 2)  # 7^9 candidates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(iso_search(zero, zero, 7, find_all=False)) == 1


def test_expansion_budget_boundary(monkeypatch):
    A = Msc.zero(rg.prime_field(5), 2, 3)
    size = 2 ** 7 + 2  # 2^(2n+1) products and 2! determinant terms
    monkeypatch.setattr(msc, "_MAX_ENTRIES", size)
    assert iso_search(A, A, 5, find_all=False)
    monkeypatch.setattr(msc, "_MAX_ENTRIES", size - 1)
    with pytest.raises(ValueError, match="more than"):
        iso_search(A, A, 5, find_all=False)


def test_arity_bound_holds_in_dimension_1():
    # a 1-dimensional system is two products whatever the arity, but each
    # has n factors; arity 10^7 ran without end
    for n in (18, 19, 10 ** 7):
        A = Msc.from_strings(Q, 1, n, [["2"]])
        if n < 19:
            assert [w.g.mat.to_strings() for w in iso_search(A, A, 5)] == [[["1"]]]
        else:
            with pytest.raises(ValueError, match=f"refuses arity {n}"):
                iso_search(A, A, 5)


# ---------------------------------------------------------------------------
# metamorphic: a search for transform(A, g) finds g
# ---------------------------------------------------------------------------

@st.composite
def basis_changes(draw, dim, p):
    """An integer g = P . L . D . U, invertible mod p (D's entries are 1..p-1)."""
    ints = st.integers(-3, 3)
    lower = [[draw(ints) if c < r else int(c == r) for c in range(dim)] for r in range(dim)]
    diag = [draw(st.integers(1, p - 1)) for _ in range(dim)]
    upper = [[draw(ints) if c > r else int(c == r) for c in range(dim)] for r in range(dim)]
    perm = draw(st.permutations(range(dim)))
    lu = [[sum(lower[r][k] * diag[k] * upper[k][c] for k in range(dim)) for c in range(dim)]
          for r in range(dim)]
    return [lu[perm[r]] for r in range(dim)]


# no shrinking: a dimension-3 search takes up to 0.4 s, so shrinking a
# failure would take minutes
@settings(derandomize=True, database=None, deadline=None, max_examples=16,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_search_finds_the_basis_change_that_made_the_target(data):
    dim = data.draw(st.sampled_from((2, 3)), label="dim")
    arity = data.draw(st.sampled_from((2, 3)), label="arity")
    p = data.draw(st.sampled_from((3, 5, 7)), label="p")
    fracs = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 4, 11)))
    A = Msc(dim, arity, Matrix(Q, [
        [rg.from_fraction(Q, data.draw(fracs)) for _ in range(dim ** arity)]
        for _ in range(dim)
    ]))
    g_rows = data.draw(basis_changes(dim, p), label="g")
    g = BasisChange(Matrix(Q, [[rg.from_fraction(Q, x) for x in row] for row in g_rows]))
    B = transform(A, g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # p = 3 is weak evidence
        found = [w.g.mat.to_strings() for w in iso_search(A, B, p)]
    assert [[str(x % p) for x in row] for row in g_rows] in found


# ---------------------------------------------------------------------------
# the invariant screen: invariants of A and of transform(A, g) agree, and a
# pair whose invariants differ has no witness
# ---------------------------------------------------------------------------

# every dimension 1-3 and arity 2-4 (Msc starts at arity 2); the search's
# expansion budget allows all of them
SCREEN_SHAPES = [(m, n) for m in (1, 2, 3) for n in (2, 3, 4)]
SCREEN_PRIMES = (5, 7, 11)


def _span_rank(rows, p):
    """The r with p^r vectors in the row span: a rank that shares no code
    with row reduction."""
    span = {
        tuple(sum(c * x for c, x in zip(coeffs, col)) % p for col in zip(*rows))
        for coeffs in iter_product(range(p), repeat=len(rows))
    }
    return next(r for r in range(len(rows) + 1) if p ** r == len(span))


def oracle_invariants(A, p):
    """iso._invariants re-derived from the definitions: the structure
    matrix's rank, then per slot s the rank of sum_k A[k, o with k at slot
    s], rows indexed by o's first index, columns by the rest."""
    m, n = A.dim, A.arity
    a = [[x.v for x in row] for row in A.reduce_mod(p).mat.rows]
    ranks = [_span_rank(a, p)]
    indices = range(1, m + 1)
    for s in range(n):
        rows = [
            [sum(a[k - 1][msc.column_index(m, [*o[:s], k, *o[s:]])] for k in indices) % p
             for o in ((first, *rest) for rest in iter_product(indices, repeat=n - 2))]
            for first in indices
        ]
        ranks.append(_span_rank(rows, p))
    return tuple(ranks)


def invariants(A, p):
    return iso._invariants(A.reduce_mod(p).rows, A.dim, A.arity, p)


@st.composite
def screen_algebras(draw, p, dim, arity):
    """An algebra over GF(p) whose entries are 0 about half the time, so
    that ranks below full are common."""
    gf = rg.prime_field(p)
    entry = st.one_of(st.just(0), st.integers(1, p - 1))
    return Msc(dim, arity, Matrix(gf, [
        [rg.RingElem(gf, draw(entry)) for _ in range(dim ** arity)] for _ in range(dim)
    ]))


def test_rank_mod_p_matches_the_span_count(rng):
    for p in SCREEN_PRIMES:
        for nrows, ncols in ((1, 1), (2, 3), (3, 2), (3, 4)):
            for _ in range(10):
                rows = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                        for _ in range(nrows)]
                if rng.random() < 0.3:  # a dependent row
                    c = rng.randrange(p)
                    rows[-1] = [c * x % p for x in rows[0]]
                assert iso._rank_mod_p(rows, p) == _span_rank(rows, p), rows


def test_trace_ranks_of_a_binary_algebra_are_tr_r_and_tr_l():
    # A4(1, 1) has tr L_x != 0 and A4(1, -1) has tr L = 0, which is what
    # separates the Ex52 collision pair
    for p in SCREEN_PRIMES:
        plus, minus = invariants(a4(1, 1), p), invariants(a4(1, -1), p)
        assert plus == oracle_invariants(a4(1, 1), p)
        assert minus == oracle_invariants(a4(1, -1), p)
        assert plus[2] == 1 and minus[2] == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_invariants_are_kept_by_every_basis_change(data):
    dim, arity = data.draw(st.sampled_from(SCREEN_SHAPES), label="shape")
    p = data.draw(st.sampled_from(SCREEN_PRIMES), label="p")
    A = data.draw(screen_algebras(p, dim, arity), label="A")
    gf = rg.prime_field(p)
    g = BasisChange(Matrix(gf, [[rg.RingElem(gf, x % p) for x in row]
                                for row in data.draw(basis_changes(dim, p), label="g")]))
    assert invariants(A, p) == oracle_invariants(A, p)
    assert invariants(transform(A, g), p) == invariants(A, p)


# the brute-force oracle runs where p^(m^2) candidates stay cheap (m = 1, and
# m = 2 at p = 5 and 7); the enumerator where its first tested level has at
# most 7^7 rows (all of m = 1 and 2, m = 3 at p = 5 and 7)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_a_pair_the_invariants_separate_has_no_witness(data):
    dim, arity = data.draw(st.sampled_from(SCREEN_SHAPES), label="shape")
    p = data.draw(st.sampled_from(SCREEN_PRIMES), label="p")
    A = data.draw(screen_algebras(p, dim, arity), label="A")
    B = data.draw(screen_algebras(p, dim, arity), label="B")
    assume(invariants(A, p) != invariants(B, p))
    assert iso_search(A, B, p) == []
    if p ** (dim * dim) <= 7 ** 4:
        assert brute_force_iso(A, B, p) == []
    if p ** (dim * dim - 2) <= 7 ** 7:
        assert polysolve._enumerate(iso_system(A, B, p)[1], p, dim * dim + 1,
                                    p ** (dim * dim + 1)) == []


def test_the_replay_enumerates_only_what_the_invariants_leave(monkeypatch):
    # 62 searches per replay; the invariants settle all but the Cdagger
    # collision (at 5, 7 and 11) and the isomorphic A2 and A6 sign pairs.
    # iso's own reference to the sweep core counts its enumerations only
    calls = []
    sweep = iso._sweep

    def counted(system, p, cap):
        calls.append(p)
        return sweep(system, p, cap)

    monkeypatch.setattr(iso, "_sweep", counted)
    screened = claims_verify().to_doc()
    assert calls == [5, 7, 11, 5, 5]
    calls.clear()
    monkeypatch.setattr(iso, "_invariants", lambda a, m, n, p: ())
    assert claims_verify().to_doc() == screened
    assert len(calls) == 62
