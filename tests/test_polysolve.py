import functools
import gc
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from trialg import polysolve
from trialg import ring as rg
from trialg.catalog import catalog_get, totassoc_constraints
from trialg.generate import expressibility_residual, symbolic_system
from trialg.iso import iso_search
from trialg.msc import Msc, msc_from_doc
from trialg.polysolve import (
    DEFAULT_CAPS,
    PolySystem,
    buchberger,
    certify_expressibility,
    groebner_selfcheck,
    reduce_poly,
    solve_ff_exhaustive,
    solve_ff_reference,
)

from conftest import GOLDEN

Q = rg.QQ
F = Fraction


def sys_of(names, texts):
    return PolySystem.from_strings(names, texts)


# ---------------------------------------------------------------------------
# PolySystem basics
# ---------------------------------------------------------------------------

def test_polysystem_drops_zero_polys():
    system = sys_of(["x", "y"], ["x - x", "x*y - 1"])
    assert len(system.polys) == 1


def test_polysystem_doc_roundtrip():
    system = sys_of(["x", "y"], ["x^2 - 1", "x*y - 1"])
    doc = system.to_doc()
    assert doc == {"vars": ["x", "y"], "polys": ["x^2 - 1", "x*y - 1"]}
    again = PolySystem.from_doc(doc)
    assert [str(p) for p in again.polys] == doc["polys"]


def test_polysystem_rejects_foreign_polys():
    other = rg.polynomial_ring(["z"])
    with pytest.raises(ValueError):
        PolySystem(rg.polynomial_ring(["x"]), [rg.variable(other, "z")])


# ---------------------------------------------------------------------------
# exhaustive sweeps
# ---------------------------------------------------------------------------

def test_sweep_single_variable_witness():
    out = solve_ff_exhaustive(sys_of(["h111"], ["h111"]), 5)
    assert out.status == "witness"
    assert out.witness["h111"].v == 0


def test_sweep_finds_lexicographically_first_witness():
    out = solve_ff_exhaustive(sys_of(["x", "y"], ["x - 3", "y^2 - 4"]), 5)
    assert out.status == "witness"
    assert (out.witness["x"].v, out.witness["y"].v) == (3, 2)


def test_sweep_no_solution_is_exhaustive():
    out = solve_ff_exhaustive(sys_of(["x"], ["x^2 - 2"]), 5)
    assert out.status == "no_solution_mod_p"
    assert out.effort["exhaustive"] is True
    assert out.effort["assignments"] == 5


def _random_system(rng, names, p):
    """Polynomials drawing their terms from one small pool of monomials, so
    they share monomials and crowd into the last variable's level; the pool
    has exponents up to 4 and a constant, and coefficients in -2p..2p may
    vanish or cancel mod p."""
    ring = rg.polynomial_ring(names)
    pool = [tuple(rng.randint(0, 4) if rng.random() < 0.5 else 0 for _ in names)
            for _ in range(5)]
    pool += [(0,) * len(names), (0,) * (len(names) - 1) + (1,)]
    polys = []
    for _ in range(rng.randint(1, 6)):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = rng.choice(pool)
            terms[mono] = terms.get(mono, F(0)) + rng.randint(-2 * p, 2 * p)
        polys.append(rg.RingElem(ring, {m: c for m, c in terms.items() if c}))
    return PolySystem(ring, polys)


def _check_sweep_against_reference():
    rng = random.Random(4242)
    for p, names_pool in ((5, (["x", "y"], ["x", "y", "z"], ["w", "x", "y", "z"])),
                          (7, (["x", "y"], ["x", "y", "z"]))):
        hit = 0
        for trial in range(60):
            names = names_pool[trial % len(names_pool)]
            system = _random_system(rng, names, p)
            expected = solve_ff_reference(system, p)
            got = solve_ff_exhaustive(system, p)
            if not expected:
                assert got.status == "no_solution_mod_p"
                continue
            hit += 1
            assert got.status == "witness"
            ref_tuples = [tuple(w[n].v for n in names) for w in expected]
            assert got.witnesses == ref_tuples
            assert got.witness == expected[0]
        assert 10 <= hit <= 50  # both outcomes are well represented


def test_sweep_matches_reference_evaluator_on_random_systems():
    _check_sweep_against_reference()


@pytest.mark.parametrize("rows", [3, 12])
def test_sweep_matches_reference_evaluator_with_split_expansions(monkeypatch, rows):
    # 3 rows split the values of each variable (3 + 2 of 5); 12 rows take
    # two prefixes at a time, splitting the frontier instead
    monkeypatch.setattr(polysolve, "_MAX_ROWS", rows)
    _check_sweep_against_reference()


def _random_rational_system(rng, names, p, p_denominator):
    """A _random_system whose coefficients get denominators up to 4; with
    ``p_denominator`` one coefficient's denominator is a multiple of p."""
    system = _random_system(rng, names, p)
    polys = [{m: c / rng.choice((1, 1, 2, 3, 4)) for m, c in poly.v.items()}
             for poly in system.polys]
    if p_denominator:
        terms = rng.choice(polys)
        mono = rng.choice(sorted(terms))
        terms[mono] /= p
    return PolySystem(system.ring, [rg.RingElem(system.ring, t) for t in polys])


def test_scalar_recheck_matches_reference_evaluator():
    # the integer re-check of sweep hits agrees with the prime-field
    # evaluator at every assignment; a polynomial with a denominator that p
    # divides has no value mod p, the reference raises on it, and the
    # re-check rejects every assignment
    rng = random.Random(515)
    seen = Counter()
    for trial in range(100):
        p = (5, 7)[trial % 2]
        names = (["x", "y"], ["x", "y", "z"])[trial % 3 % 2]
        system = _random_rational_system(rng, names, p, trial % 4 == 3)
        assignments = list(iter_product(range(p), repeat=len(names)))
        form = polysolve._integer_form(system)
        got = [a for a in assignments if polysolve._check_assignment_mod_p(form, p, a)]
        bad = [poly for poly in system.polys if any(q.denominator % p == 0 for q in poly.v.values())]
        if bad:
            with pytest.raises(ZeroDivisionError):
                solve_ff_reference(PolySystem(system.ring, bad[:1]), p)
            assert got == []
            seen["denominator"] += 1
            continue
        expected = [tuple(w[n].v for n in names) for w in solve_ff_reference(system, p)]
        assert got == expected
        seen["solved" if expected else "empty"] += 1
    assert min(seen.values()) >= 10, seen  # every kind is well represented


def fraction_compile_mod_p(system: PolySystem, p: int):
    """Every polynomial mod p as (coeff, factors) terms, each coefficient's
    denominator inverted mod p: the oracle for the integer-form compiler."""
    compiled = []
    for poly in system.polys:
        terms = []
        for mono, q in poly.v.items():
            den = q.denominator % p
            if den == 0:
                raise ValueError(
                    f"prime {p} divides the denominator of coefficient {q}"
                )
            c = q.numerator * pow(den, p - 2, p) % p
            if c:
                terms.append((c, tuple((i, e) for i, e in enumerate(mono) if e)))
        if not terms:
            continue
        if all(not factors for _, factors in terms):
            return [], True
        compiled.append(terms)
    return compiled, False


def integer_compile_mod_p(system: PolySystem, p: int):
    return polysolve._compile_mod_p(polysolve._integer_form(system), p)


def compile_result(compile_mod_p, system, p):
    try:
        return compile_mod_p(system, p)
    except ValueError as exc:
        return str(exc)


@st.composite
def rational_systems(draw, p):
    """Up to five polynomials in one to three variables whose coefficients
    may vanish mod p or have a denominator that p divides; with a nonzero
    constant among them now and then."""
    names = ["x", "y", "z"][:draw(st.integers(1, 3), label="nvars")]
    ring = rg.polynomial_ring(names)
    monos = st.tuples(*[st.integers(0, 3)] * len(names))
    numerators = st.one_of(st.integers(-12, 12), st.integers(-3, 3).map(lambda k: k * p),
                           st.integers(-10 ** 20, 10 ** 20))
    denominators = st.integers(1, 12)
    if draw(st.booleans(), label="p in a denominator"):
        denominators |= st.sampled_from((p, 2 * p))
    coeffs = st.builds(Fraction, numerators, denominators)
    polys = [{m: c for m, c in terms.items() if c} for terms in
             draw(st.lists(st.dictionaries(monos, coeffs, min_size=1, max_size=5),
                           min_size=1, max_size=5), label="polys")]
    if draw(st.booleans(), label="constant"):
        c = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)), label="c")
        polys.insert(draw(st.integers(0, len(polys)), label="at"), {(0,) * len(names): c})
    return PolySystem(ring, [rg.RingElem(ring, t) for t in polys])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_integer_form_compiler_matches_the_fraction_compiler(data):
    p = data.draw(st.sampled_from((5, 7, 11, 3037000493)), label="p")
    system = data.draw(rational_systems(p), label="system")
    assert compile_result(integer_compile_mod_p, system, p) == \
        compile_result(fraction_compile_mod_p, system, p)


def test_integer_form_compiler_keeps_the_error_and_the_obstruction():
    system = sys_of(["x", "y"], ["x - 1/2", "y + 2/15*x - 7/5", "x*y"])
    for p, expected in ((5, "prime 5 divides the denominator of coefficient 2/15"),
                        (3, "prime 3 divides the denominator of coefficient 2/15"),
                        (7, fraction_compile_mod_p(system, 7))):
        assert compile_result(integer_compile_mod_p, system, p) == expected
    # a nonzero constant before a bad denominator obstructs, after it raises
    assert integer_compile_mod_p(sys_of(["x"], ["x^2 + 1", "3/7", "1/5*x"]), 5) == ([], True)
    with pytest.raises(ValueError, match="^prime 5 divides the denominator of coefficient 1/5$"):
        integer_compile_mod_p(sys_of(["x"], ["1/5*x", "3/7"]), 5)


def _python_residues(polys, rows, p):
    return [
        [sum(c * math.prod(row[i] ** e for i, e in factors) for c, factors in terms) % p
         for row in rows]
        for terms in polys
    ]


@pytest.mark.parametrize("rows", [None, 3, 12])
def test_enumerator_sums_repeated_monomials(monkeypatch, rows):
    # compiled terms as the enumerator takes them, with a monomial repeated
    # inside one polynomial: the copies add up, cancel mod p, or leave a
    # polynomial that is a nonzero constant
    if rows:
        monkeypatch.setattr(polysolve, "_MAX_ROWS", rows)
    rng = random.Random(99)
    for trial in range(40):
        p, nvars = (5, 3) if trial % 2 else (7, 2)
        polys = []
        for _ in range(rng.randint(1, 5)):
            terms = []
            for _ in range(rng.randint(1, 4)):
                factors = tuple((i, rng.randint(1, 4)) for i in range(nvars) if rng.random() < 0.6)
                c = rng.randint(1, p - 1)
                terms.append((c, factors or ((nvars - 1, 1),)))
                if rng.random() < 0.5:  # a repeat that cancels or adds up
                    terms.append((p - c if rng.random() < 0.5 else c, terms[-1][1]))
            if rng.random() < 0.2:
                terms += [(2, ()), (p - 1, ()), (rng.randint(1, p - 1), ())]
            polys.append(terms)
        assignments = list(iter_product(range(p), repeat=nvars))
        residues = _python_residues(polys, assignments, p)
        expected = [a for k, a in enumerate(assignments) if not any(r[k] for r in residues)]
        assert polysolve._enumerate(polys, p, nvars, p ** nvars) == expected


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("p", [7, 2097143, 2097169, 3037000493])
def test_level_residues_match_python_integers(p, degree):
    # below 2^21 a cubic monomial fits int64 but its product with a
    # coefficient does not, and a quartic one does not; above 2^21 the cubic
    # itself does not; at 3037000493, the largest accepted prime, every
    # product is reduced and the sum is taken one monomial at a time
    import numpy as np

    rng = random.Random(p)
    nvars = 4
    polys = []
    for _ in range(4):
        terms = [(rng.choice([p - 1, rng.randrange(1, p)]),
                  tuple(sorted(Counter(rng.randrange(nvars) for _ in range(degree)).items())))
                 for _ in range(36)]
        terms += [(p - 1, ()), (rng.randrange(1, p), ((rng.randrange(nvars), 1),))]
        polys.append(terms)
    rows = [[p - 1] * nvars, [0] * nvars] + [
        [rng.choice([p - 1, p - 2, rng.randrange(p)]) for _ in range(nvars)] for _ in range(60)
    ]
    cols = np.array([list(col) for col in zip(*rows)] + [[1] * len(rows)], dtype=np.int64)
    got = polysolve._level_residues(polysolve._level_table(np, polys, p), cols, p)
    assert got.tolist() == _python_residues(polys, rows, p)


def test_sweep_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_ff_exhaustive(sys_of(["x"], ["x"]), 6)
    with pytest.raises(ValueError):
        solve_ff_exhaustive(sys_of(["x"], ["1/5*x - 1"]), 5)
    # the modulus is refused before anything is compiled, so a system that
    # reduces to a nonzero constant is refused too
    for p in (3037000507, 4294967311):  # residue products (p - 1)^2 >= 2^63
        for texts in (["x^2 - 4"], ["x - 1"], ["1"]):
            with pytest.raises(ValueError, match="too large"):
                solve_ff_exhaustive(sys_of(["x"], texts), p)


def test_sweep_has_no_limit_on_its_variables_but_the_row_budget():
    # ten unknowns: x_i = i + 1 pins the one witness, and each level keeps
    # a single row, so the row budget is far off
    names = [f"x{i}" for i in range(10)]
    out = solve_ff_exhaustive(sys_of(names, ["x0 - 1"] + [
        f"{b} - {a} - 1" for a, b in zip(names, names[1:])]), 5)
    assert out.status == "witness"
    assert out.witnesses == [(1, 2, 3, 4, 0, 1, 2, 3, 4, 0)]
    assert out.effort == {"prime": 5, "assignments": 5 ** 10, "exhaustive": True}


def test_sweep_is_exact_at_the_largest_modulus():
    # the enumerator stops at its first hit here: a sweep keeps looking for
    # more and would pass the row budget at this p
    p = 3037000493  # the largest prime with (p - 1)^2 < 2^63
    root = 60000  # root^2 exceeds p, so -x^2 multiplies two large residues
    form = polysolve._integer_form(sys_of(["x"], [f"{root ** 2 % p} - x^2"]))
    compiled, obstructed = polysolve._compile_mod_p(form, p)
    assert not obstructed
    assert polysolve._enumerate(compiled, p, 1, 1) == [(root,)]
    assert polysolve._check_assignment_mod_p(form, p, (root,))


def test_enumeration_work_budget_is_exact(monkeypatch):
    # with no polynomial every prefix survives: 5 + 25 + 125 rows for three
    # variables mod 5
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 155)
    assert len(polysolve._enumerate([], 5, 3, 5 ** 3)) == 125
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 154)
    with pytest.raises(ValueError, match="passed 154 rows"):
        polysolve._enumerate([], 5, 3, 5 ** 3)


def test_enumeration_work_budget_counts_split_expansions(monkeypatch):
    # split into expansions of at most 3 rows, the count is the same
    monkeypatch.setattr(polysolve, "_MAX_ROWS", 3)
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 155)
    assert len(polysolve._enumerate([], 5, 3, 5 ** 3)) == 125
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 154)
    with pytest.raises(ValueError, match="passed 154 rows"):
        polysolve._enumerate([], 5, 3, 5 ** 3)


def test_enumeration_leaves_no_reference_cycle():
    # with the collector off, whatever an enumeration leaves unreachable is
    # a cycle that would hold its numpy tables until a full collection
    cstar = catalog_get("Cstar")
    system = symbolic_system(cstar)
    gc.collect()
    gc.disable()
    try:
        solve_ff_exhaustive(system, 7)
        assert gc.collect() == 0
        iso_search(cstar, cstar, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


# x*y mod 5 vanishes at (0, y) and at (x, 0): nine points in lexicographic order
XY_ZEROS_MOD_5 = [(0, y) for y in range(5)] + [(x, 0) for x in range(1, 5)]


def test_sweep_returns_every_witness_in_order():
    out = solve_ff_exhaustive(sys_of(["x", "y"], ["x*y"]), 5)
    assert out.status == "witness"
    assert out.witnesses == XY_ZEROS_MOD_5
    assert out.effort == {"prime": 5, "assignments": 25, "exhaustive": True}
    assert out.to_doc()["witness_count"] == 9


def test_sweep_at_the_witness_cap_is_not_exhaustive(monkeypatch):
    monkeypatch.setattr(polysolve, "_MAX_WITNESSES", 4)
    out = solve_ff_exhaustive(sys_of(["x", "y"], ["x*y"]), 5)
    assert out.status == "witness"
    assert out.witnesses == XY_ZEROS_MOD_5[:4]
    assert out.witness == {"x": rg.RingElem(rg.prime_field(5), 0),
                           "y": rg.RingElem(rg.prime_field(5), 0)}
    assert out.effort == {"prime": 5, "assignments": 25, "exhaustive": False,
                          "witness_cap_hit": True}


def test_sweep_past_the_row_budget_is_inconclusive(monkeypatch):
    # 5 + 25 + 125 rows for three variables mod 5, one more than the budget
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 154)
    out = solve_ff_exhaustive(sys_of(["x", "y", "z"], ["x*y*z"]), 5)
    assert (out.status, out.prime, out.witness, out.witnesses) == ("inconclusive", 5, None, None)
    assert out.effort == {"prime": 5, "assignments": 125, "exhaustive": False,
                          "row_budget_hit": True}


def test_sweep_constant_obstruction():
    out = solve_ff_exhaustive(sys_of(["x"], ["5*x + 1"]), 5)
    assert out.status == "no_solution_mod_p"
    assert out.effort.get("constant_obstruction") is True


def test_sweep_b9_system_contains_a9_mod_7():
    system = symbolic_system(catalog_get("B9"))
    out = solve_ff_exhaustive(system, 7)
    assert out.status == "witness"
    a9 = catalog_get("A9").reduce_mod(7)
    expected = tuple(
        a9.entry(k, (r, s)).v for k in (1, 2) for r in (1, 2) for s in (1, 2)
    )
    assert expected in out.witnesses


# ---------------------------------------------------------------------------
# Buchberger engine
# ---------------------------------------------------------------------------

def test_buchberger_linear_fixture():
    out = buchberger(sys_of(["x"], ["3*x - 6"]))
    assert [str(b) for b in out.basis] == ["x - 2"]
    assert out.status == "inconclusive"
    assert out.effort["completed"] is True


def test_buchberger_certifies_inconsistent_pair():
    out = buchberger(sys_of(["x"], ["x", "x + 1"]))
    assert out.status == "certified_empty_over_closure"
    assert [str(b) for b in out.basis] == ["1"]


def test_buchberger_reduced_basis_fixture():
    out = buchberger(sys_of(["x", "y"], ["x^2 - 1", "x*y - 1"]))
    assert [str(b) for b in out.basis] == ["x - y", "y^2 - 1"]
    assert groebner_selfcheck(out.basis)


def test_buchberger_spoly_property_on_random_small_systems():
    rng = random.Random(77)
    for _ in range(10):
        names = ["x", "y"]
        ring = rg.polynomial_ring(names)
        polys = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = (rng.randint(0, 2), rng.randint(0, 2))
                c = F(rng.randint(-3, 3))
                if c:
                    terms[mono] = terms.get(mono, F(0)) + c
            if terms:
                polys.append(rg.RingElem(ring, terms))
        if not polys:
            continue
        system = PolySystem(ring, polys)
        if not system.polys:
            continue
        out = buchberger(system)
        if out.effort["completed"]:
            assert groebner_selfcheck(out.basis)
            for f in system.polys:
                assert reduce_poly(f, out.basis).is_zero()


def test_buchberger_cofactors_certify_ideal_membership():
    rng = random.Random(31)
    checked = 0
    while checked < 20:
        names = ["x", "y"]
        ring = rg.polynomial_ring(names)
        polys = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = (rng.randint(0, 2), rng.randint(0, 2))
                c = F(rng.randint(-3, 3))
                if c:
                    terms[mono] = terms.get(mono, F(0)) + c
            if terms:
                polys.append(rg.RingElem(ring, terms))
        if not polys:
            continue
        system = PolySystem(ring, polys)
        if not system.polys:
            continue
        out = buchberger(system, track=True)
        assert out.cofactors is not None
        for elem, cof in zip(out.basis, out.cofactors):
            acc = rg.zero(ring)
            for q, f in zip(cof, system.polys):
                acc = acc + q * f
            assert acc == elem
        checked += 1


def test_buchberger_caps_yield_inconclusive():
    system = symbolic_system(catalog_get("Cstar"))
    out = buchberger(system, caps={"max_pairs": 3})
    assert out.status == "inconclusive"
    assert out.effort["caps_hit"] is True


def test_degree_cap_marks_inconclusive():
    out = buchberger(sys_of(["x", "y"], ["x^2 - 1", "x*y - 1"]), caps={"max_degree": 1})
    assert out.status == "inconclusive"
    assert out.effort["caps_hit"] is True


def test_a_constant_certifies_under_a_cap():
    # B3's constraints hold the constants 2 and -2: the reduced basis is {1}
    # though the degree cap leaves pairs unprocessed
    system = totassoc_constraints("B3")
    assert {"2", "-2"} <= {str(p) for p in system.polys}
    out = buchberger(system, caps={"max_degree": 3})
    assert [str(b) for b in out.basis] == ["1"]
    assert out.status == "certified_empty_over_closure"
    assert out.effort["caps_hit"] is True and out.effort["completed"] is True
    out = buchberger(sys_of(["x", "y"], ["x^2*y - 1", "x*y^2 + 1", "3"]), caps={"max_pairs": 0})
    assert out.status == "certified_empty_over_closure"
    assert [str(b) for b in out.basis] == ["1"]


def test_certified_empty_implies_no_solution_mod_p():
    system = sys_of(["x"], ["x", "x + 1"])
    assert buchberger(system).status == "certified_empty_over_closure"
    for p in (5, 7, 11):
        assert solve_ff_exhaustive(system, p).status == "no_solution_mod_p"


def test_reduce_poly_normal_form():
    system = sys_of(["x", "y"], ["x^2 - 1", "x*y - 1"])
    out = buchberger(system)
    ring = system.ring
    f = rg.parse_scalar("x^2*y - y", ring)
    assert reduce_poly(f, out.basis).is_zero()
    g = rg.parse_scalar("x + 1", ring)
    assert not reduce_poly(g, out.basis).is_zero()


def test_buchberger_rejects_non_rational_carrier():
    # systems are built over Q[vars] by construction; the engine trusts that
    system = sys_of(["x"], ["x - 2"])
    out = buchberger(system)
    assert out.basis and str(out.basis[0]) == "x - 2"


# ---------------------------------------------------------------------------
# expressibility pipeline
# ---------------------------------------------------------------------------

def test_certify_b9_lifts_an_exact_witness():
    out = certify_expressibility(catalog_get("B9"), primes=(5, 7))
    assert out.status == "witness"
    assert out.prime is None  # rational witness, not a residue
    witness_msc = Msc.from_strings(Q, 2, 2, [
        [str(out.witness[f"h1{r}{s}"]) for r in (1, 2) for s in (1, 2)],
        [str(out.witness[f"h2{r}{s}"]) for r in (1, 2) for s in (1, 2)],
    ])
    assert expressibility_residual(witness_msc, catalog_get("B9")).is_zero()


def test_certify_cdagger_recovers_a_listed_generator():
    out = certify_expressibility(catalog_get("Cdagger"), primes=(5, 7))
    assert out.status == "witness"
    values = {k: str(v) for k, v in out.witness.items()}
    assert values == {
        "h111": "1/3", "h112": "0", "h121": "0", "h122": "0",
        "h211": "0", "h212": "-1/3", "h221": "2/3", "h222": "0",
    }


def fraction_lift_candidates(residues, modulus, bound):
    """Common-denominator rational reconstructions of a residue vector."""
    half = modulus // 2
    for d in range(1, bound + 1):
        if math.gcd(d, modulus) != 1:
            continue
        out = []
        for r in residues:
            num = r * d % modulus
            if num > half:
                num -= modulus
            out.append(Fraction(num, d))
        yield out


def fraction_try_lift(system: PolySystem, residue_vectors, modulus, bound=64,
                      max_attempts=4096):
    """First exact rational witness reconstructed from mod-``modulus`` data."""
    attempts = 0
    names = system.vars
    for residues in residue_vectors:
        for vals in fraction_lift_candidates(residues, modulus, bound):
            attempts += 1
            if attempts > max_attempts:
                return None, attempts
            if all(rg._poly_eval(poly.v, vals) == 0 for poly in system.polys):
                return dict(zip(names, (rg.RingElem(rg.QQ, v) for v in vals))), attempts
    return None, attempts


LIFT_TARGETS = ("Cdagger", "B9", "express-crt35.json", "express-gf-witness.json")


@functools.lru_cache(maxsize=None)
def lift_data(target):
    """The target's system and its residue vectors by modulus: the sweep
    witnesses mod 5 and mod 7, and their CRT combinations mod 35 as
    certify_expressibility forms them."""
    if target.endswith(".json"):
        C = msc_from_doc(json.loads((GOLDEN / target).read_text(encoding="utf-8")))
    else:
        C = catalog_get(target)
    system = symbolic_system(C)
    vectors = {}
    for p in (5, 7):
        out = solve_ff_exhaustive(system, p)
        vectors[p] = out.witnesses or []
    vectors[35] = [tuple(polysolve._crt_pair(a, 5, b, 7))
                   for a in vectors[5][:64] for b in vectors[7][:64]]
    return system, vectors


def lift_result(lifted):
    witness, attempts = lifted
    if witness is None:
        return None, attempts
    assert all(type(v.v) is Fraction for v in witness.values())
    return {n: v.v for n, v in witness.items()}, attempts


@pytest.mark.parametrize("target", LIFT_TARGETS)
@pytest.mark.parametrize("modulus", [5, 7, 35])
def test_integer_lift_matches_the_fraction_lift_on_sweep_witnesses(target, modulus):
    # the lift as certify_expressibility runs it, then cut off one attempt
    # before and exactly at the accepted candidate
    system, vectors = lift_data(target)
    expected = fraction_try_lift(system, vectors[modulus], modulus)
    assert lift_result(polysolve._try_lift(system, vectors[modulus], modulus)) == \
        lift_result(expected)
    if expected[0] is not None:
        for cut in (expected[1] - 1, expected[1]):
            assert lift_result(polysolve._try_lift(system, vectors[modulus], modulus,
                                                   max_attempts=cut)) == \
                lift_result(fraction_try_lift(system, vectors[modulus], modulus,
                                              max_attempts=cut))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_integer_lift_matches_the_fraction_lift_on_drawn_residues(data):
    target = data.draw(st.sampled_from(LIFT_TARGETS), label="target")
    modulus = data.draw(st.sampled_from((5, 7, 35)), label="modulus")
    system, vectors = lift_data(target)
    drawn = st.tuples(*[st.integers(0, modulus - 1)] * len(system.vars))
    vector = st.one_of(st.sampled_from(vectors[modulus]), drawn) if vectors[modulus] else drawn
    residues = data.draw(st.lists(vector, max_size=4), label="residues")
    bound = data.draw(st.integers(1, 64), label="bound")
    max_attempts = data.draw(st.integers(0, 120), label="max_attempts")
    assert lift_result(polysolve._try_lift(system, residues, modulus, bound, max_attempts)) == \
        lift_result(fraction_try_lift(system, residues, modulus, bound, max_attempts))


@pytest.mark.parametrize("target", ["Cstar", "Cdagger"])
def test_certify_builds_the_integer_form_once(monkeypatch, target):
    # Cstar is swept mod 5, 7 and 11 without a hit; Cdagger's sweep mod 5
    # re-checks its hits and lifts one.  Each sweep and each lift reads the
    # one integer form that the first sweep built; a sweep's re-check of its
    # hits is handed the form the sweep read
    builds, calls = [], []
    integer_form = polysolve._integer_form

    def counted(system):
        calls.append(system)
        if system._ints is None:
            builds.append(system)
        return integer_form(system)

    monkeypatch.setattr(polysolve, "_integer_form", counted)
    certify_expressibility(catalog_get(target), primes=(5, 7, 11), groebner=False)
    assert len(builds) == 1 and len(calls) == {"Cstar": 3, "Cdagger": 2}[target]
    assert all(system is builds[0] for system in calls)


def test_certify_refuses_a_repeated_prime():
    with pytest.raises(ValueError, match="^prime '5' given more than once$"):
        certify_expressibility(catalog_get("Cdagger"), primes=(5, 7, 5), groebner=False)
    with pytest.raises(ValueError, match="^'4' is not prime$"):
        certify_expressibility(catalog_get("Cdagger"), primes=(4,), groebner=False)
    assert certify_expressibility(catalog_get("Cdagger"), primes=(), groebner=False) \
        .status == "inconclusive"


def test_certify_zero_target_returns_zero_witness():
    out = certify_expressibility(Msc.zero(Q, 2, 3), primes=(5,))
    assert out.status == "witness"
    assert all(v.is_zero() for v in out.witness.values())


def test_certify_cstar_reports_strongest_negative_outcome():
    out = certify_expressibility(catalog_get("Cstar"), primes=(5, 7))
    assert out.status == "certified_empty_over_closure"
    stages = [e.status for e in out.evidence]
    assert stages[:2] == ["no_solution_mod_p", "no_solution_mod_p"]
    assert stages[2] == "certified_empty_over_closure"
    assert [str(b) for b in out.evidence[2].basis] == ["1"]


def test_certify_cstar_without_groebner():
    out = certify_expressibility(catalog_get("Cstar"), primes=(5,), groebner=False)
    assert out.status == "no_solution_mod_p"
    assert [e.status for e in out.evidence] == ["no_solution_mod_p"]


def test_solve_outcome_documents():
    out = certify_expressibility(catalog_get("Cstar"), primes=(5,), groebner=False)
    doc = out.to_doc()
    assert doc["status"] == "no_solution_mod_p"
    assert doc["witness"] is None
    assert isinstance(doc["evidence"], list) and doc["evidence"]


def test_default_caps_are_pinned():
    assert DEFAULT_CAPS == {"max_pairs": 20000, "max_degree": 12}
