import gc
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import pytest

from trialg import polysolve
from trialg import ring as rg
from trialg.catalog import catalog_get
from trialg.generate import expressibility_residual, symbolic_system
from trialg.iso import iso_search
from trialg.msc import Msc
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
            got = solve_ff_exhaustive(system, p, all_witnesses=True,
                                      max_witnesses=p ** len(names))
            if not expected:
                assert got.status == "no_solution_mod_p"
                continue
            hit += 1
            assert got.status == "witness"
            as_tuples = [
                tuple(w[n].v for n in names) for w in got.witnesses
            ]
            ref_tuples = [tuple(w[n].v for n in names) for w in expected]
            assert as_tuples == ref_tuples
        assert 10 <= hit <= 50  # both outcomes are well represented


def test_sweep_matches_reference_evaluator_on_random_systems():
    _check_sweep_against_reference()


@pytest.mark.parametrize("rows", [3, 12])
def test_sweep_matches_reference_evaluator_with_split_expansions(monkeypatch, rows):
    # 3 rows split the values of each variable (3 + 2 of 5); 12 rows take
    # two prefixes at a time, splitting the frontier instead
    monkeypatch.setattr(polysolve, "_MAX_ROWS", rows)
    _check_sweep_against_reference()


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
        assert polysolve._enumerate(polys, p, nvars, None) == expected


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
    wide = sys_of([f"x{i}" for i in range(10)], ["x0"])
    with pytest.raises(ValueError):
        solve_ff_exhaustive(wide, 5)
    for p in (3037000507, 4294967311):  # residue products (p - 1)^2 >= 2^63
        with pytest.raises(ValueError, match="too large"):
            solve_ff_exhaustive(sys_of(["x"], ["x^2 - 4"]), p)


def test_sweep_is_exact_at_the_largest_modulus():
    p = 3037000493  # the largest prime with (p - 1)^2 < 2^63
    root = 60000  # root^2 exceeds p, so -x^2 multiplies two large residues
    out = solve_ff_exhaustive(sys_of(["x"], [f"{root ** 2 % p} - x^2"]), p)
    assert out.status == "witness"
    assert out.witness["x"].v == root


def test_enumeration_work_budget_is_exact(monkeypatch):
    # with no polynomial every prefix survives: 5 + 25 + 125 rows for three
    # variables mod 5
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 155)
    assert len(polysolve._enumerate([], 5, 3, None)) == 125
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 154)
    with pytest.raises(ValueError, match="passed 154 rows"):
        polysolve._enumerate([], 5, 3, None)


def test_enumeration_work_budget_counts_split_expansions(monkeypatch):
    # split into expansions of at most 3 rows, the count is the same
    monkeypatch.setattr(polysolve, "_MAX_ROWS", 3)
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 155)
    assert len(polysolve._enumerate([], 5, 3, None)) == 125
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 154)
    with pytest.raises(ValueError, match="passed 154 rows"):
        polysolve._enumerate([], 5, 3, None)


def test_enumeration_leaves_no_reference_cycle():
    # with the collector off, whatever an enumeration leaves unreachable is
    # a cycle that would hold its numpy tables until a full collection
    cstar = catalog_get("Cstar")
    system = symbolic_system(cstar)
    gc.collect()
    gc.disable()
    try:
        solve_ff_exhaustive(system, 7, all_witnesses=True)
        assert gc.collect() == 0
        iso_search(cstar, cstar, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_constant_obstruction():
    out = solve_ff_exhaustive(sys_of(["x"], ["5*x + 1"]), 5)
    assert out.status == "no_solution_mod_p"
    assert out.effort.get("constant_obstruction") is True


def test_sweep_b9_system_contains_a9_mod_7():
    system = symbolic_system(catalog_get("B9"))
    out = solve_ff_exhaustive(system, 7, all_witnesses=True)
    assert out.status == "witness"
    a9 = catalog_get("A9").reduce_mod(7)
    expected = tuple(
        a9.entry(k, (r, s)).v for k in (1, 2) for r in (1, 2) for s in (1, 2)
    )
    found = {tuple(w[n].v for n in system.vars) for w in out.witnesses}
    assert expected in found


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
