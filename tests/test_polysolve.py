import functools
import gc
import hashlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from trialg import generate, polysolve
from trialg import ring as rg
from trialg.catalog import catalog_get, totassoc_constraints
from trialg.generate import expressibility_residual, generate_nary, symbolic_system
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

import reference_groebner
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
        got = [a for a in assignments if polysolve._check_assignment_mod_p(system, p, a)]
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
    return polysolve._compile_mod_p(system, p)


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
    system = sys_of(["x"], [f"{root ** 2 % p} - x^2"])
    compiled, obstructed = polysolve._compile_mod_p(system, p)
    assert not obstructed
    assert polysolve._enumerate(compiled, p, 1, 1) == [(root,)]
    assert polysolve._check_assignment_mod_p(system, p, (root,))


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
# grid zeros
# ---------------------------------------------------------------------------

GRID_VALUES = (F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2))
XYZ = rg.polynomial_ring(["x", "y", "z"])


@st.composite
def grid_systems(draw, axes):
    """Up to four polynomials over Q[x, y, z] with coefficients over mixed
    denominators; most vanish on a hyperplane x_i = r through a value of
    axis i, some are nonzero constants, some use one variable or none."""
    coeffs = st.builds(F, st.integers(-30, 30).filter(bool), st.sampled_from((1, 2, 3, 5, 7, 12)))
    polys = []
    for k in range(draw(st.integers(0, 4), label="polys")):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), coeffs, max_size=3),
                     label=f"terms {k}")
        poly = rg.RingElem(XYZ, terms) if terms else rg.one(XYZ)
        kind = draw(st.sampled_from(("root",) * 4 + ("constant", "plain")), label=f"kind {k}")
        if kind == "constant":
            poly = rg.from_fraction(XYZ, draw(coeffs, label=f"constant {k}"))
        elif kind == "root":
            i = draw(st.integers(0, 2), label=f"var {k}")
            root = draw(st.sampled_from(axes[i] or GRID_VALUES), label=f"root {k}")
            poly = poly * (rg.variable(XYZ, XYZ.vars[i]) - rg.from_fraction(XYZ, root))
        polys.append(poly)
    return PolySystem(XYZ, polys)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_grid_zeros_matches_fraction_evaluation_at_every_point(data):
    # the points in the order of the axes as given, repeated values as often
    # as they repeat, against a plain loop over the whole grid
    axes = [data.draw(st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=4),
                      label=f"axis {i}") for i in range(3)]
    if data.draw(st.integers(0, 9), label="empty axis") in (3, 5, 7):
        axes[data.draw(st.integers(0, 2), label="emptied")] = []
    system = data.draw(grid_systems(axes), label="system")
    expected = [point for point in iter_product(*axes)
                if all(rg._poly_eval(poly.v, point) == 0 for poly in system.polys)]
    assert polysolve.grid_zeros(system, axes) == expected


def test_grid_zeros_walks_an_unused_variable_and_a_repeated_value():
    system = sys_of(["x", "y", "z"], ["x^2 - 1/4", "3/2*z - 1"])
    axes = [[F(1, 2), F(0), F(-1, 2), F(1, 2)], [F(5), F(-1, 7)], [F(2, 3)]]
    assert polysolve.grid_zeros(system, axes) == [
        (F(1, 2), F(5), F(2, 3)), (F(1, 2), F(-1, 7), F(2, 3)),
        (F(-1, 2), F(5), F(2, 3)), (F(-1, 2), F(-1, 7), F(2, 3)),
        (F(1, 2), F(5), F(2, 3)), (F(1, 2), F(-1, 7), F(2, 3)),
    ]
    assert polysolve.grid_zeros(system, [axes[0], [], axes[2]]) == []
    assert polysolve.grid_zeros(sys_of(["x", "y", "z"], ["2/3"]), axes) == []
    assert len(polysolve.grid_zeros(sys_of(["x", "y", "z"], []), axes)) == 8


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
# packed monomials, against tuple one-liners
# ---------------------------------------------------------------------------

@st.composite
def packings(draw):
    """A _Packing, with bounds of a whole field (2^k - 1) drawn often."""
    nvars = draw(st.integers(1, 5))
    bound = draw(st.one_of(st.sampled_from([0, 1, 3, 7, 15, 63]), st.integers(0, 200)))
    return polysolve._Packing(nvars, bound), bound


def field_max(pk):
    return (1 << (pk.width - 1)) - 1


@st.composite
def monomials(draw, nvars, top):
    """An exponent tuple of total degree at most ``top``, often all of it
    in one variable, which then sits at the edge of a full field."""
    degree = draw(st.one_of(st.just(top), st.integers(0, top)))
    if draw(st.booleans()):
        mono = [0] * nvars
        mono[draw(st.integers(0, nvars - 1))] = degree
        return tuple(mono)
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=nvars - 1,
                                max_size=nvars - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


def grevlex(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_monomials_match_tuple_arithmetic(data):
    pk, bound = data.draw(packings())
    a = data.draw(monomials(pk.nvars, bound))
    b = data.draw(monomials(pk.nvars, bound))
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    assert pa >> pk.shift == sum(a)
    assert pk.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    if pk.divides(pa, pb):
        assert pb - pa == pk.pack(tuple(y - x for x, y in zip(a, b)))
    lcm = pk.lcm(pa, pb)
    assert lcm == pk.pack(tuple(map(max, a, b)))
    assert (lcm == pa + pb) == all(min(x, y) == 0 for x, y in zip(a, b))
    # grevlex order is int order on x ^ low
    assert (grevlex(a) < grevlex(b)) == ((pa ^ pk.low) < (pb ^ pk.low))
    assert polysolve._lm({pa: 1, pb: 1}, pk) == (pa if grevlex(a) >= grevlex(b) else pb)
    # a product is a sum; one that passes a field sets that field's guard bit
    product = tuple(x + y for x, y in zip(a, b))
    if max(product) <= field_max(pk):
        assert pa + pb == pk.pack(product)
    else:
        assert (pa + pb) & pk.guard


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packing_refuses_an_exponent_past_its_field(data):
    pk, _ = data.draw(packings())
    mono = [0] * pk.nvars
    mono[data.draw(st.integers(0, pk.nvars - 1))] = field_max(pk) + 1
    with pytest.raises(polysolve._FieldOverflow):
        pk.pack(mono)


def test_packing_widths():
    # the fields hold the bound, and the lcm degree 2 * bound stays below 2^w - 1
    for bound, width in ((0, 1), (1, 2), (3, 3), (12, 5), (63, 7), (64, 8), (100, 8)):
        pk = polysolve._Packing(3, bound)
        assert pk.width == width
        assert bound <= field_max(pk) and 2 * bound <= (1 << width) - 2


# ---------------------------------------------------------------------------
# bases and counters pinned literally, recorded from the tuple-monomial engine
# ---------------------------------------------------------------------------

# system: ((pairs processed, skipped by criteria, max lcm degree), reduced basis)
GROEBNER_PINS = {
    "Cstar": ((40, 20, 3), ["1"]),
    "Cdagger": ((64, 464, 3), ["h222", "h212 + 1/2*h221", "h122", "h121", "h112",
                                "h111 - 1/2*h221", "h221^2 - 4/9"]),
    "B9": ((70, 525, 3), ["h222", "h212 + 2*h221", "h211 + 3*h221", "h122", "h121", "h112",
                          "h111 + h221", "h221^2 - 1/9"]),
    "B1": ((28, 109, 4), ["1"]),
    "B2": ((84, 3571, 4), ["b1", "b2^2 - 1/2*a1", "a1*b2 - 1/2*b2", "a1^2 - 1/2*a1"]),
    "B3": ((0, 2628, 4), ["1"]),
    "B4": ((7, 21, 5), ["b2^4 - 3/2*a1*b2^2 + 1/2*b2^2",
                        "a1*b2^3 - 1/2*a1^2*b2 - b2^3 + 1/2*a1*b2",
                        "a1^2*b2^2 - 3/2*a1*b2^2 + 1/2*b2^2",
                        "a1^3*b2 - 3/2*a1^2*b2 + 1/2*a1*b2",
                        "a1^4 - 3/2*a1^3 + 1/2*a1^2"]),
    "B5": ((5, 6, 4), ["1"]),
    "B6": ((13, 32, 4), ["1"]),
    "B7": ((0, 946, 2), ["1"]),
    "B8": ((4, 0, 4), ["1"]),
    "A9^4": ((105, 2040, 4), ["h222", "h212 + 2*h221", "h211 + 3*h221", "h122", "h121", "h112",
                              "h111 + h221", "h221^3 + 1/27"]),
}


def pinned_system(name):
    if name in ("Cstar", "Cdagger", "B9"):
        return symbolic_system(catalog_get(name))
    if name == "A9^4":
        return symbolic_system(generate_nary(catalog_get("A9"), 4))
    return totassoc_constraints(name)


@pytest.mark.parametrize("name", list(GROEBNER_PINS))
def test_buchberger_bases_and_counters_are_pinned(name):
    (processed, skipped, degree), basis = GROEBNER_PINS[name]
    out = buchberger(pinned_system(name))
    assert [str(b) for b in out.basis] == basis
    # the order of the keys is part of every report's bytes
    assert list(out.effort.items()) == [
        ("pairs_processed", processed), ("pairs_skipped_by_criteria", skipped),
        ("pairs_skipped_by_degree_cap", 0), ("max_lcm_degree", degree),
        ("basis_size", len(basis)), ("caps_hit", False), ("completed", True),
    ]
    assert out.status == ("certified_empty_over_closure" if basis == ["1"] else "inconclusive")


# the sha256 of json.dumps({"basis", "effort" (as items), "status",
# "cofactors"}) of buchberger(track=True), recorded from the engine over Q
GROEBNER_COFACTOR_PINS = {
    "Cstar": "769c62cbcc4203e44db70841e9142c8faec5e4bb45f3b7550bb3cb4a6a157eaa",
    "Cdagger": "2b0a8f1cfc3f050d810057ac0e49cf4ecf99fb7a8d482df1cbb57fad92b749ce",
    "B9": "72462c8b762d2dc671d17c92ef9abb3060374ec93fb87fa14b508b37e7e86f89",
    "B1": "a6681f97fb93f690feba579942ff296dc6828ac5057c2330590a7f57f6cdd94f",
    "B2": "5436dbc4bca282abf8379275abc3ccb672136a869e1e404f56b4abeecc67f173",
    "B3": "160b4280bd6c06eb9d9e16dcbf7aab0ed9599f2e1960a5cd3b0dacd0b2012fa6",
    "B4": "d4b6cdf8a04819352944f1fbfc7462f3c964d1b8f1d4f8be9329a1f1618a5f6d",
    "B5": "347f8cb0faa96b7377edc1392065cea2b4bfe39b2322d3dcfbfc39aa7b60d485",
    "B6": "0a7f2a3d54ac642611d422d9295ffdf489ae4362b2a8fa6632f1e61237d205dd",
    "B7": "a4cbb662eb3edd33f50ff02eeef7b3c0020642526ca13da0288c82070c2b4948",
    "B8": "74f002cf7cef274d4303d6fff9f816073f07b7557479c86d4310de4436d6a226",
    "A9^4": "b75bc4a2250e6a75f20ec1ebc5221084c42b1945b45d5b5d1a5cc41ae870b8ce",
}


@pytest.mark.parametrize("name", list(GROEBNER_COFACTOR_PINS))
def test_buchberger_cofactors_are_pinned(name):
    out = buchberger(pinned_system(name), track=True)
    text = json.dumps({"basis": [str(b) for b in out.basis], "effort": list(out.effort.items()),
                       "status": out.status,
                       "cofactors": [[str(q) for q in row] for row in out.cofactors]})
    assert hashlib.sha256(text.encode()).hexdigest() == GROEBNER_COFACTOR_PINS[name]


# ---------------------------------------------------------------------------
# the fraction-free engine against the engine over Q (reference_groebner)
# ---------------------------------------------------------------------------

XYZ = rg.polynomial_ring(["x", "y", "z"])


@st.composite
def cubic_monomials(draw):
    """An exponent triple of total degree at most 3."""
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0, 3 - a))
    return a, b, draw(st.integers(0, 3 - a - b))


def rational_polys(ring):
    """Nonzero polynomials in x, y, z of degree at most 3 and 1-3 terms,
    with rational coefficients whose denominators run to 6."""
    coeffs = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    return st.dictionaries(cubic_monomials(), coeffs, min_size=1, max_size=3).map(
        functools.partial(rg.RingElem, ring))


def outcome_texts(out):
    return ([str(b) for b in out.basis], list(out.effort.items()), out.status,
            out.cofactors and [[str(q) for q in row] for row in out.cofactors])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(rational_polys(XYZ), min_size=1, max_size=4), rational_polys(XYZ))
def test_buchberger_matches_the_engine_over_q(polys, f):
    system = PolySystem(XYZ, polys)
    for caps in (None, {"max_pairs": 2}, {"max_degree": 2}):
        for track in (False, True):
            out = buchberger(system, caps=caps, track=track)
            assert outcome_texts(out) == outcome_texts(
                reference_groebner.buchberger(system, caps=caps, track=track))
        for basis in (out.basis, polys):
            assert str(reduce_poly(f, basis)) == str(reference_groebner.reduce_poly(f, basis))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(rational_polys(XYZ), min_size=1, max_size=4), rational_polys(XYZ))
def test_each_integer_step_is_a_positive_multiple_of_the_step_over_q(polys, f):
    # the primitive part is the one over Q; an S-polynomial and a remainder
    # are positive multiples of theirs
    pk = polysolve._Packing(3, 6)
    nums = [pk.pack_terms(polysolve._numerators(p.v)[1]) for p in polys]
    basis = [polysolve._primitive(t, pk)[0] for t in nums]
    ref_basis = [reference_groebner._make_primitive(pk.pack_terms(p.v), pk)[0] for p in polys]
    assert basis == ref_basis
    lms = [polysolve._lm(t, pk) for t in basis]
    lcs = [t[lm] for t, lm in zip(basis, lms)]

    def positive_multiple(terms, ref, scale):
        assert scale > 0 and terms == {m: scale * c for m, c in ref.items()}

    for j in range(len(basis)):
        for i in range(j):
            L = pk.lcm(lms[i], lms[j])
            s = polysolve._s_poly(basis[i], basis[j],
                                  polysolve._s_multipliers(lms[i], lms[j], lcs[i], lcs[j], L),
                                  pk.guard)
            ref = reference_groebner._s_poly(basis[i], basis[j], lms[i], lms[j],
                                             F(lcs[i]), F(lcs[j]), L, pk.guard)
            positive_multiple(s, ref, lcs[i] * lcs[j] // math.gcd(lcs[i], lcs[j]))
    L, nums_f = polysolve._numerators(f.v)
    rem, scale, _ = polysolve._normal_form(pk.pack_terms(nums_f), basis, lms, lcs, pk)
    ref, _ = reference_groebner._normal_form(pk.pack_terms(f.v), ref_basis, lms,
                                             [F(c) for c in lcs], pk)
    positive_multiple(rem, ref, scale * L)


# ---------------------------------------------------------------------------
# field overflow and the pair budget
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("names, texts, max_degree, basis, effort", [
    # the fields of max_degree 63 are 7 bits wide: exponent 63 fills one, and
    # the skipped pair's lcm x^63*y^63 has degree 126 = 2^7 - 2
    (["x", "y"], ["x^63 - 1", "y^63 - 1"], 63, ["y^63 - 1", "x^63 - 1"], (0, 0, 1, 63, False)),
    (["x", "y"], ["x^63 - y^2", "x*y - 1"], 63, ["x*y - 1", "x^63 - y^2"], (0, 0, 1, 63, False)),
    (["x", "y"], ["x^40*y - 1", "x*y^35 - x"], 100, ["y^35 - 1", "x^40 - y^34"], (3, 3, 0, 75, True)),
    (["x"], ["x^60 - 1", "x^45 - 1"], 64, ["x^15 - 1"], (2, 1, 0, 60, True)),
], ids=["edge-degree-skip", "edge-exponent", "degree-75", "univariate-gcd"])
def test_buchberger_high_degree_under_a_raised_cap(names, texts, max_degree, basis, effort):
    out = buchberger(sys_of(names, texts), caps={"max_degree": max_degree})
    assert [str(b) for b in out.basis] == basis
    processed, skipped, degree_skipped, top, completed = effort
    assert out.effort == {
        "pairs_processed": processed, "pairs_skipped_by_criteria": skipped,
        "pairs_skipped_by_degree_cap": degree_skipped, "max_lcm_degree": top,
        "basis_size": len(basis), "caps_hit": not completed, "completed": completed,
    }


def test_cofactors_past_the_basis_degree_widen_the_fields():
    # the basis stays within degree 3, whose fields hold exponents up to 3;
    # a cofactor reaches y^4, so the run is repeated with wider fields
    system = sys_of(["x", "y"], ["-x*y^2 - 2*x*y + 2*y^2", "2*y^2 + x", "-2*x^2*y + 1"])
    caps = {**DEFAULT_CAPS, "max_degree": 3}
    narrow = polysolve._Packing(2, 3)
    with pytest.raises(polysolve._FieldOverflow):
        polysolve._buchberger(system, caps, True, narrow)
    out = buchberger(system, caps=caps, track=True)
    assert [str(b) for b in out.basis] == ["1"]
    assert out.effort == buchberger(system, caps=caps).effort
    assert [str(q) for q in out.cofactors[0]] == [
        "-416/81*y^4 + 128/81*y^3 + 160/81*y^2 - 124/81*y + 88/81",
        "-208/81*x*y^4 - 352/81*x*y^3 + 416/81*y^4 - 128/81*y^3 + 2*x*y - 160/81*y^2 + 176/81*y",
        "-104/81*y^3 - 176/81*y^2 + 1",
    ]
    assert max(e for q in out.cofactors[0] for mono in q.v for e in mono) > field_max(narrow)
    acc = rg.zero(system.ring)
    for q, f in zip(out.cofactors[0], system.polys):
        acc = acc + q * f
    assert acc == out.basis[0]


def test_max_degree_cap_is_bounded():
    # the fields are sized from max_degree: 10^4000 would make each packed
    # monomial of x and y about 3.3 KB wide
    system = sys_of(["x", "y"], ["x^2 - 1", "x*y - 1"])
    for degree in (-1, polysolve._MAX_DEGREE_CAP + 1, 10 ** 4000):
        with pytest.raises(ValueError, match="max_degree must lie between 0 and 1024"):
            buchberger(system, caps={"max_degree": degree})
    for degree in (0, polysolve._MAX_DEGREE_CAP):
        assert buchberger(system, caps={"max_degree": degree}).effort["caps_hit"] == (degree == 0)


def test_pair_budget_bounds_the_heap(monkeypatch):
    # Cdagger's run forms 528 pairs, its 16 inputs 120 of them
    system = symbolic_system(catalog_get("Cdagger"))
    full = buchberger(system)
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_PAIRS", 528)
    assert buchberger(system).effort == full.effort
    assert "pair_budget_hit" not in full.effort
    for budget in (527, 119):
        monkeypatch.setattr(polysolve, "_MAX_TOTAL_PAIRS", budget)
        out = buchberger(system)
        assert out.status == "inconclusive"
        assert out.effort["caps_hit"] is True and out.effort["completed"] is False
        assert out.effort["pair_budget_hit"] is True
    assert out.effort["pairs_processed"] == 0


def test_pair_budget_stops_the_zero_target_in_process(monkeypatch):
    # the 4-dimensional zero ternary target: 256 quadrics in 64 unknowns whose
    # heap grew without bound; a budget of 33000 pairs stops it at once
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_PAIRS", 33000)
    start = time.perf_counter()
    out = certify_expressibility(Msc.zero(Q, 4, 3), primes=())
    assert time.perf_counter() - start < 1
    assert out.status == "inconclusive"
    effort = out.evidence[-1].effort
    assert effort["pair_budget_hit"] is True and effort["caps_hit"] is True


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
    # re-checks its hits and lifts one.  The system's integer layout is
    # built with it, one _int_poly call per polynomial, and every sweep,
    # re-check and lift reads those very layouts
    builds, systems = [], []
    int_poly, build_system = polysolve._int_poly, generate.symbolic_system

    def counted(nums, den):
        builds.append(int_poly(nums, den))
        return builds[-1]

    def built(C):
        systems.append(build_system(C))
        return systems[-1]

    monkeypatch.setattr(polysolve, "_int_poly", counted)
    monkeypatch.setattr(generate, "symbolic_system", built)
    out = certify_expressibility(catalog_get(target), primes=(5, 7, 11), groebner=False)
    assert out.status == {"Cstar": "no_solution_mod_p", "Cdagger": "witness"}[target]
    assert len(systems) == 1 and len(builds) == len(systems[0].int_polys) == 16
    assert all(a is b for a, b in zip(systems[0].int_polys, builds))


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
