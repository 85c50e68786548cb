import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from trialg import msc, polysolve
from trialg import ring as rg
from trialg.catalog import FAMILIES, catalog_get
from trialg.generate import expressibility_residual, generate_nary, symbolic_system
from trialg.identities import assoc_report
from trialg.msc import Matrix, Msc, basis_vector, eval_product, transform

from conftest import rand_basis_change, rand_msc

Q = rg.QQ


def test_generate_symbolic_matches_b4_template():
    assert generate_nary(catalog_get("A4"), 3) == catalog_get("B4")


def test_generate_a12_is_trivial():
    assert generate_nary(catalog_get("A12"), 3).is_zero()


def test_generate_zero_is_zero():
    assert generate_nary(Msc.zero(Q, 2, 2), 3).is_zero()


def test_generate_rejects_bad_arities(gf5, rng):
    M = rand_msc(gf5, 2, 2, rng)
    with pytest.raises(ValueError):
        generate_nary(M, 1)
    with pytest.raises(ValueError):
        generate_nary(rand_msc(gf5, 2, 3, rng), 3)


def test_generate_refuses_an_oversized_arity_before_any_product(monkeypatch):
    dense = Msc(2, 2, Matrix(Q, [[rg.from_fraction(Q, Fraction(x)) for x in row]
                                 for row in (("1", "2", "3", "1/2"), ("-1", "5", "7", "2"))]))
    unit = Msc(2, 2, Matrix(Q, [[rg.one(Q), rg.zero(Q), rg.zero(Q), rg.zero(Q)],
                                [rg.zero(Q)] * 4]))
    # 2 x 2^17 is exactly the nest budget
    assert generate_nary(unit, 17).mat.ncols == 2 ** 17

    def refuse(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(msc, "_nest_ints", refuse)
    for n in (18, 40, 10 ** 12):
        with pytest.raises(ValueError, match="exceeds 262144 entries"):
            generate_nary(dense, n)


def test_generate_dimension_1_obeys_the_same_arity_bound(monkeypatch):
    c = Fraction(-3, 2)
    M = Msc(1, 2, Matrix(Q, [[rg.from_fraction(Q, c)]]))
    # C_n(e1, ..., e1) = c^(n-1) e1; 18 is the largest arity below the bound
    assert generate_nary(M, 18).mat == Matrix(Q, [[rg.from_fraction(Q, c ** 17)]])

    def refuse(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(msc, "_nest_ints", refuse)
    for n in (19, 10 ** 8):
        with pytest.raises(ValueError, match="exceeds 262144 entries"):
            generate_nary(M, n)


def test_generate_arity_two_is_identity(gf5, rng):
    M = rand_msc(gf5, 2, 2, rng)
    assert generate_nary(M, 2) == M


def test_bracket_expansion_oracle_ternary(gf5, rng):
    # f(ei, ej, ek) must equal mu(ei, mu(ej, ek)) computed without the
    # closed-form recursion, exhaustively over basis triples
    basis = [basis_vector(gf5, 2, i) for i in (1, 2)]
    for _ in range(25):
        M = rand_msc(gf5, 2, 2, rng)
        C = generate_nary(M, 3)
        for i, j, k in product((0, 1), repeat=3):
            direct = eval_product(M, (basis[i], eval_product(M, (basis[j], basis[k]))))
            assert eval_product(C, (basis[i], basis[j], basis[k])) == direct


def test_bracket_expansion_oracle_arity_four(gf5, rng):
    basis = [basis_vector(gf5, 2, i) for i in (1, 2)]
    for _ in range(10):
        M = rand_msc(gf5, 2, 2, rng)
        C = generate_nary(M, 4)
        for i, j, k, l in product((0, 1), repeat=4):
            inner = eval_product(M, (basis[k], basis[l]))
            direct = eval_product(M, (basis[i], eval_product(M, (basis[j], inner))))
            assert eval_product(C, (basis[i], basis[j], basis[k], basis[l])) == direct


def test_generation_is_equivariant(gf5, rng):
    for _ in range(100):
        M = rand_msc(gf5, 2, 2, rng)
        g = rand_basis_change(gf5, 2, rng)
        assert generate_nary(transform(M, g), 3) == transform(generate_nary(M, 3), g)


def test_residual_zero_for_table_pairs():
    assert expressibility_residual(catalog_get("A9"), catalog_get("B9")).is_zero()


def test_residual_zero_for_the_collision_pairs():
    cdagger = catalog_get("Cdagger")
    a4 = catalog_get("A4", {"a1": Fraction(1, 3), "b2": Fraction(-1, 3)})
    a5 = catalog_get("A5", {"a1": Fraction(1, 3)})
    assert expressibility_residual(a4, cdagger).is_zero()
    assert expressibility_residual(a5, cdagger).is_zero()
    b4_unit = catalog_get("B4", {"a1": 1, "b2": 1})
    assert expressibility_residual(catalog_get("A4", {"a1": 1, "b2": 1}), b4_unit).is_zero()
    assert expressibility_residual(catalog_get("A4", {"a1": 1, "b2": -1}), b4_unit).is_zero()


def test_residual_zero_for_every_family_at_random_points():
    rng = random.Random(99)
    for i in range(1, 13):
        entry = FAMILIES[f"A{i}"]
        for _ in range(5 if entry.params else 1):
            point = {
                p: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for p in entry.params
            }
            M = entry.specialize(point)
            assert expressibility_residual(M, generate_nary(M, 3)).is_zero()


def test_residual_shape_validation(gf5, rng):
    M = rand_msc(gf5, 2, 2, rng)
    with pytest.raises(ValueError):
        expressibility_residual(M, rand_msc(rg.prime_field(7), 2, 3, rng))
    with pytest.raises(ValueError):
        expressibility_residual(rand_msc(gf5, 2, 3, rng), rand_msc(gf5, 2, 3, rng))


def test_residual_refuses_a_dimension_mismatch(gf5, rng):
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        expressibility_residual(rand_msc(gf5, 2, 2, rng), rand_msc(gf5, 3, 3, rng))


def test_symbolic_system_variables_and_size():
    system = symbolic_system(Msc.zero(Q, 2, 3))
    assert system.vars == (
        "h111", "h112", "h121", "h122", "h211", "h212", "h221", "h222",
    )
    assert len(system.polys) == 16
    zeros = [Fraction(0)] * 8
    for poly in system.polys:
        assert rg._poly_eval(poly.v, zeros) == 0  # eta = 0 is a root


def test_symbolic_system_has_catalog_roots():
    system = symbolic_system(catalog_get("B9"))
    a9 = catalog_get("A9")
    root = {
        f"h{k}{r}{s}": a9.entry(k, (r, s)).v
        for k in (1, 2) for r in (1, 2) for s in (1, 2)
    }
    vals = [root[name] for name in system.vars]
    assert all(rg._poly_eval(poly.v, vals) == 0 for poly in system.polys)


def test_symbolic_system_preconditions(gf5, rng):
    with pytest.raises(ValueError):
        symbolic_system(rand_msc(gf5, 2, 3, rng))  # not rational


def test_symbolic_system_refuses_the_kernels_count_before_any_ring(monkeypatch):
    # the largest shapes the contraction takes reach the ring; the next ones
    # are refused up front, with the kernel's own message
    def built(names):
        raise LookupError("a ring was built")

    monkeypatch.setattr(rg, "polynomial_ring", built)
    for m, n in ((8, 2), (4, 3), (3, 4), (2, 8), (1, 18)):
        with pytest.raises(LookupError):
            symbolic_system(Msc.zero(Q, m, n))
    for m, n in ((9, 2), (5, 3), (4, 4), (3, 5), (2, 9)):
        with pytest.raises(ValueError) as refusal:
            symbolic_system(Msc.zero(Q, m, n))
        assert str(refusal.value) == str(msc._work_refusal(m ** 3))
    assert str(msc._work_refusal(125)) == (
        "a contraction over 125 variables exceeds 262144 term products x variables")
    with pytest.raises(ValueError, match="a 1x1\\^19 matrix exceeds 262144 entries \\(arity 19\\)"):
        symbolic_system(Msc.zero(Q, 1, 19))


# the systems of three 2-dimensional ternary targets, literally: their express
# reports (goldens and the replay) rest on these strings in this order
DIMENSION_2_SYSTEMS = {
    "Cstar": (
        "h111^2 + h112*h211 - 1",
        "h111*h112 + h112*h212",
        "h111*h121 + h112*h221",
        "h111*h122 + h112*h222 - 1",
        "h111*h121 + h122*h211",
        "h112*h121 + h122*h212 - 1",
        "h121^2 + h122*h221 + 1",
        "h121*h122 + h122*h222",
        "h111*h211 + h211*h212",
        "h112*h211 + h212^2 + 1",
        "h121*h211 + h212*h221 - 1",
        "h122*h211 + h212*h222",
        "h111*h221 + h211*h222 - 1",
        "h112*h221 + h212*h222",
        "h121*h221 + h221*h222",
        "h122*h221 + h222^2 - 1",
    ),
    "Cdagger": (
        "h111^2 + h112*h211 - 1/9",
        "h111*h112 + h112*h212",
        "h111*h121 + h112*h221",
        "h111*h122 + h112*h222",
        "h111*h121 + h122*h211",
        "h112*h121 + h122*h212",
        "h121^2 + h122*h221",
        "h121*h122 + h122*h222",
        "h111*h211 + h211*h212",
        "h112*h211 + h212^2 - 1/9",
        "h121*h211 + h212*h221 + 2/9",
        "h122*h211 + h212*h222",
        "h111*h221 + h211*h222 - 2/9",
        "h112*h221 + h212*h222",
        "h121*h221 + h221*h222",
        "h122*h221 + h222^2",
    ),
    "B9": (
        "h111^2 + h112*h211 - 1/9",
        "h111*h112 + h112*h212",
        "h111*h121 + h112*h221",
        "h111*h122 + h112*h222",
        "h111*h121 + h122*h211",
        "h112*h121 + h122*h212",
        "h121^2 + h122*h221",
        "h121*h122 + h122*h222",
        "h111*h211 + h211*h212 - 1",
        "h112*h211 + h212^2 - 4/9",
        "h121*h211 + h212*h221 + 2/9",
        "h122*h211 + h212*h222",
        "h111*h221 + h211*h222 + 1/9",
        "h112*h221 + h212*h222",
        "h121*h221 + h221*h222",
        "h122*h221 + h222^2",
    ),
}


@pytest.mark.parametrize("name", sorted(DIMENSION_2_SYSTEMS))
def test_dimension_2_systems_are_unchanged(name):
    system = symbolic_system(catalog_get(name))
    assert system.vars == ("h111", "h112", "h121", "h122", "h211", "h212", "h221", "h222")
    assert tuple(str(poly) for poly in system.polys) == DIMENSION_2_SYSTEMS[name]


@st.composite
def generators(draw):
    """A binary algebra with small integer entries and a target arity, over the
    shapes (m, n) that the system is built for in a few milliseconds."""
    m, n = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (2, 4), (3, 3)]))
    values = draw(st.lists(st.integers(-2, 2), min_size=m ** 3, max_size=m ** 3))
    rows = [[rg.from_int(Q, v) for v in values[k * m * m:(k + 1) * m * m]] for k in range(m)]
    return Msc(m, 2, Matrix(Q, rows)), n


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(generators())
def test_a_generator_is_a_root_of_its_targets_system(case):
    M, n = case
    C = generate_nary(M, n)
    assert expressibility_residual(M, C).is_zero()
    system = symbolic_system(C)
    triples = list(product(range(1, M.dim + 1), repeat=3))
    assert system.vars == tuple(f"h{k}{r}{s}" for k, r, s in triples)
    root = [M.entry(k, (r, s)).v for k, r, s in triples]
    assert all(rg._poly_eval(poly.v, root) == 0 for poly in system.polys)


def test_dimension_3_sweeps_past_the_row_budget_are_inconclusive(monkeypatch):
    monkeypatch.setattr(polysolve, "_MAX_TOTAL_ROWS", 1 << 20)
    rng = random.Random(3)
    M = Msc(3, 2, Matrix(Q, [[rg.from_int(Q, rng.randint(-1, 1)) for _ in range(9)]
                             for _ in range(3)]))
    outcome = polysolve.certify_expressibility(generate_nary(M, 3), groebner=False)
    assert outcome.status == "inconclusive"
    assert [(e.prime, e.status, e.effort["row_budget_hit"]) for e in outcome.evidence] == [
        (5, "inconclusive", True), (7, "inconclusive", True)]


SUM8 = "(a+b+c+d+e+f+g+h)^5"  # 792 terms


@pytest.mark.parametrize("build, message", [
    # C_9 of A1 is the first step past the work budget; arity 16 is within
    # the entry budget and was extrapolated to tens of GB
    (lambda: generate_nary(catalog_get("A1"), 16), "term products x variables"),
    # A nested into A: 792^2 term products over 8 variables
    (lambda: assoc_report(Msc(1, 2, Matrix.from_strings(rg.polynomial_ring("abcdefgh"),
                                                        [[SUM8]]))),
     "term products x variables"),
    # the generic C_3 of dimension 11: 11^8 term products x variables
    (lambda: symbolic_system(Msc.zero(Q, 11, 3)), "term products x variables"),
    (lambda: symbolic_system(Msc.zero(Q, 2, 12)), "term products x variables"),
], ids=["generate-A1-arity-16", "assoc-792-terms", "system-dim-11", "system-dim-2-arity-12"])
def test_oversized_work_is_refused_at_once(build, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        build()
    assert time.perf_counter() - start < 1
