import random
from fractions import Fraction
from itertools import product

import pytest

from trialg import msc
from trialg import ring as rg
from trialg.catalog import FAMILIES, catalog_get
from trialg.generate import (
    EXPRESSIBILITY_VARS,
    expressibility_residual,
    generate_nary,
    symbolic_system,
)
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
        expressibility_residual(M, rand_msc(gf5, 2, 2, rng))
    with pytest.raises(ValueError):
        expressibility_residual(M, rand_msc(rg.prime_field(7), 2, 3, rng))
    with pytest.raises(ValueError):
        expressibility_residual(rand_msc(gf5, 2, 3, rng), rand_msc(gf5, 2, 3, rng))


def test_symbolic_system_variables_and_size():
    assert EXPRESSIBILITY_VARS == (
        "h111", "h112", "h121", "h122", "h211", "h212", "h221", "h222",
    )
    system = symbolic_system(Msc.zero(Q, 2, 3))
    assert system.vars == EXPRESSIBILITY_VARS
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
    with pytest.raises(ValueError):
        symbolic_system(Msc.zero(Q, 2, 2))  # not ternary
    one_dim = Msc(1, 3, Matrix.from_strings(Q, [["1"]]))
    with pytest.raises(ValueError):
        symbolic_system(one_dim)
