import random
from fractions import Fraction

import pytest

from trialg import ring as rg
from trialg.ring import ScalarParseError

from conftest import rand_elem

Q = rg.QQ
GF5 = rg.prime_field(5)
GF7 = rg.prime_field(7)
POLY1 = rg.polynomial_ring(["a1"])
POLY3 = rg.polynomial_ring(["a1", "a2", "b1"])
RINGS = (Q, GF5, POLY3)


def test_parse_rational_fraction():
    assert rg.parse_scalar("1/3", Q).v == Fraction(1, 3)
    assert rg.parse_scalar("-2/4", Q).v == Fraction(-1, 2)
    assert rg.parse_scalar("7", Q).v == 7


def test_parse_prime_field_reduces():
    assert rg.parse_scalar("7", GF5).v == 2
    assert rg.parse_scalar("-1", GF5).v == 4
    assert rg.parse_scalar("1/3", GF7).v == 5  # 3 * 5 = 15 = 1 mod 7


def test_parse_polynomial_expression():
    p = rg.parse_scalar("a1*(1-a1)", POLY1)
    assert p.v == {(1,): Fraction(1), (2,): Fraction(-1)}
    assert str(p) == "-a1^2 + a1"


@pytest.mark.parametrize("text", ["x", "a1 + x"])
def test_parse_unknown_variable(text):
    with pytest.raises(ScalarParseError):
        rg.parse_scalar(text, POLY1)
    with pytest.raises(ScalarParseError):
        rg.parse_scalar("x", Q)


def test_parse_division_rules():
    with pytest.raises(ScalarParseError):
        rg.parse_scalar("a1/2", POLY1)
    with pytest.raises(ScalarParseError):
        rg.parse_scalar("(1+2)/3", Q)
    with pytest.raises(ScalarParseError):
        rg.parse_scalar("1/0", Q)


@pytest.mark.parametrize("text", ["", "2+*3", "(1", "1)", "2^-1", "1 2"])
def test_parse_malformed(text):
    with pytest.raises(ScalarParseError):
        rg.parse_scalar(text, Q)


def test_parse_nesting_is_capped():
    assert rg.parse_scalar("(" * 100 + "1" + ")" * 100, Q).v == 1
    assert rg.parse_scalar("-" * 100 + "1", Q).v == 1
    for text in ("(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1",
                 "-(" * 51 + "1" + ")" * 51):
        with pytest.raises(ScalarParseError, match="nesting"):
            rg.parse_scalar(text, Q)


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "GF5", "poly"])
def test_parse_serialize_roundtrip(ring):
    rng = random.Random(101)
    for _ in range(200):
        e = rand_elem(ring, rng)
        assert rg.parse_scalar(str(e), ring) == e


def test_arith_examples():
    third = rg.parse_scalar("1/3", Q)
    two_thirds = rg.parse_scalar("2/3", Q)
    assert (third + two_thirds) == rg.one(Q)
    assert rg.from_int(GF5, 3).inv().v == 2
    a1 = rg.variable(POLY1, "a1")
    one = rg.one(POLY1)
    assert (a1 - one) * (a1 + one) == a1 ** 2 - one


@pytest.mark.parametrize("ring", RINGS, ids=["Q", "GF5", "poly"])
def test_ring_axioms_random(ring):
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_elem(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == rg.zero(ring)


@pytest.mark.parametrize("p", [5, 7])
def test_fermat_little_exhaustive(p):
    gf = rg.prime_field(p)
    for x in range(1, p):
        assert (rg.RingElem(gf, x) ** (p - 1)) == rg.one(gf)
        assert rg.RingElem(gf, x) * rg.RingElem(gf, x).inv() == rg.one(gf)


def test_inversion_errors():
    with pytest.raises(ZeroDivisionError):
        rg.zero(Q).inv()
    with pytest.raises(ZeroDivisionError):
        rg.zero(GF5).inv()
    with pytest.raises(ValueError):
        rg.variable(POLY1, "a1").inv()


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        rg.one(Q) + rg.one(GF5)
    with pytest.raises(ValueError):
        rg.one(GF5) * rg.one(GF7)


def test_substitute_examples():
    p = rg.parse_scalar("a1*(1-a1)", POLY1)
    assert rg.substitute(p, {"a1": Fraction(1, 2)}).v == Fraction(1, 4)
    assert rg.substitute(p, {"a1": 1}).is_zero()
    q = rg.parse_scalar("a2*b1 + a1^2", POLY3)
    val = rg.substitute(q, {"a1": Fraction(1, 3), "a2": 0, "b1": 1})
    assert val.v == Fraction(1, 9)


def test_substitute_missing_variable():
    q = rg.parse_scalar("a1 + a2", POLY3)
    with pytest.raises(ValueError, match="a2"):
        rg.substitute(q, {"a1": 1})
    # variables that do not occur need not be assigned
    p = rg.parse_scalar("a1^2", POLY3)
    assert rg.substitute(p, {"a1": 2}).v == 4


def test_substitute_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(100):
        f, g, h = (rand_elem(POLY3, rng) for _ in range(3))
        point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for v in POLY3.vars}
        lhs = rg.substitute(f * g + h, point)
        rhs = rg.substitute(f, point) * rg.substitute(g, point) + rg.substitute(h, point)
        assert lhs == rhs


def test_substitute_rejects_non_polynomial():
    with pytest.raises(ValueError):
        rg.substitute(rg.one(Q), {})


def test_canonical_forms():
    # rationals normalize; residues reduce; cancelling terms vanish
    assert rg.from_fraction(Q, Fraction(2, 4)).v == Fraction(1, 2)
    assert rg.from_int(GF5, 12).v == 2
    a1 = rg.variable(POLY1, "a1")
    assert (a1 - a1).v == {}
    assert not (a1 - a1)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        rg.prime_field(4)
    with pytest.raises(ValueError):
        rg.prime_field(1)
    assert rg.prime_field(2).p == 2


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in range(-2, 100):
        assert rg.is_prime(n) == (n in primes or (n > 1 and all(n % d for d in range(2, n))))
    assert rg.is_prime(2 ** 61 - 1)
    assert not rg.is_prime(2 ** 61 + 1)


def test_polynomial_ring_validation():
    with pytest.raises(ValueError):
        rg.polynomial_ring([])
    with pytest.raises(ValueError):
        rg.polynomial_ring(["a1", "a1"])
    with pytest.raises(ValueError):
        rg.polynomial_ring(["not an ident!"])


def test_ring_codec_roundtrip():
    for ring in (Q, GF5, POLY3):
        assert rg.ring_from_doc(rg.ring_to_doc(ring)) == ring
    assert rg.ring_to_doc(Q) == {"kind": "Q"}
    assert rg.ring_to_doc(GF5) == {"kind": "GF", "p": 5}
    assert rg.ring_to_doc(POLY3) == {"kind": "poly", "vars": ["a1", "a2", "b1"]}
    with pytest.raises(ValueError):
        rg.ring_from_doc({"kind": "R"})
    for names in ("ab", ["a", 1], None):
        with pytest.raises(ValueError, match="vars"):
            rg.ring_from_doc({"kind": "poly", "vars": names})


def test_reduce_mod():
    e = rg.parse_scalar("2/3", Q)
    assert rg.reduce_mod(e, 5).v == 4  # 2 * inv(3) = 2 * 2 = 4
    with pytest.raises(ZeroDivisionError):
        rg.reduce_mod(rg.parse_scalar("1/5", Q), 5)
    with pytest.raises(ValueError):
        rg.reduce_mod(rg.variable(POLY1, "a1"), 5)


def test_grevlex_order_pins_serialization():
    ring = rg.polynomial_ring(["x", "y", "z"])
    p = rg.parse_scalar("x^2 + x*y^2 + z + x*z + 3", ring)
    # degree first; within a degree the variable earlier in the order wins
    assert str(p) == "x*y^2 + x^2 + x*z + z + 3"
