import random
import time
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


ENDS_EARLY = ["1+", "(", "-", "2*", "a1 +"]


@pytest.mark.parametrize("text", ["", "2+*3", "(1", "1)", "2^-1", "1 2"] + ENDS_EARLY)
def test_parse_malformed(text):
    # a text cut short is refused at its end, which the message names
    match = "end of input" if text in ENDS_EARLY else None
    with pytest.raises(ScalarParseError, match=match):
        rg.parse_scalar(text, POLY1 if "a1" in text else Q)


def test_as_fraction_returns_a_fraction_unchanged():
    q = Fraction(3, 7)
    assert rg.as_fraction(q) is q
    assert rg.as_fraction(3) == 3 and type(rg.as_fraction(3)) is Fraction
    assert rg.as_fraction("-1/2") == Fraction(-1, 2)


def test_parse_nesting_is_capped():
    assert rg.parse_scalar("(" * 100 + "1" + ")" * 100, Q).v == 1
    assert rg.parse_scalar("-" * 100 + "1", Q).v == 1
    for text in ("(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1",
                 "-(" * 51 + "1" + ")" * 51):
        with pytest.raises(ScalarParseError, match="nesting"):
            rg.parse_scalar(text, Q)


def test_parse_power_size_is_capped():
    # each of these ran for minutes (2^9999999999 is a 1.25 GB integer)
    poly = rg.polynomial_ring(list("abcdefgh"))
    for text, ring in (("2^9999999999", Q), ("((2^100)^100)^100", Q),
                       ("(a+b+c+d+e+f+g+h)^30", poly), ("a^100000", poly)):
        with pytest.raises(ScalarParseError, match="power too large"):
            rg.parse_scalar(text, ring)
    # a bound of 2^16: bits of a rational power, terms x bits of a polynomial one
    assert rg.parse_scalar("2^32768", Q).v == 2 ** 32768
    with pytest.raises(ScalarParseError, match="power too large"):
        rg.parse_scalar("2^32769", Q)
    assert rg.parse_scalar("(a+b)^100", poly) == rg.parse_scalar("(a+b)^50", poly) ** 2
    # residues stay small, so a prime field takes any exponent
    assert rg.parse_scalar("3^99999999999", rg.prime_field(7)).v == pow(3, 99999999999, 7)


def test_parse_product_size_is_capped():
    # the three-factor product took 47 s for its 170544 terms; the two-factor
    # one forms 792^2 term products
    poly = rg.polynomial_ring(list("abcdefgh"))
    s = "(a+b+c+d+e+f+g+h)^5"
    for text in (f"{s}*{s}", f"{s}*{s}*{s}", f"({s}+1)*2*{s}"):
        with pytest.raises(ScalarParseError, match="product too large"):
            rg.parse_scalar(text, poly)
    # the bound of a power: terms x terms x (bits + bits) past 2^16
    assert rg.parse_scalar("2^32768*2^32766", Q).v == 2 ** 65534
    with pytest.raises(ScalarParseError, match="product too large"):
        rg.parse_scalar("2^32768*2^32767", Q)
    assert rg.parse_scalar(f"{s}*2", poly) == rg.parse_scalar(f"2*{s}", poly)
    assert rg.parse_scalar("(a+b)^7*(a+b)^7", poly) == rg.parse_scalar("(a+b)^14", poly)
    # residues stay small, so a prime field takes any product
    big = "*".join(["3^99999999999"] * 3)
    assert rg.parse_scalar(big, rg.prime_field(7)).v == pow(3, 3 * 99999999999, 7)


def test_parse_product_bound_counts_the_monomials_of_its_degrees():
    # 101 x 101 term products, but only the 201 monomials of degree 200 in
    # a and b: 201 terms x 194 bits stays within the bound
    poly = rg.polynomial_ring(["a", "b"])
    start = time.perf_counter()
    assert rg.parse_scalar("(a+b)^100*(a+b)^100", poly) == rg.parse_scalar("(a+b)^200", poly)
    assert time.perf_counter() - start < 1
    half = rg.parse_scalar("(a+b)^100", poly)
    assert rg._product_size(half, half) == 201 * 2 * 97
    # degrees 0..5 times degrees 0..5 in 8 variables: at most the 43758
    # monomials of degree 0..10, each of 7 + 7 bits, but 1287^2 term products
    poly = rg.polynomial_ring(list("abcdefgh"))
    sum8 = rg.parse_scalar("(a+b+c+d+e+f+g+h+1)^5", poly)
    assert rg._product_size(sum8, sum8) == 1287 ** 2


def test_parse_product_bound_counts_the_term_products():
    # P = (1+x)(1+x^2)...(1+x^8192) has all 16384 terms of degree 0..16383,
    # and P*P at most 32767 terms of 1 + 1 bits, within the bound; but it
    # forms 16384^2 term products, which took minutes
    poly = rg.polynomial_ring(["x"])
    p = "*".join(f"(1+x^{2 ** i})" for i in range(14))
    start = time.perf_counter()
    assert len(rg.parse_scalar(p, poly).v) == 16384
    with pytest.raises(ScalarParseError, match="product too large"):
        rg.parse_scalar(f"({p})*({p})", poly)
    assert time.perf_counter() - start < 1


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


def test_prime_field_is_validated_once_per_modulus(monkeypatch):
    assert rg.prime_field(7919) is rg.prime_field(7919) == rg.Ring("GF", p=7919)
    # the cache is typed: a float equal to a cached prime is still refused
    with pytest.raises(ValueError, match="^prime field modulus must be prime, got '7919.0'$"):
        rg.prime_field(7919.0)
    checks = []
    monkeypatch.setattr(rg, "is_prime", lambda n: checks.append(n) or n == 7)
    assert rg.prime_field(7919).p == 7919 and checks == []
    # a refusal is not cached: the modulus is checked again each time
    for _ in range(2):
        with pytest.raises(ValueError, match="^prime field modulus must be prime, got '4'$"):
            rg.prime_field(4)
    assert checks == [4, 4]


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in range(-2, 100):
        assert rg.is_prime(n) == (n in primes or (n > 1 and all(n % d for d in range(2, n))))
    assert rg.is_prime(2 ** 61 - 1)
    assert not rg.is_prime(2 ** 61 + 1)


# the least strong pseudoprime to the first 12 prime bases, 399165290221 x
# 798330580441: with bases up to 37 alone it passes as prime
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_the_least_strong_pseudoprime_to_twelve_bases():
    assert PSI_12 == 399165290221 * 798330580441
    assert not rg.is_prime(PSI_12)
    with pytest.raises(ValueError, match="must be prime"):
        rg.prime_field(PSI_12)


# the least strong pseudoprime to the first 13 prime bases (Sorenson and
# Webster 2017), 1287836182261 x 2575672364521: Miller-Rabin to bases 2-41
# decides every n below it and proves nothing at or above it
PSI_13 = 3317044064679887385961981


def test_is_prime_refuses_a_probable_prime_from_psi_13_on():
    assert PSI_13 == 1287836182261 * 2575672364521
    for call in (rg.is_prime, rg.prime_field):
        with pytest.raises(ValueError, match=f"'{PSI_13}' is a strong probable prime to bases "
                                             f"2-41, which decide primality only below "
                                             f"psi_13 = {PSI_13}"):
            call(PSI_13)
    # "composite" answers stay exact past the bound, and primes below it pass
    assert not rg.is_prime(10 ** 100)
    assert not rg.is_prime(PSI_13 + 2)
    assert rg.is_prime(2 ** 61 - 1)


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
