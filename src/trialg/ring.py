"""Exact scalars: rationals, prime fields GF(p), and sparse multivariate
polynomials over the rationals, behind one element type.

Every value is immutable and kept in canonical form: rationals are reduced
with positive denominator, prime-field residues lie in [0, p), and
polynomials never store zero coefficients.  Polynomial terms are compared
in graded reverse lexicographic (grevlex) order with respect to the
declared variable order, and the same order is used everywhere (printing,
leading terms, the Groebner engine).
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction

__all__ = [
    "Ring",
    "RingElem",
    "prime_field",
    "polynomial_ring",
    "QQ",
    "parse_scalar",
    "substitute",
    "zero",
    "one",
    "from_int",
    "from_fraction",
    "variable",
    "reduce_mod",
    "as_fraction",
    "is_prime",
    "ring_to_doc",
    "ring_from_doc",
    "ScalarParseError",
]

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")

# The first 13 primes: as Miller-Rabin bases they decide every n below the
# composite psi_13 (Sorenson and Webster, Math. Comp. 2017); the first 12
# stop short at the composite psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # 1287836182261 x 2575672364521


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test to the bases _MR_WITNESSES, exact below
    psi_13 = 3317044064679887385961981.  A "composite" answer is right for
    every n; an n of at least psi_13 (psi_13 itself, a composite, among
    them) that passes every base raises ValueError, as it is not proved
    prime."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"{_excerpt(str(n))} is a strong probable prime to bases 2-41, "
                         f"which decide primality only below psi_13 = {_PSI_13}")
    return True


def _distinct_primes(primes, allow_empty: bool = False) -> tuple:
    """``primes`` as a tuple, each checked prime and given once; an empty
    list is refused unless ``allow_empty``."""
    primes = tuple(primes)
    if not primes and not allow_empty:
        raise ValueError("empty prime list")
    seen = set()
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{_excerpt(str(p))} is not prime")
        if p in seen:
            raise ValueError(f"prime {_excerpt(str(p))} given more than once")
        seen.add(p)
    return primes


class ScalarParseError(ValueError):
    """Raised when a scalar string does not follow the scalar grammar."""


def _excerpt(text: str, limit: int = 40) -> str:
    """text quoted for a diagnostic: whole up to limit characters, else a
    prefix and the length."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


class Ring:
    """Descriptor of one of the three coefficient rings.

    kind is "Q" (rationals), "GF" (prime field, with modulus ``p``) or
    "poly" (multivariate polynomials over Q in the ordered variables
    ``vars``).
    """

    __slots__ = ("kind", "p", "vars", "_pos")

    def __init__(self, kind: str, p: int | None = None, vars: tuple[str, ...] = ()):
        if kind not in ("Q", "GF", "poly"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "GF":
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"prime field modulus must be prime, got {_excerpt(str(p))}")
        elif p is not None:
            raise ValueError("modulus only makes sense for a prime field")
        vars = tuple(vars)
        if kind == "poly":
            if not vars:
                raise ValueError("polynomial ring needs at least one variable")
            seen = set()
            for v in vars:
                if not isinstance(v, str) or not _IDENT_RE.match(v):
                    raise ValueError(f"bad variable name {v!r}")
                if v in seen:
                    raise ValueError(f"duplicate variable {v!r}")
                seen.add(v)
        elif vars:
            raise ValueError("variables only make sense for a polynomial ring")
        self.kind = kind
        self.p = p
        self.vars = vars
        self._pos = {v: i for i, v in enumerate(vars)}

    @property
    def is_field(self) -> bool:
        return self.kind != "poly"

    def var_index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise ScalarParseError(f"unknown variable {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.p == other.p
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.vars))

    def __repr__(self):
        if self.kind == "Q":
            return "Ring(Q)"
        if self.kind == "GF":
            return f"Ring(GF({self.p}))"
        return f"Ring(Q[{', '.join(self.vars)}])"


@functools.lru_cache(maxsize=256, typed=True)
def prime_field(p: int) -> Ring:
    """GF(p), validated once per modulus and then shared.  A refused
    modulus raises on every call, as an exception is not cached; the cache
    is typed, so 5.0 is refused even after 5 is cached."""
    return Ring("GF", p=p)


def polynomial_ring(names) -> Ring:
    return Ring("poly", vars=tuple(names))


QQ = Ring("Q")


# ---------------------------------------------------------------------------
# raw sparse-polynomial toolkit (exponent tuple -> Fraction coefficient)
#
# These helpers operate on plain dicts below the RingElem wrapper; the
# Groebner engine packs each exponent tuple into one int (polysolve._Packing).
# ---------------------------------------------------------------------------

def _grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _poly_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _poly_neg(a):
    return {m: -c for m, c in a.items()}

def _poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _poly_pow(a, k):
    nvars = len(next(iter(a))) if a else 0
    out = {(0,) * nvars: Fraction(1)}
    base = a
    while k:
        if k & 1:
            out = _poly_mul(out, base)
        k >>= 1
        if k:
            base = _poly_mul(base, base)
    return out


def _poly_eval(terms, vals):
    """Evaluate at a full vector of Fractions, one per ring variable."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        t = coeff
        for i, e in enumerate(mono):
            if e:
                t *= vals[i] ** e
        total += t
    return total


def _rational_texts(values, den: int = 1) -> list:
    """The text of each v / den, for ints v (or ints and Fractions when den
    is 1), as str(Fraction(v, den)) writes it.  Every scalar is printed
    here: one with more digits than the interpreter converts is refused
    with a ValueError that names the limit."""
    try:
        if den == 1:
            return list(map(str, values))
        return [str(Fraction(v, den)) for v in values]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a scalar past {limit} digits is too long to print") from None


def _rational_text(q) -> str:
    """The text of one int or Fraction, as _rational_texts writes it."""
    return _rational_texts((q,))[0]


def _poly_str(ring, terms):
    if not terms:
        return "0"
    parts = []
    for k, mono in enumerate(sorted(terms, key=_grevlex_key, reverse=True)):
        coeff = terms[mono]
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(ring.vars, mono)
            if e
        ]
        if not factors:
            body = _rational_text(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _rational_text(mag) + "*" + "*".join(factors)
        if k == 0:
            parts.append("-" + body if neg else body)
        else:
            parts.append(" - " + body if neg else " + " + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class RingElem:
    """One exact scalar tied to a Ring descriptor.

    The payload is a Fraction (Q), an int residue (GF) or a sparse term
    dict (poly).  Instances are treated as immutable; all operators return
    new elements and both operands must live in the same ring.
    """

    __slots__ = ("ring", "v")

    def __init__(self, ring: Ring, v):
        self.ring = ring
        self.v = v

    def _check(self, other) -> "RingElem":
        if not isinstance(other, RingElem):
            raise TypeError(f"cannot combine RingElem with {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        return other

    def is_zero(self) -> bool:
        k = self.ring.kind
        if k == "poly":
            return not self.v
        return self.v == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = self._check(other)
        r = self.ring
        k = r.kind
        if k == "Q":
            return RingElem(r, self.v + other.v)
        if k == "GF":
            return RingElem(r, (self.v + other.v) % r.p)
        return RingElem(r, _poly_add(self.v, other.v))

    def __sub__(self, other):
        other = self._check(other)
        r = self.ring
        k = r.kind
        if k == "Q":
            return RingElem(r, self.v - other.v)
        if k == "GF":
            return RingElem(r, (self.v - other.v) % r.p)
        return RingElem(r, _poly_add(self.v, _poly_neg(other.v)))

    def __neg__(self):
        r = self.ring
        k = r.kind
        if k == "Q":
            return RingElem(r, -self.v)
        if k == "GF":
            return RingElem(r, -self.v % r.p)
        return RingElem(r, _poly_neg(self.v))

    def __mul__(self, other):
        other = self._check(other)
        r = self.ring
        k = r.kind
        if k == "Q":
            return RingElem(r, self.v * other.v)
        if k == "GF":
            return RingElem(r, self.v * other.v % r.p)
        return RingElem(r, _poly_mul(self.v, other.v))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        r = self.ring
        if r.kind == "Q":
            return RingElem(r, self.v ** k)
        if r.kind == "GF":
            return RingElem(r, pow(self.v, k, r.p))
        return RingElem(r, _poly_pow(self.v, k) if self.v else
                        ({} if k else {(0,) * len(r.vars): Fraction(1)}))

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and (other.ring is self.ring or other.ring == self.ring)
            and self.v == other.v
        )

    def __hash__(self):
        v = self.v
        if self.ring.kind == "poly":
            v = tuple(sorted(v.items()))
        return hash((self.ring, v))

    def __str__(self):
        return _poly_str(self.ring, self.v) if self.ring.kind == "poly" else _rational_text(self.v)

    def __repr__(self):
        return f"RingElem({self.ring!r}, {self})"


def zero(ring: Ring) -> RingElem:
    if ring.kind == "Q":
        return RingElem(ring, Fraction(0))
    if ring.kind == "GF":
        return RingElem(ring, 0)
    return RingElem(ring, {})


def one(ring: Ring) -> RingElem:
    return from_int(ring, 1)


def from_int(ring: Ring, n: int) -> RingElem:
    return from_fraction(ring, Fraction(n))


def from_fraction(ring: Ring, q) -> RingElem:
    q = Fraction(q)
    if ring.kind == "Q":
        return RingElem(ring, q)
    if ring.kind == "GF":
        p = ring.p
        den = q.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {p}")
        return RingElem(ring, q.numerator * pow(den, p - 2, p) % p)
    if q == 0:
        return RingElem(ring, {})
    return RingElem(ring, {(0,) * len(ring.vars): q})


def variable(ring: Ring, name: str) -> RingElem:
    """The generator ``name`` of a polynomial ring."""
    if ring.kind != "poly":
        raise ScalarParseError(f"unknown variable {name!r}")
    i = ring.var_index(name)
    mono = tuple(1 if j == i else 0 for j in range(len(ring.vars)))
    return RingElem(ring, {mono: Fraction(1)})


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, scalar strings and rational elements to Fraction."""
    if isinstance(value, RingElem):
        if value.ring.kind != "Q":
            raise ValueError(f"expected a rational value, got {value!r}")
        return value.v
    if isinstance(value, str):
        return parse_scalar(value, QQ).v
    return value if isinstance(value, Fraction) else Fraction(value)


def reduce_mod(elem: RingElem, p: int) -> RingElem:
    """Reduce a rational (or GF(p)) element modulo the prime p."""
    gf = prime_field(p)
    if elem.ring.kind == "Q":
        return from_fraction(gf, elem.v)
    if elem.ring.kind == "GF":
        if elem.ring.p != p:
            raise ValueError(f"cannot move a GF({elem.ring.p}) value into GF({p})")
        return RingElem(gf, elem.v)
    raise ValueError("cannot reduce a polynomial modulo a prime")


def substitute(elem: RingElem, assignment) -> RingElem:
    """Exactly evaluate a polynomial element at rational values.

    ``assignment`` maps variable names to rationals (Fraction, int, scalar
    string or rational RingElem) and must cover every variable that occurs
    in ``elem``.  The result lives in Q.
    """
    if elem.ring.kind != "poly":
        raise ValueError("substitute expects a polynomial element")
    names = elem.ring.vars
    vals: list[Fraction | None] = [None] * len(names)
    for name, value in assignment.items():
        if name in elem.ring._pos:
            vals[elem.ring._pos[name]] = as_fraction(value)
    for mono in elem.v:
        for i, e in enumerate(mono):
            if e and vals[i] is None:
                raise ValueError(f"assignment is missing variable {names[i]!r}")
    safe = [v if v is not None else Fraction(0) for v in vals]
    return RingElem(QQ, _poly_eval(elem.v, safe))


# ---------------------------------------------------------------------------
# scalar grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := unary ('*' unary)*
#   unary  := ('-'|'+') unary | power
#   power  := atom ('^' uint)*
#   atom   := uint ('/' uint)? | name | '(' expr ')'
#
# '/' is only legal between two integer literals ("a/b"); anywhere else it
# is rejected as a division outside a fraction literal.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ScalarParseError(f"unexpected character {tail[0]!r} in {_excerpt(text)}")
        if m.group(1) is not None:
            try:
                tokens.append(("int", int(m.group(1))))
            except ValueError:  # more digits than the interpreter converts
                raise ScalarParseError(f"integer literal of {len(m.group(1))} digits exceeds "
                                       f"the limit of {sys.get_int_max_str_digits()}") from None
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


# Bound on nested '(' and unary-sign chains, well inside Python's recursion
# limit: each nesting level costs the recursive-descent parser a few frames.
_MAX_NESTING = 100

# Bound on the size of one power a^k or product a*b: the bits of a rational
# result, or for a polynomial its possible terms times the bits of each
# coefficient, and for a product also the term products it forms.  Python
# would otherwise spend minutes and gigabytes on an
# entry like "2^9999999999" or a product of a few large polynomial powers.
_MAX_POWER_SIZE = 1 << 16


def _terms_bits(value: RingElem):
    """The terms of value (1 for a rational) and the most bits of a coefficient."""
    coeffs = [value.v] if value.ring.kind == "Q" else list(value.v.values())
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
               default=1)
    return len(coeffs), max(bits, 1)


def _power_size(value: RingElem, k: int) -> int:
    """Upper bound on the size of value ** k, in the units of _MAX_POWER_SIZE."""
    if value.ring.kind == "GF" or k < 2:
        return 0
    t, bits = _terms_bits(value)
    # a product of k of the t terms: at most comb(k + t - 1, k) monomials
    return math.comb(k + t - 1, k) * k * bits


def _product_size(a: RingElem, b: RingElem) -> int:
    """Upper bound on the size of a * b, in the units of _MAX_POWER_SIZE:
    the larger of its work and its result.

    The work is the ta * tb term products a multiplication forms.  The
    result has at most ta * tb terms, over Q[vars] also at most the
    monomials in the ring's variables whose degree lies between the sums
    of the two factors' least and largest degrees, each term of at most
    bits_a + bits_b bits."""
    if a.ring.kind == "GF":
        return 0
    (ta, bits_a), (tb, bits_b) = _terms_bits(a), _terms_bits(b)
    products = terms = ta * tb
    if a.ring.kind == "poly" and terms:
        n = len(a.ring.vars)
        lo = min(map(sum, a.v)) + min(map(sum, b.v))
        hi = max(map(sum, a.v)) + max(map(sum, b.v))
        terms = min(terms, math.comb(hi + n, n) - math.comb(lo - 1 + n, n))
    return max(products, terms * (bits_a + bits_b))


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def nest(self):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail(f"nesting deeper than {_MAX_NESTING} levels")

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, why):
        raise ScalarParseError(f"{why} in {_excerpt(self.text)}")

    def parse(self) -> RingElem:
        if not self.tokens:
            self.fail("empty scalar")
        value = self.expr()
        if self.i != len(self.tokens):
            self.fail(f"trailing input at token {self.i}")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.i += 1
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, op = self.peek()
            if kind == "op" and op == "*":
                self.i += 1
                rhs = self.unary()
                if _product_size(value, rhs) > _MAX_POWER_SIZE:
                    self.fail("product too large")
                value = value * rhs
            elif kind == "op" and op == "/":
                self.fail("division outside a fraction literal")
            else:
                return value

    def unary(self):
        kind, op = self.peek()
        if kind == "op" and op in "+-":
            self.i += 1
            self.nest()
            value = self.unary()
            self.depth -= 1
            return -value if op == "-" else value
        return self.power()

    def power(self):
        value = self.atom()
        while True:
            kind, op = self.peek()
            if kind == "op" and op == "^":
                self.i += 1
                ekind, exp = self.take()
                if ekind != "int":
                    self.fail("exponent must be a nonnegative integer")
                if _power_size(value, exp) > _MAX_POWER_SIZE:
                    self.fail(f"power too large (exponent {exp})")
                value = value ** exp
            else:
                return value

    def atom(self):
        kind, tok = self.take()
        if kind == "int":
            nkind, nxt = self.peek()
            if nkind == "op" and nxt == "/":
                self.i += 1
                dkind, den = self.take()
                if dkind != "int":
                    self.fail("fraction denominator must be an integer")
                if den == 0:
                    self.fail("zero denominator")
                return from_fraction(self.ring, Fraction(tok, den))
            return from_int(self.ring, tok)
        if kind == "name":
            return variable(self.ring, tok)
        if kind == "op" and tok == "(":
            self.nest()
            value = self.expr()
            self.depth -= 1
            ckind, close = self.take()
            if ckind != "op" or close != ")":
                self.fail("unbalanced parenthesis")
            return value
        if kind is None:
            self.fail("unexpected end of input")
        self.fail(f"unexpected token {tok!r}")


# A plain entry: an ASCII integer or fraction literal with at most one minus
_PLAIN_RE = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?\Z")


def parse_scalar(text: str, ring: Ring) -> RingElem:
    """Parse one scalar in the grammar above into a canonical element.

    A plain entry such as "-3" or "7/2" is read without the tokenizer, as
    the parser reads it: the literal, then the sign.  A zero denominator,
    a literal past the interpreter's digit limit and everything else go
    to the parser, which gives each refusal its message."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar must be a string, got {type(text).__name__}")
    m = _PLAIN_RE.match(text)
    if m:
        sign, num, den = m.groups()
        try:
            q = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            pass
        else:
            value = from_fraction(ring, q)
            return -value if sign else value
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def ring_to_doc(ring: Ring) -> dict:
    if ring.kind == "Q":
        return {"kind": "Q"}
    if ring.kind == "GF":
        return {"kind": "GF", "p": ring.p}
    return {"kind": "poly", "vars": list(ring.vars)}


def ring_from_doc(doc) -> Ring:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("ring: expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "Q":
        return QQ
    if kind == "GF":
        if "p" not in doc:
            raise ValueError("ring: GF needs a field 'p'")
        return prime_field(doc["p"])
    if kind == "poly":
        names = doc.get("vars")
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise ValueError("ring: poly needs a field 'vars' holding a list of names")
        return polynomial_ring(names)
    raise ValueError(f"ring: unknown kind {kind!r}")
