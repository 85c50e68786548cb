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

import re
from fractions import Fraction

__all__ = [
    "Ring",
    "RingElem",
    "rationals",
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
    "lift_rational",
    "as_fraction",
    "is_prime",
    "ring_to_doc",
    "ring_from_doc",
    "ScalarParseError",
]

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")

# Witness set is deterministic for every n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for machine-scale integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    return True


class ScalarParseError(ValueError):
    """Raised when a scalar string does not follow the scalar grammar."""


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
            if not isinstance(p, int) or p <= 1 or not is_prime(p):
                raise ValueError(f"prime field modulus must be prime, got {p!r}")
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


def rationals() -> Ring:
    return QQ


def prime_field(p: int) -> Ring:
    return Ring("GF", p=p)


def polynomial_ring(names) -> Ring:
    return Ring("poly", vars=tuple(names))


QQ = Ring("Q")


# ---------------------------------------------------------------------------
# raw sparse-polynomial toolkit (exponent tuple -> Fraction coefficient)
#
# These helpers operate on plain dicts so that the Groebner engine and the
# finite-field sweeps can work below the RingElem wrapper.
# ---------------------------------------------------------------------------

def _grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


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

def _poly_sub(a, b):
    return _poly_add(a, _poly_neg(b))


def _poly_scale(a, c):
    if not c:
        return {}
    return {m: k * c for m, k in a.items()}


def _poly_mul_term(a, c, mono):
    """a * (c * x^mono); used heavily by polynomial reduction."""
    if not c:
        return {}
    return {_mono_mul(m, mono): k * c for m, k in a.items()}


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
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
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

    def inv(self) -> "RingElem":
        """Multiplicative inverse; defined only for nonzero field elements."""
        r = self.ring
        if r.kind == "poly":
            raise ValueError("inversion is not defined in a polynomial ring")
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        if r.kind == "Q":
            return RingElem(r, 1 / self.v)
        return RingElem(r, pow(self.v, r.p - 2, r.p))

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
        r = self.ring
        if r.kind == "poly":
            return _poly_str(r, self.v)
        return str(self.v)

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


def lift_rational(q, ring: Ring) -> RingElem:
    """Embed a rational constant (Fraction/int/RingElem over Q) into ``ring``."""
    if isinstance(q, RingElem):
        if q.ring.kind != "Q":
            raise ValueError("lift_rational expects a rational value")
        q = q.v
    return from_fraction(ring, q)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, scalar strings and rational elements to Fraction."""
    if isinstance(value, RingElem):
        if value.ring.kind != "Q":
            raise ValueError(f"expected a rational value, got {value!r}")
        return value.v
    if isinstance(value, str):
        return parse_scalar(value, QQ).v
    return Fraction(value)


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
            raise ScalarParseError(f"unexpected character {tail[0]!r} in {text!r}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


# Bound on nested '(' and unary-sign chains, well inside Python's recursion
# limit: each nesting level costs the recursive-descent parser a few frames.
_MAX_NESTING = 100


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
        raise ScalarParseError(f"{why} in {self.text!r}")

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
                value = value * self.unary()
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
        self.fail(f"unexpected token {tok!r}")


def parse_scalar(text: str, ring: Ring) -> RingElem:
    """Parse one scalar in the grammar above into a canonical element."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar must be a string, got {type(text).__name__}")
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
