"""Matrices of structure constants and the change-of-basis action.

An m-dimensional algebra with an n-ary product is stored as the m x m^n
matrix whose column for the basis tuple (i1, ..., in) holds the coordinates
of the product of those basis vectors.  Columns are ordered with the first
index most significant: the tuple (i1, ..., in) sits in column
1 + sum((i_t - 1) * m^(n - t)).

A basis change g in GL(m) acts by A |-> g . A . (g^-1 tensor ... tensor g^-1).

An Msc holds that matrix as integers, the pair (rows, den) in lowest
terms: over Q integer numerators over one denominator, over Q[vars]
{monomial: int} numerator dicts over one denominator, over GF(p) residues.
A BasisChange holds g and g^-1 the same way.  Every operation reads and
writes those integers, scalars parse straight to them and reports print
from them (_texts).  Matrix, of RingElems, is a type for tests and
benchmarks that no command builds: they pass one to Msc(dim, arity, Matrix)
and BasisChange(Matrix), and Msc.mat and BasisChange.mat are views.

Composite products are built by one contraction kernel, _nest_ints, which
puts a product or a linear map into one argument slot of another: n-ary
generation, the associativity residuals and transform (g . A with g as a
unary outer map) call it; matrix products, kron and eval_product are test
references.  (The isomorphism search expands its system in iso.py.)  The
kernel runs on plain ints for every ring, and chains of contractions stay
in ints between steps.  A result of more than _MAX_ENTRIES entries is
refused before it is built, and over Q[vars] so is the work past
_MAX_ENTRIES term products x variables.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain

from . import ring as rg
from .ring import Ring, RingElem

__all__ = [
    "Matrix",
    "Msc",
    "BasisChange",
    "kron",
    "eval_product",
    "transform",
    "basis_vector",
    "column_index",
    "column_tuple",
    "msc_to_doc",
    "msc_from_doc",
]


class Matrix:
    """Dense exact matrix over one Ring; rows of RingElems, immutable."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: Ring, rows):
        self.ring, self.rows = ring, _checked_rows(ring, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @classmethod
    def from_strings(cls, ring: Ring, rows) -> "Matrix":
        return cls(ring, [[rg.parse_scalar(s, ring) for s in row] for row in rows])

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        z, o = rg.zero(ring), rg.one(ring)
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring: Ring, nrows: int, ncols: int) -> "Matrix":
        z = rg.zero(ring)
        return cls(ring, [[z] * ncols for _ in range(nrows)])

    def _same_ring(self, other: "Matrix"):
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("matrix ring mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __add__(self, other):
        self._same_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        return Matrix(self.ring, [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        self._same_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        return Matrix(self.ring, [
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __mul__(self, other):
        """Matrix product, skipping zero entries of the left factor."""
        self._same_ring(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        z = rg.zero(self.ring)
        out = [[z] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            acc = out[i]
            for k, a in enumerate(row):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.rows[k]):
                    if not b.is_zero():
                        acc[j] = acc[j] + a * b
        return Matrix(self.ring, out)

    def kron(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        z = rg.zero(self.ring)
        br, bc = other.nrows, other.ncols
        out = [[z] * (self.ncols * bc) for _ in range(self.nrows * br)]
        for i, arow in enumerate(self.rows):
            for j, a in enumerate(arow):
                if a.is_zero():
                    continue
                for k in range(br):
                    dst = out[i * br + k]
                    off = j * bc
                    for l, b in enumerate(other.rows[k]):
                        if not b.is_zero():
                            dst[off + l] = a * b
        return Matrix(self.ring, out)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def map_entries(self, fn, ring: Ring | None = None) -> "Matrix":
        return Matrix(ring or self.ring, [[fn(x) for x in row] for row in self.rows])

    def to_strings(self):
        return [[str(x) for x in row] for row in self.rows]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.ring!r})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the block matrix (a_ij * b)."""
    return a.kron(b)


def _checked_rows(ring: Ring, rows) -> tuple:
    """rows as a tuple of tuples, refused as a Matrix refuses them."""
    rows = tuple(tuple(row) for row in rows)
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and column")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix rows")
        for x in row:
            if not isinstance(x, RingElem) or (x.ring is not ring and x.ring != ring):
                raise ValueError("matrix entry outside the declared ring")
    return rows


_MAX_ENTRIES = 1 << 18  # largest matrix a contraction builds: ~100 MB of exact scalars


def _to_ints(ring: Ring, rows):
    """Rows of canonical RingElems over ring as the pair (rows, den) that
    Msc holds and _nest_ints works on: rows / den, in lowest terms.

    Over Q the rows hold integer numerators over the least common
    denominator of the entries; over Q[vars] each entry is a {monomial:
    int} dict of numerators over the lcm of every coefficient denominator;
    over GF(p) the rows hold the residues, den 1."""
    kind = ring.kind
    if kind == "GF":
        return [[x.v for x in row] for row in rows], 1
    if kind == "Q":
        den = math.lcm(*(x.v.denominator for row in rows for x in row))
        return [[x.v.numerator * (den // x.v.denominator) for x in row] for row in rows], den
    den = math.lcm(*(q.denominator for row in rows for x in row for q in x.v.values()))
    return [[{mono: q.numerator * (den // q.denominator) for mono, q in x.v.items()}
             for x in row] for row in rows], den


def _elems(ring: Ring, values, den: int) -> tuple:
    """The RingElems values / den of one row of Msc entries, in canonical
    form: one Fraction (or one residue mod p) per nonzero entry or
    coefficient, no zero coefficient kept, and the ring's zero elsewhere."""
    z = rg.zero(ring)
    if ring.kind == "GF":
        p = ring.p
        return tuple(RingElem(ring, r) if (r := v % p) else z for v in values)
    frac = Fraction if den == 1 else lambda v: Fraction(v, den)  # Fraction(v) skips the gcd
    if ring.kind == "Q":
        return tuple(RingElem(ring, frac(v)) if v else z for v in values)
    return tuple(RingElem(ring, t) if (t := {m: frac(v) for m, v in d.items() if v}) else z
                 for d in values)


def _from_ints(ring: Ring, rows, den: int) -> Matrix:
    """The Matrix rows / den over ring, the view Msc.mat and BasisChange.mat give."""
    return Matrix(ring, [_elems(ring, row, den) for row in rows])


def _texts(ring: Ring, values, den: int) -> list:
    """The strings of the entries values / den, one row of Msc entries:
    exactly the str of each of _elems(ring, values, den), built without a
    RingElem over Q and GF(p)."""
    if ring.kind == "poly":
        return [str(x) for x in _elems(ring, values, den)]
    return rg._rational_texts(values, den)


def _nest_ints(ring: Ring, outer, arity: int, slot: int, inner):
    """outer(x1, ..., inner(y1, ..., yb), ..., x_arity) on (rows, den) pairs
    as Msc holds them; returns another one.  outer is m x m^arity and inner
    m x m^b (b = 1: a linear map on that slot); the m x m^(arity + b - 1)
    result has inner's indices in the slot's place.

    The numerators are contracted as plain ints, never reduced, over the
    product of the two denominators: over Q[vars] each product of two terms
    is added straight into the result entry's dict (cancelled coefficients
    stay as zeros until Msc drops them), and over GF(p) each result entry is
    reduced once.  The shape and the _MAX_ENTRIES budget are checked before
    anything is allocated, so every caller gets both checks.  Over Q[vars]
    the budget also bounds the work: each product of two entries counts its
    term products times the ring's variable count, and the contraction is
    refused before the product that takes the count past _MAX_ENTRIES."""
    (orows, oden), (irows, iden) = outer, inner
    m, width = len(irows), len(irows[0])
    if len(orows[0]) != m ** arity or not 1 <= slot <= arity:
        raise ValueError(f"cannot nest into slot {slot} of arity {arity} in dimension {m}")
    tail, ncols = m ** (arity - slot), len(orows[0]) // m * width
    if len(orows) * ncols > _MAX_ENTRIES:
        raise ValueError(f"a {len(orows)}x{ncols} matrix exceeds {_MAX_ENTRIES} entries")
    # column j of outer holds (pre, k, post) around the slot index k; inner's
    # column y replaces k, landing y * tail columns after the block's base
    parts = [[(y * tail, c) for y, c in enumerate(row) if c] for row in irows]
    poly = ring.kind == "poly"
    work, nvars = 0, len(ring.vars)
    out = []
    for row in orows:
        acc = [{} for _ in range(ncols)] if poly else [0] * ncols
        for j, a in enumerate(row):
            if a:
                pre, k = divmod(j, m * tail)
                k, post = divmod(k, tail)
                base = pre * width * tail + post
                if poly:
                    for off, c in parts[k]:
                        work += len(a) * len(c) * nvars
                        if work > _MAX_ENTRIES:
                            raise _work_refusal(nvars)
                        _add_product(acc[base + off], a, c)
                else:
                    for off, c in parts[k]:
                        acc[base + off] += a * c
        out.append(acc)
    if ring.kind == "GF":
        out = [[v % ring.p for v in acc] for acc in out]
    return out, oden * iden


def _work_refusal(nvars: int) -> ValueError:
    """The refusal of a contraction over Q[vars] past the work budget."""
    return ValueError(f"a contraction over {nvars} variables exceeds "
                      f"{_MAX_ENTRIES} term products x variables")


def _add_product(acc: dict, a: dict, c: dict) -> None:
    """acc += a * c on {monomial: int} dicts."""
    for ma, ca in a.items():
        for mc, cc in c.items():
            mono = tuple(map(operator.add, ma, mc))
            acc[mono] = acc.get(mono, 0) + ca * cc


def column_index(dim: int, indices) -> int:
    """0-based column for a tuple of 1-based basis indices."""
    c = 0
    for i in indices:
        if not 1 <= i <= dim:
            raise ValueError(f"basis index {i} out of range 1..{dim}")
        c = c * dim + (i - 1)
    return c


def column_tuple(dim: int, arity: int, col: int):
    """Inverse of column_index."""
    out = []
    for _ in range(arity):
        out.append(col % dim + 1)
        col //= dim
    return tuple(reversed(out))


class Msc:
    """An m-dimensional n-ary algebra as its m x m^n structure-constant matrix,
    held as rows / den in lowest terms (no zero coefficient, den 1 over GF(p)
    and for zero), so that equal algebras hold equal pairs."""

    __slots__ = ("ring", "dim", "arity", "rows", "den")

    def __init__(self, dim: int, arity: int, mat: Matrix):
        _check_shape(dim, arity, mat.nrows, mat.ncols)
        # a Matrix of canonical RingElems converts to lowest terms
        self.ring, self.dim, self.arity = mat.ring, dim, arity
        self.rows, self.den = _to_ints(mat.ring, mat.rows)

    @classmethod
    def _of(cls, ring: Ring, dim: int, arity: int, rows, den: int) -> "Msc":
        """The algebra rows / den over ring, a pair of _nest_ints brought to
        lowest terms (the shape is the caller's to get right)."""
        if ring.kind == "GF":
            p = ring.p
            rows, den = [[v % p for v in row] for row in rows], 1
        elif ring.kind == "Q":
            if not any(map(any, rows)):  # zero, as most residuals are: no gcd pass
                den = 1
            elif den != 1 and (g := math.gcd(den, *chain.from_iterable(rows))) != 1:
                rows, den = [[v // g for v in row] for row in rows], den // g
        else:
            rows = [[{m: c for m, c in d.items() if c} for d in row] for row in rows]
            coeffs = (c for row in rows for d in row for c in d.values())
            if den != 1 and (g := math.gcd(den, *coeffs)) != 1:
                rows = [[{m: c // g for m, c in d.items()} for d in row] for row in rows]
                den //= g
        A = cls.__new__(cls)
        A.ring, A.dim, A.arity, A.rows, A.den = ring, dim, arity, rows, den
        return A

    @property
    def mat(self) -> Matrix:
        """The Matrix of RingElems, built on each access."""
        return _from_ints(self.ring, self.rows, self.den)

    @classmethod
    def from_strings(cls, ring: Ring, dim: int, arity: int, rows) -> "Msc":
        """Msc(dim, arity, Matrix.from_strings(ring, rows)), built without a Matrix."""
        rows = _checked_rows(ring, [[rg.parse_scalar(s, ring) for s in row] for row in rows])
        _check_shape(dim, arity, len(rows), len(rows[0]))
        return cls._of(ring, dim, arity, *_to_ints(ring, rows))

    @classmethod
    def zero(cls, ring: Ring, dim: int, arity: int) -> "Msc":
        return cls.from_strings(ring, dim, arity, [["0"] * dim ** arity for _ in range(dim)])

    def entry(self, l: int, indices) -> RingElem:
        """Coefficient of e_l in the product of the 1-based basis tuple."""
        return _elems(self.ring, [self.rows[l - 1][column_index(self.dim, indices)]], self.den)[0]

    def __eq__(self, other):
        return isinstance(other, Msc) and self.ring == other.ring and (
            (self.dim, self.arity, self.den, self.rows)
            == (other.dim, other.arity, other.den, other.rows))

    def __hash__(self):
        entry = (lambda d: frozenset(d.items())) if self.ring.kind == "poly" else None
        rows = tuple(tuple(map(entry, row)) if entry else tuple(row) for row in self.rows)
        return hash((self.ring, self.dim, self.arity, self.den, rows))

    def __sub__(self, other: "Msc") -> "Msc":
        if (self.dim, self.arity) != (other.dim, other.arity) or self.ring != other.ring:
            raise ValueError("algebras must share dimension, arity and ring")
        raw = _difference(self.ring, (self.rows, self.den), (other.rows, other.den))
        return Msc._of(self.ring, self.dim, self.arity, *raw)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def specialize(self, assignment) -> "Msc":
        """Substitute rational values for every template parameter.

        The same values and refusals as rg.substitute entry by entry, in
        integers: with the values written as numerators n_i over their
        least common denominator D, an entry's {monomial: int} numerators
        over den give sum c * n^mono * D^(top - deg(mono)) over
        den * D^top, top the largest degree in the template."""
        ring = self.ring
        if ring.kind != "poly":
            raise ValueError("specialize expects a polynomial-ring template")
        vals = [None] * len(ring.vars)
        for name, value in assignment.items():
            if name in ring._pos:
                vals[ring._pos[name]] = rg.as_fraction(value)
        # in the order rg.substitute meets them, so a missing variable is
        # reported where it would be
        monos = dict.fromkeys(mono for row in self.rows for d in row for mono in d)
        top = max(map(sum, monos), default=0)
        D = math.lcm(*(q.denominator for q in vals if q is not None))
        nums = [0 if q is None else q.numerator * (D // q.denominator) for q in vals]
        terms = {}  # monomial -> n^mono * D^(top - deg), shared by every entry
        for mono in monos:
            t = D ** (top - sum(mono))
            for i, e in enumerate(mono):
                if e:
                    if vals[i] is None:
                        raise ValueError(f"assignment is missing variable {ring.vars[i]!r}")
                    t *= nums[i] ** e
            terms[mono] = t
        values = [[sum(c * terms[mono] for mono, c in d.items()) for d in row]
                  for row in self.rows]
        return Msc._of(rg.QQ, self.dim, self.arity, values, self.den * D ** top)

    def reduce_mod(self, p: int) -> "Msc":
        """Entrywise reduction modulo a prime (rational or GF(p) input).

        Over Q the numerators times one inverse of den mod p; over GF(p)
        the residues.  Anything else (p dividing a denominator, another
        field, a polynomial ring) raises rg.reduce_mod's error at the first
        entry it rejects."""
        gf, ring, rows = rg.prime_field(p), self.ring, self.rows
        if ring.kind == "Q" and self.den % p:
            inv = pow(self.den, -1, p)
            rows = [[v * inv for v in row] for row in rows]
        elif ring != gf:
            rows = [[rg.reduce_mod(x, p).v for x in _elems(ring, row, self.den)] for row in rows]
        return Msc._of(gf, self.dim, self.arity, rows, 1)

    def __repr__(self):
        return f"Msc(dim={self.dim}, arity={self.arity}, ring={self.ring!r})"


def _check_shape(dim: int, arity: int, nrows: int, ncols: int) -> None:
    """Refuse an nrows x ncols matrix as the algebra of dim and arity."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    if nrows != dim or ncols != dim ** arity:
        raise ValueError(
            f"entries must be {dim}x{dim ** arity} for dim {dim}, arity {arity}; "
            f"got {nrows}x{ncols}"
        )


def _difference(ring: Ring, x, y):
    """x - y on (rows, den) pairs, over the lcm of the two denominators, as
    _nest_ints leaves its results (Msc._of brings them to lowest terms)."""
    (xrows, xden), (yrows, yden) = x, y
    g = math.gcd(xden, yden)
    s, t = yden // g, xden // g
    if ring.kind == "poly":
        def minus(a, b):
            out = {mono: c * s for mono, c in a.items()} if s != 1 else dict(a)
            for mono, c in b.items():
                out[mono] = out.get(mono, 0) - c * t
            return out
    else:
        minus = operator.sub if s == t == 1 else lambda a, b: a * s - b * t
    return [list(map(minus, r, q)) for r, q in zip(xrows, yrows)], xden * s


def _lift(A: Msc, ring: Ring) -> Msc:
    """The rational algebra A over the polynomial ring ``ring``: constant entries."""
    one = (0,) * len(ring.vars)
    return Msc._of(ring, A.dim, A.arity, [[{one: v} for v in row] for row in A.rows], A.den)


def basis_vector(ring: Ring, dim: int, i: int):
    """Coordinate vector of the 1-based basis element e_i."""
    if not 1 <= i <= dim:
        raise ValueError(f"basis index {i} out of range 1..{dim}")
    z, o = rg.zero(ring), rg.one(ring)
    return tuple(o if j == i - 1 else z for j in range(dim))


def eval_product(A: Msc, args) -> tuple:
    """Coordinates of the n-ary product: A . (u1 tensor ... tensor un)."""
    args = [tuple(v) for v in args]
    if len(args) != A.arity:
        raise ValueError(f"expected {A.arity} argument vectors, got {len(args)}")
    ring = A.ring
    for v in args:
        if len(v) != A.dim:
            raise ValueError(f"argument vector of length {len(v)}, expected {A.dim}")
        for x in v:
            if not isinstance(x, RingElem) or (x.ring is not ring and x.ring != ring):
                raise ValueError("argument vector outside the algebra's ring")
    acc = [rg.one(ring)]
    for v in args:
        acc = [x * y for x in acc for y in v]
    out = []
    for row in A.mat.rows:
        s = rg.zero(ring)
        for a, k in zip(row, acc):
            if not a.is_zero() and not k.is_zero():
                s = s + a * k
        out.append(s)
    return tuple(out)


class BasisChange:
    """An invertible basis change g as Msc holds an algebra, with g^-1 as inv."""

    __slots__ = ("ring", "dim", "rows", "den", "inv")

    def __init__(self, mat: Matrix):
        if mat.nrows != mat.ncols:
            raise ValueError("basis change must be square")
        if not mat.ring.is_field:
            raise ValueError("basis change needs field scalars")
        self.ring, self.dim = mat.ring, mat.nrows
        self.rows, self.den = _to_ints(mat.ring, mat.rows)
        self.inv = _inverse(self.ring, self.rows, self.den)

    @classmethod
    def _of(cls, ring: Ring, rows) -> "BasisChange":
        """The basis change of square rows of residues mod p over GF(p)."""
        g = cls.__new__(cls)
        g.ring, g.dim, g.rows, g.den, g.inv = ring, len(rows), rows, 1, _inverse(ring, rows, 1)
        return g

    @property
    def mat(self) -> Matrix:
        """g as a Matrix of RingElems, built on each access."""
        return _from_ints(self.ring, self.rows, self.den)

    @property
    def inv_mat(self) -> Matrix:
        """g^-1 as a Matrix of RingElems, built on each access."""
        return _from_ints(self.ring, *self.inv)

    @classmethod
    def identity(cls, ring: Ring, dim: int) -> "BasisChange":
        return cls(Matrix.identity(ring, dim))

    @classmethod
    def from_strings(cls, ring: Ring, rows) -> "BasisChange":
        return cls(Matrix.from_strings(ring, rows))

    def to_strings(self) -> list:
        """The strings of g's entries, as self.mat.to_strings() gives them."""
        return [_texts(self.ring, row, self.den) for row in self.rows]

    def compose(self, other: "BasisChange") -> "BasisChange":
        return BasisChange(self.mat * other.mat)

    def apply(self, vector) -> tuple:
        out = []
        for row in self.mat.rows:
            s = rg.zero(self.ring)
            for a, x in zip(row, vector):
                if not a.is_zero() and not x.is_zero():
                    s = s + a * x
            out.append(s)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, BasisChange) and self.ring == other.ring and (
            (self.den, self.rows) == (other.den, other.rows))

    def __hash__(self):
        return hash((self.ring, self.den, tuple(map(tuple, self.rows))))

    def __repr__(self):
        return f"BasisChange(dim={self.dim}, ring={self.ring!r})"


def _inverse(ring: Ring, rows, den: int):
    """(rows / den)^-1 as a (rows, den) pair in lowest terms, by Gauss-Jordan
    elimination on [rows | I]: over GF(p) on the residues, over Q on
    Fractions of the numerators, as (rows / den)^-1 = den . rows^-1."""
    n, p = len(rows), ring.p
    norm = (lambda x: x % p) if p else (lambda x: x)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        scale = pow(work[col][col], -1, p) if p else Fraction(1, work[col][col])
        work[col] = [norm(scale * x) for x in work[col]]
        for r, row in enumerate(work):
            if r != col and (f := row[col]):
                work[r] = [norm(x - f * y) for x, y in zip(row, work[col])]
    inv = [[den * x for x in row[n:]] for row in work]  # Fractions in lowest terms, or residues
    lcd = math.lcm(*(x.denominator for row in inv for x in row))
    return [[x.numerator * (lcd // x.denominator) for x in row] for row in inv], lcd


def transform(A: Msc, g: BasisChange) -> Msc:
    """The basis-change action g . A . (g^-1)^(tensor n)."""
    if g.dim != A.dim:
        raise ValueError(f"basis change of dim {g.dim} cannot act on dim {A.dim}")
    if g.ring != A.ring:
        raise ValueError("basis change and algebra must share one field")
    raw = _nest_ints(A.ring, (g.rows, g.den), 1, 1, (A.rows, A.den))
    for slot in range(1, A.arity + 1):
        raw = _nest_ints(A.ring, raw, A.arity, slot, g.inv)
    return Msc._of(A.ring, A.dim, A.arity, *raw)


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def msc_to_doc(A: Msc) -> dict:
    return {"dim": A.dim, "arity": A.arity, "ring": rg.ring_to_doc(A.ring),
            "entries": [_texts(A.ring, row, A.den) for row in A.rows]}


def msc_from_doc(doc) -> Msc:
    if not isinstance(doc, dict):
        raise ValueError("msc: expected a JSON object")
    for key in ("dim", "arity", "ring", "entries"):
        if key not in doc:
            raise ValueError(f"msc: missing field {key!r}")
    dim, arity = doc["dim"], doc["arity"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"msc: bad field 'dim': {dim!r}")
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 2:
        raise ValueError(f"msc: bad field 'arity': {arity!r}")
    ring = rg.ring_from_doc(doc["ring"])
    entries = doc["entries"]
    if (
        not isinstance(entries, list)
        or len(entries) != dim
        or any(not isinstance(row, list) for row in entries)
    ):
        raise ValueError(f"msc: field 'entries' must be a list of {dim} rows")
    # dim ** arity is formed only once it can be a row length: from dim 2 on
    # it exceeds every row when arity reaches the longest row's bit length
    longest = max(len(row) for row in entries)
    if dim > 1 and arity >= longest.bit_length():
        raise ValueError(
            f"msc: field 'arity' {arity} asks for rows of {dim}^{arity} entries; "
            f"the longest row of 'entries' has {longest}"
        )
    width = dim ** arity
    if any(len(row) != width for row in entries):
        raise ValueError(
            f"msc: field 'entries' must be a {dim}x{width} array of scalar strings"
        )
    try:
        return Msc.from_strings(ring, dim, arity, entries)
    except (rg.ScalarParseError, ZeroDivisionError) as exc:
        raise ValueError(f"msc: bad entry: {exc}") from exc
