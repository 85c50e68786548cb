"""Matrices of structure constants and the change-of-basis action.

An m-dimensional algebra with an n-ary product is stored as the m x m^n
matrix whose column for the basis tuple (i1, ..., in) holds the coordinates
of the product of those basis vectors.  Columns are ordered with the first
index most significant: the tuple (i1, ..., in) sits in column
1 + sum((i_t - 1) * m^(n - t)).

A basis change g in GL(m) acts by A |-> g . A . (g^-1 tensor ... tensor g^-1).
"""

from __future__ import annotations

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
        self.ring = ring
        self.rows = rows

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

    def entry(self, i: int, j: int) -> RingElem:
        return self.rows[i][j]

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

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in row] for row in self.rows])

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

    def scale(self, c: RingElem) -> "Matrix":
        return Matrix(self.ring, [[c * a for a in row] for row in self.rows])

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

    def inverse(self) -> "Matrix":
        """Exact inverse by Gaussian elimination; field scalars only."""
        if not self.ring.is_field:
            raise ValueError("matrix inversion needs a field, not a polynomial ring")
        n = self.nrows
        if n != self.ncols:
            raise ValueError("only square matrices can be inverted")
        ident = Matrix.identity(self.ring, n)
        work = [list(r1) + list(r2) for r1, r2 in zip(self.rows, ident.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            inv = work[col][col].inv()
            work[col] = [inv * x for x in work[col]]
            for r in range(n):
                if r == col or work[r][col].is_zero():
                    continue
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return Matrix(self.ring, [row[n:] for row in work])

    def to_strings(self):
        return [[str(x) for x in row] for row in self.rows]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.ring!r})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the block matrix (a_ij * b)."""
    return a.kron(b)


def kron_power(a: Matrix, n: int) -> Matrix:
    out = a
    for _ in range(n - 1):
        out = out.kron(a)
    return out


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
    """An m-dimensional n-ary algebra as its m x m^n structure-constant matrix."""

    __slots__ = ("dim", "arity", "mat")

    def __init__(self, dim: int, arity: int, mat: Matrix):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if arity < 2:
            raise ValueError("arity must be at least 2")
        if mat.nrows != dim or mat.ncols != dim ** arity:
            raise ValueError(
                f"entries must be {dim}x{dim ** arity} for dim {dim}, arity {arity}; "
                f"got {mat.nrows}x{mat.ncols}"
            )
        self.dim = dim
        self.arity = arity
        self.mat = mat

    @property
    def ring(self) -> Ring:
        return self.mat.ring

    @classmethod
    def from_strings(cls, ring: Ring, dim: int, arity: int, rows) -> "Msc":
        return cls(dim, arity, Matrix.from_strings(ring, rows))

    @classmethod
    def zero(cls, ring: Ring, dim: int, arity: int) -> "Msc":
        return cls(dim, arity, Matrix.zeros(ring, dim, dim ** arity))

    def entry(self, l: int, indices) -> RingElem:
        """Coefficient of e_l in the product of the 1-based basis tuple."""
        return self.mat.rows[l - 1][column_index(self.dim, indices)]

    def __eq__(self, other):
        return (
            isinstance(other, Msc)
            and self.dim == other.dim
            and self.arity == other.arity
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.dim, self.arity, self.mat))

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def specialize(self, assignment) -> "Msc":
        """Substitute rational values for every template parameter."""
        if self.ring.kind != "poly":
            raise ValueError("specialize expects a polynomial-ring template")
        mat = self.mat.map_entries(lambda x: rg.substitute(x, assignment), rg.QQ)
        return Msc(self.dim, self.arity, mat)

    def reduce_mod(self, p: int) -> "Msc":
        """Entrywise reduction modulo a prime (rational or GF(p) input)."""
        gf = rg.prime_field(p)
        if self.ring.kind == "GF" and self.ring.p == p:
            return self
        mat = self.mat.map_entries(lambda x: rg.reduce_mod(x, p), gf)
        return Msc(self.dim, self.arity, mat)

    def __repr__(self):
        return f"Msc(dim={self.dim}, arity={self.arity}, ring={self.ring!r})"


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
    """Invertible basis-change matrix with its exact inverse cached."""

    __slots__ = ("dim", "mat", "inv_mat")

    def __init__(self, mat: Matrix):
        if mat.nrows != mat.ncols:
            raise ValueError("basis change must be square")
        if not mat.ring.is_field:
            raise ValueError("basis change needs field scalars")
        self.dim = mat.nrows
        self.mat = mat
        self.inv_mat = mat.inverse()

    @classmethod
    def identity(cls, ring: Ring, dim: int) -> "BasisChange":
        return cls(Matrix.identity(ring, dim))

    @classmethod
    def from_strings(cls, ring: Ring, rows) -> "BasisChange":
        return cls(Matrix.from_strings(ring, rows))

    def compose(self, other: "BasisChange") -> "BasisChange":
        return BasisChange(self.mat * other.mat)

    def apply(self, vector) -> tuple:
        out = []
        for row in self.mat.rows:
            s = rg.zero(self.mat.ring)
            for a, x in zip(row, vector):
                if not a.is_zero() and not x.is_zero():
                    s = s + a * x
            out.append(s)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, BasisChange) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"BasisChange(dim={self.dim}, ring={self.mat.ring!r})"


def transform(A: Msc, g: BasisChange) -> Msc:
    """The basis-change action g . A . (g^-1)^(tensor n)."""
    if g.dim != A.dim:
        raise ValueError(f"basis change of dim {g.dim} cannot act on dim {A.dim}")
    if g.mat.ring != A.ring:
        raise ValueError("basis change and algebra must share one field")
    return Msc(A.dim, A.arity, (g.mat * A.mat) * kron_power(g.inv_mat, A.arity))


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def msc_to_doc(A: Msc) -> dict:
    return {
        "dim": A.dim,
        "arity": A.arity,
        "ring": rg.ring_to_doc(A.ring),
        "entries": A.mat.to_strings(),
    }


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
        or any(not isinstance(row, list) or len(row) != dim ** arity for row in entries)
    ):
        raise ValueError(
            f"msc: field 'entries' must be a {dim}x{dim ** arity} array of scalar strings"
        )
    try:
        mat = Matrix.from_strings(ring, entries)
    except rg.ScalarParseError as exc:
        raise ValueError(f"msc: bad entry: {exc}") from exc
    return Msc(dim, arity, mat)
