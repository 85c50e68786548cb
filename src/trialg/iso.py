"""Isomorphism checking and search for algebras given by structure constants.

Two algebras A, B of the same dimension and arity are isomorphic exactly
when B = g . A . (g^-1)^(tensor n) for some invertible g.  Over a prime
field the whole of GL(m, GF(p)) can be enumerated, which decides the
question there; an empty search is evidence (never proof) about fields of
characteristic zero.

The search writes the equivalent identity B . g^(tensor n) = g . A, together
with t . det(g) = 1 for invertibility, as one polynomial system in the
entries of g and t, and hands it to the pruned finite-field enumerator of
polysolve.py.  Candidates g therefore come out in row-major lexicographic
order of their entries over 0..p-1, so results are reproducible bit for
bit; every witness is re-verified through the exact transform path before
it is returned.
"""

from __future__ import annotations

import warnings

from . import ring as rg
from .msc import BasisChange, Matrix, Msc, nest, transform
from .polysolve import PolySystem, _compile_mod_p, _enumerate

__all__ = ["IsoWitness", "iso_verify", "iso_search", "iso_report",
           "DEFAULT_EVIDENCE_PRIMES"]

# avoids the excluded characteristics 2 and 3; keeps 2x2 searches instant
DEFAULT_EVIDENCE_PRIMES = (5, 7, 11)

_SEARCH_SPACE_WARN = 10_000_000


class IsoWitness:
    """A basis change carrying source to target, verified exactly."""

    __slots__ = ("g", "source", "target")

    def __init__(self, g: BasisChange, source: Msc, target: Msc):
        self.g = g
        self.source = source
        self.target = target

    def __repr__(self):
        return f"IsoWitness(g={self.g.mat.to_strings()})"


def iso_verify(A: Msc, B: Msc, g: BasisChange) -> bool:
    """True iff transform(A, g) equals B entrywise."""
    if A.dim != B.dim or A.arity != B.arity:
        raise ValueError("algebras must share dimension and arity")
    if A.ring != B.ring:
        raise ValueError("algebras must share one ring")
    return transform(A, g) == B


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = rg.zero(rows[0][0].ring)
    for j, a in enumerate(rows[0]):
        term = a * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def _iso_system(Ap: Msc, Bp: Msc) -> PolySystem:
    """B . g^(tensor n) - g . A = 0 and t . det(g) - 1 = 0 over Q[g, t].

    The entries of the GF(p) algebras enter as their residues 0..p-1; the
    variables are g's entries in row-major order, then t.
    """
    m = Ap.dim
    names = [f"g{r}_{c}" for r in range(1, m + 1) for c in range(1, m + 1)]
    ring = rg.polynomial_ring(names + ["t"])
    g = Matrix(ring, [
        [rg.variable(ring, names[r * m + c]) for c in range(m)] for r in range(m)
    ])
    a, b = (X.mat.map_entries(lambda x: rg.from_int(ring, x.v), ring) for X in (Ap, Bp))
    for slot in range(1, Ap.arity + 1):
        b = nest(b, Ap.arity, slot, g)
    unit = rg.variable(ring, "t") * _det(g.rows) - rg.one(ring)
    return PolySystem(ring, [x for row in (b - g * a).rows for x in row] + [unit])


def iso_search(A: Msc, B: Msc, p: int, find_all: bool = True):
    """Enumerate GL(m, GF(p)) for basis changes carrying A to B.

    A and B may have rational entries (reduced mod p; p must not divide a
    denominator) or already live over GF(p).  Returns every witness in
    enumeration order, or just the first when find_all is False.  An empty
    result means an exhaustive scan found no isomorphism over GF(p).
    """
    if A.dim != B.dim or A.arity != B.arity:
        raise ValueError("algebras must share dimension and arity")
    if not isinstance(p, int) or not rg.is_prime(p):
        raise ValueError(f"search modulus must be prime, got {p!r}")
    if p in (2, 3):
        warnings.warn(
            f"isomorphism evidence over GF({p}) is weak: characteristics 2 and 3 "
            "sit outside the intended evidence range",
            RuntimeWarning,
            stacklevel=2,
        )
    Ap = A.reduce_mod(p)
    Bp = B.reduce_mod(p)
    m = A.dim
    space = p ** (m * m)
    if space > _SEARCH_SPACE_WARN:
        warnings.warn(
            f"enumerating {space} candidate matrices in GL({m}, GF({p})); "
            "this may take a long time",
            RuntimeWarning,
            stacklevel=2,
        )
    # never obstructed: no polynomial of the system is a nonzero constant
    compiled, _ = _compile_mod_p(_iso_system(Ap, Bp), p)
    hits = _enumerate(compiled, p, m * m + 1, None if find_all else 1)
    gf = rg.prime_field(p)
    witnesses = []
    for values in hits:
        g = BasisChange(Matrix(gf, [
            [rg.RingElem(gf, x) for x in values[r * m:(r + 1) * m]] for r in range(m)
        ]))
        if not iso_verify(Ap, Bp, g):
            raise RuntimeError("search produced a candidate the exact check rejects")
        witnesses.append(IsoWitness(g, Ap, Bp))
    return witnesses


def iso_report(A: Msc, B: Msc, p: int, find_all: bool = False) -> dict:
    """JSON-ready summary of one search."""
    witnesses = iso_search(A, B, p, find_all=find_all)
    exhaustive = find_all or not witnesses
    return {
        "prime": p,
        "witness_count": len(witnesses),
        "witnesses": [w.g.mat.to_strings() for w in witnesses],
        "exhaustive": exhaustive,
    }
